type result = {
  vt_no_offset : float;
  vt_with_offset : float;
  offset : float;
  curve_no_offset : float array * float array;
  curve_with_offset : float array * float array;
}

let low_vd = 0.05

let curve p =
  let vg = Vec.linspace 0. 0.75 16 in
  let init = ref None in
  let id =
    Array.map
      (fun v ->
        let s = Scf.solve ?init:!init p ~vg:v ~vd:low_vd in
        init := Some s.Scf.potential;
        s.Scf.current)
      vg
  in
  (vg, id)

let run () =
  let offset = 0.2 in
  let p0 = Params.default () in
  let p1 = { p0 with Params.gate_offset = offset } in
  let vt_no_offset = Vt.extract p0 in
  let vt_with_offset = Vt.extract p1 in
  {
    vt_no_offset;
    vt_with_offset;
    offset;
    curve_no_offset = curve p0;
    curve_with_offset = curve p1;
  }

let print ppf r =
  Report.heading ppf "Fig 2(b): VT extraction at low VD (N=12)";
  let vg0, id0 = r.curve_no_offset in
  Report.series ppf ~name:"offset = 0 V      (VG [V] vs ID [A], VD = 0.05 V)" ~xs:vg0
    ~ys:id0;
  let vg1, id1 = r.curve_with_offset in
  Report.series ppf
    ~name:(Printf.sprintf "offset = %.2g V   (VG [V] vs ID [A], VD = 0.05 V)" r.offset)
    ~xs:vg1 ~ys:id1;
  Format.fprintf ppf "VT(offset = 0)    = %.3f V   (paper: ~0.3 V)@." r.vt_no_offset;
  Format.fprintf ppf "VT(offset = %.2g) = %.3f V   (paper: ~0.1 V)@." r.offset
    r.vt_with_offset;
  Format.fprintf ppf "VT shift = %.3f V vs offset %.2g V (paper: equal)@."
    (r.vt_no_offset -. r.vt_with_offset)
    r.offset
