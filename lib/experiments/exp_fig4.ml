type width_curve = {
  n : int;
  gap : float;
  vg : float array;
  id : float array;
  ion : float;
  ioff : float;
  on_off : float;
  cg_on : float;
}

type result = { curves : width_curve list }

let vd = 0.5

let curve_of n =
  let p = Params.default ~gnr_index:n () in
  let table = Table_cache.get p in
  let vg = Vec.linspace 0. 0.8 33 in
  let id = Array.map (fun v -> Iv_table.current_at table ~vg:v ~vd) vg in
  let ion = Iv_table.current_at table ~vg:0.75 ~vd in
  let ioff = Vec.minimum id in
  let cg_on = Float.abs (Iv_table.dq_dvg table ~vg:0.75 ~vd) in
  {
    n;
    gap = Params.band_gap p;
    vg;
    id;
    ion;
    ioff;
    on_off = ion /. ioff;
    cg_on;
  }

let run () = { curves = List.map curve_of Variants.paper_widths }

let print ppf r =
  Report.heading ppf "Fig 4: I-V at VD=0.5V for N = 9 / 12 / 15 / 18";
  List.iter
    (fun c ->
      Report.series ppf
        ~name:(Printf.sprintf "N = %d (Eg = %.3f eV)   (VG [V] vs ID [A])" c.n c.gap)
        ~xs:c.vg ~ys:c.id)
    r.curves;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "N=%2d: Eg=%.3f eV  Ion=%sA  Ioff=%sA  Ion/Ioff=%6.0f  CG,on=%sF@." c.n
        c.gap (Report.si c.ion) (Report.si c.ioff) c.on_off (Report.si c.cg_on))
    r.curves;
  (match
     ( List.find_opt (fun c -> c.n = 9) r.curves,
       List.find_opt (fun c -> c.n = 18) r.curves )
   with
  | Some c9, Some c18 ->
    Format.fprintf ppf
      "N=9 on/off = %.0f (paper: ~1000X); N=18/N=9 on-state CG ratio = %.2f (paper: ~1.5)@."
      c9.on_off
      (c18.cg_on /. c9.cg_on)
  | None, _ | _, None -> ())
