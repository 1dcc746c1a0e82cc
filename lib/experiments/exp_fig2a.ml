type curve = { vd : float; vg : float array; id : float array }

type result = {
  curves : curve list;
  ion_a : float;
  ion_ua_um : float;
  min_leak_vg : float;
  vd_leak_ratio : float;
}

let sweep p ~vd ~n_vg =
  let vg = Vec.linspace 0. 0.75 n_vg in
  let init = ref None in
  let id =
    Array.map
      (fun v ->
        let s = Scf.solve ?init:!init p ~vg:v ~vd in
        init := Some s.Scf.potential;
        s.Scf.current)
      vg
  in
  { vd; vg; id }

let run () =
  let p = Params.default () in
  let curves = List.map (fun vd -> sweep p ~vd ~n_vg:31) [ 0.05; 0.25; 0.5; 0.75 ] in
  let at_05 = List.nth curves 2 in
  let ion_a =
    let k = Vec.argmin (Array.map (fun v -> Float.abs (v -. 0.5)) at_05.vg) in
    at_05.id.(k)
  in
  let width_um = Lattice.width 12 /. 1e-6 in
  let ion_ua_um = ion_a /. 1e-6 /. width_um in
  let kmin = Vec.argmin at_05.id in
  let min_leak_vg = at_05.vg.(kmin) in
  let min_of c = Vec.minimum c.id in
  let vd_leak_ratio = min_of (List.nth curves 3) /. min_of (List.nth curves 1) in
  { curves; ion_a; ion_ua_um; min_leak_vg; vd_leak_ratio }

let print ppf r =
  Report.heading ppf "Fig 2(a): I-V of the ideal N=12 GNRFET";
  List.iter
    (fun c ->
      Report.series ppf
        ~name:(Printf.sprintf "VD = %.2f V   (VG [V] vs ID [A])" c.vd)
        ~xs:c.vg ~ys:c.id)
    r.curves;
  Format.fprintf ppf "Ion(VG=VD=0.5V)      = %sA  (%.0f uA/um; paper: 6300 uA/um)@."
    (Report.si r.ion_a) r.ion_ua_um;
  Format.fprintf ppf "min-leakage VG at VD=0.5V = %.3f V (paper: ~VD/2 = 0.25 V)@."
    r.min_leak_vg;
  Format.fprintf ppf "min-leak(0.75V)/min-leak(0.25V) = %.1fx (exponential VD dependence)@."
    r.vd_leak_ratio
