type result = {
  nominal : Variation.latch_study;
  single : Variation.latch_study;
  all : Variation.latch_study;
  static_power_ratio : float;
}

let run () =
  let nominal =
    Variation.latch ~n_spec:Variation.nominal_spec
      ~p_spec:Variation.nominal_spec ~all_four:false ()
  in
  let single = Variation.latch_worst_case ~all_four:false () in
  let all = Variation.latch_worst_case ~all_four:true () in
  {
    nominal;
    single;
    all;
    static_power_ratio = all.Variation.static_power /. nominal.Variation.static_power;
  }

let print_study ppf (s : Variation.latch_study) =
  Format.fprintf ppf "%s: SNM = %.3f V, Pstat = %.4g uW@." s.Variation.label
    s.Variation.snm
    (s.Variation.static_power /. 1e-6);
  let c1, _ = s.Variation.butterfly in
  let show = List.filteri (fun i _ -> i mod 10 = 0) c1 in
  Format.fprintf ppf "  branch 1 (VL, VR):";
  List.iter (fun (x, y) -> Format.fprintf ppf " (%.2f,%.3f)" x y) show;
  Format.fprintf ppf "@."

let print ppf r =
  Report.heading ppf "Fig 7: latch butterfly curves under variations and defects";
  print_study ppf r.nominal;
  print_study ppf r.single;
  print_study ppf r.all;
  Format.fprintf ppf
    "worst-case SNM: %.3f V (near-zero, paper: eye collapses); Pstat ratio = %.1fX (paper: >5X)@."
    r.all.Variation.snm r.static_power_ratio
