type result = {
  mc : Montecarlo.result;
  freq_hist : Stats.histogram;
  pdyn_hist : Stats.histogram;
  pstat_hist : Stats.histogram;
  freq_mean_shift_pct : float;
  pdyn_mean_shift_pct : float;
  pstat_mean_shift_pct : float;
}

let run ?(samples = 2000) ?(seed = 42) () =
  let mc = Montecarlo.run ~samples ~seed () in
  let freq_hist, pdyn_hist, pstat_hist = Montecarlo.histograms mc in
  let mean f = Vec.mean (Array.map f mc.Montecarlo.samples) in
  let shift f nominal = (mean f -. nominal) /. nominal *. 100. in
  {
    mc;
    freq_hist;
    pdyn_hist;
    pstat_hist;
    freq_mean_shift_pct =
      shift (fun s -> s.Montecarlo.frequency) mc.Montecarlo.nominal.Montecarlo.frequency;
    pdyn_mean_shift_pct =
      shift (fun s -> s.Montecarlo.p_dynamic) mc.Montecarlo.nominal.Montecarlo.p_dynamic;
    pstat_mean_shift_pct =
      shift (fun s -> s.Montecarlo.p_static) mc.Montecarlo.nominal.Montecarlo.p_static;
  }

let print ppf r =
  Report.heading ppf "Fig 6: Monte Carlo, 15-stage RO (width x impurity variations)";
  let nom = r.mc.Montecarlo.nominal in
  Format.fprintf ppf "nominal: f = %.2f GHz, Pdyn = %.3g uW, Pstat = %.3g uW@."
    (nom.Montecarlo.frequency /. 1e9)
    (nom.Montecarlo.p_dynamic /. 1e-6)
    (nom.Montecarlo.p_static /. 1e-6);
  Format.fprintf ppf "@.Frequency [GHz]:@.";
  Stats.pp_histogram ppf r.freq_hist;
  Format.fprintf ppf "@.Dynamic power [uW]:@.";
  Stats.pp_histogram ppf r.pdyn_hist;
  Format.fprintf ppf "@.Static power [uW]:@.";
  Stats.pp_histogram ppf r.pstat_hist;
  Format.fprintf ppf
    "mean shifts vs nominal: f %+.1f%% (paper: -10%%), Pdyn %+.1f%% (paper: ~0%%), Pstat %+.1f%% (paper: +23%%)@."
    r.freq_mean_shift_pct r.pdyn_mean_shift_pct r.pstat_mean_shift_pct
