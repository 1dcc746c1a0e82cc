type mode_count_result = { n_modes : int; ion : float; ioff : float }

let mode_count () =
  List.map
    (fun n_modes ->
      let p = { (Params.default ()) with Params.n_modes } in
      let ion = (Scf.solve p ~vg:0.75 ~vd:0.5).Scf.current in
      let ioff = (Scf.solve p ~vg:0.25 ~vd:0.5).Scf.current in
      { n_modes; ion; ioff })
    [ 1; 2; 3 ]

type grid_result = { energy_step : float; ion : float; relative_error : float }

let energy_grid () =
  let ion_at de =
    let p = { (Params.default ()) with Params.energy_step = de } in
    (Scf.solve p ~vg:0.6 ~vd:0.5).Scf.current
  in
  let results = List.map (fun de -> (de, ion_at de)) [ 8e-3; 4e-3; 2e-3; 1e-3 ] in
  (* The finest step, swept last, is the reference. *)
  let _, reference = List.hd (List.rev results) in
  List.map
    (fun (energy_step, ion) ->
      {
        energy_step;
        ion;
        relative_error = Float.abs (ion -. reference) /. Float.abs reference;
      })
    results

type mixing_result = { scheme : string; iterations : int; converged : bool }

let mixing () =
  let p = Params.default () in
  let run scheme mixing =
    let s = Scf.solve ~mixing ~max_iter:200 p ~vg:0.7 ~vd:0.5 in
    { scheme; iterations = s.Scf.iterations; converged = s.Scf.residual <= 1e-3 }
  in
  [
    run "anderson(5)" `Anderson;
    run "linear(0.3)" (`Linear 0.3);
    run "linear(0.1)" (`Linear 0.1);
  ]

type contact_result = { style : string; ion : float; ion_over_ioff : float }

let contact_style () =
  let run style contact_style =
    let p = { (Params.default ()) with Params.contact_style } in
    let ion = (Scf.solve p ~vg:0.75 ~vd:0.5).Scf.current in
    let ioff = (Scf.solve p ~vg:0.25 ~vd:0.5).Scf.current in
    { style; ion; ion_over_ioff = ion /. ioff }
  in
  [ run "point (end-bonded)" Stack2d.Point; run "plane (wrap-around)" Stack2d.Plane ]

type table_density_result = { n_vg : int; snm : float; delay : float }

let table_density () =
  let p = Params.default () in
  List.map
    (fun n_vg ->
      let grid = { Iv_table.default_grid with Iv_table.n_vg } in
      let table = Table_cache.get ~grid p in
      let pair = Explore.pair_at table ~vt:0.13 in
      let m = Metrics.inverter_metrics ~pair ~vdd:0.4 () in
      { n_vg; snm = m.Metrics.snm; delay = m.Metrics.tp })
    [ 14; 27; 53 ]

type temperature_result = {
  temperature : float;
  ion : float;
  ioff : float;
  on_off : float;
}

let temperature () =
  List.map
    (fun temperature ->
      let p = { (Params.default ()) with Params.temperature } in
      let ion = (Scf.solve p ~vg:0.75 ~vd:0.5).Scf.current in
      let ioff = (Scf.solve p ~vg:0.25 ~vd:0.5).Scf.current in
      { temperature; ion; ioff; on_off = ion /. ioff })
    [ 250.; 300.; 350.; 400. ]

let print_all ppf =
  Report.heading ppf "Ablation: mode-space depth";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %d mode(s): Ion = %sA, Ioff = %sA@." r.n_modes
        (Report.si r.ion) (Report.si r.ioff))
    (mode_count ());
  Report.heading ppf "Ablation: NEGF energy-grid resolution";
  List.iter
    (fun r ->
      Format.fprintf ppf "  dE = %4.1f meV: Ion = %sA (%.2f%% vs finest)@."
        (r.energy_step /. 1e-3) (Report.si r.ion)
        (100. *. r.relative_error))
    (energy_grid ());
  Report.heading ppf "Ablation: SCF acceleration";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-12s %3d iterations%s@." r.scheme r.iterations
        (if r.converged then "" else " (no convergence)"))
    (mixing ());
  Report.heading ppf "Ablation: contact electrostatics";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-22s Ion = %sA, Ion/Ioff = %.0f@." r.style
        (Report.si r.ion) r.ion_over_ioff)
    (contact_style ());
  Report.heading ppf "Ablation: temperature";
  List.iter
    (fun r ->
      Format.fprintf ppf "  T = %3.0f K: Ion = %sA, Ioff = %sA, ratio = %.0f@."
        r.temperature (Report.si r.ion) (Report.si r.ioff) r.on_off)
    (temperature ());
  Report.heading ppf "Ablation: bias-table density";
  List.iter
    (fun r ->
      Format.fprintf ppf "  n_vg = %2d: SNM = %.3f V, delay = %.2f ps@." r.n_vg
        r.snm (r.delay *. 1e12))
    (table_density ())
