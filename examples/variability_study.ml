(* Variability study (Section 5 of the paper): how a single narrow or wide
   GNR in the 4-GNR array channel — or a charge impurity stuck in the gate
   oxide — changes an inverter's delay, leakage and noise margin.

   Run with:  dune exec examples/variability_study.exe
   (needs the device-table cache; run `dune exec bin/gnrfet_cli.exe --
   tables` once, or let this example generate the three tables it
   needs). *)

let describe label (m : Metrics.inverter_metrics) (nom : Metrics.inverter_metrics) =
  Printf.printf "%-34s delay %6.2f ps (%+5.0f%%)  Pstat %8.4f uW (%+5.0f%%)  SNM %.3f V (%+5.0f%%)\n"
    label
    (m.Metrics.tp *. 1e12)
    (Variation.pct ~nominal:nom.Metrics.tp m.Metrics.tp)
    (m.Metrics.p_static /. 1e-6)
    (Variation.pct ~nominal:nom.Metrics.p_static m.Metrics.p_static)
    m.Metrics.snm
    (Variation.pct ~nominal:nom.Metrics.snm m.Metrics.snm)

let () =
  let op = Variation.point_b in
  Printf.printf "operating point: VDD = %.2f V, VT = %.2f V\n%!" op.Variation.vdd
    op.Variation.vt;
  let metrics ~n_spec ~p_spec ~all_four =
    let pair = Variation.pair_for ~op ~n_spec ~p_spec ~all_four () in
    Metrics.inverter_metrics ~pair ~vdd:op.Variation.vdd ()
  in
  let nominal_spec = Variation.nominal_spec in
  let nom = metrics ~n_spec:nominal_spec ~p_spec:nominal_spec ~all_four:false in
  describe "nominal (all N=12)" nom nom;

  (* Width variation: one narrow GNR in each FET vs all four narrow. *)
  let narrow = { Variation.gnr_index = 9; charge = 0. } in
  describe "N=9 on 1-of-4 GNRs"
    (metrics ~n_spec:narrow ~p_spec:narrow ~all_four:false)
    nom;
  describe "N=9 on 4-of-4 GNRs"
    (metrics ~n_spec:narrow ~p_spec:narrow ~all_four:true)
    nom;

  (* The leakage catastrophe: wide (small-gap) GNRs. *)
  let wide = { Variation.gnr_index = 18; charge = 0. } in
  describe "N=18 on 4-of-4 GNRs"
    (metrics ~n_spec:wide ~p_spec:wide ~all_four:true)
    nom;

  (* A single negative charge trapped near the n-FET source. *)
  let dirty = { Variation.gnr_index = 12; charge = -1. } in
  describe "-q impurity, nFET, 1-of-4"
    (metrics ~n_spec:dirty ~p_spec:nominal_spec ~all_four:false)
    nom;
  describe "-q impurity, nFET, 4-of-4"
    (metrics ~n_spec:dirty ~p_spec:nominal_spec ~all_four:true)
    nom
