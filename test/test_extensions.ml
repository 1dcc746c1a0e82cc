(* Tests for the extension modules: analytic band formulas, edge
   roughness, the SPICE deck front-end, NAND/NOR cells and CSV export. *)

open Support

let test_analytic_matches_numeric () =
  List.iter
    (fun n ->
      let numeric =
        Bands.band_gap (Bands.compute ~nk:129 (Tight_binding.make ~edge_delta:0. n))
      in
      approx ~eps:2e-3
        (Printf.sprintf "N=%d" n)
        (Analytic.armchair_gap n)
        numeric)
    [ 7; 9; 10; 12; 13 ]

let test_analytic_family_zero () =
  (* Without edge correction the 3q+2 family is exactly gapless. *)
  approx ~eps:1e-12 "N=11" 0. (Analytic.armchair_gap 11);
  approx ~eps:1e-12 "N=14" 0. (Analytic.armchair_gap 14)

let test_dirac_estimate_tracks () =
  (* The k.p estimate tracks the analytic 3q+1-family gap within ~15%. *)
  List.iter
    (fun n ->
      let exact = Analytic.armchair_gap n in
      let est = Analytic.dirac_gap_estimate n in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d within 15%%" n)
        true
        (Float.abs (est -. exact) /. exact < 0.15))
    [ 10; 13; 16; 19 ]

let test_fermi_velocity () =
  let vf = Analytic.fermi_velocity () in
  Alcotest.(check bool) "about 0.9e6 m/s" true (vf > 0.7e6 && vf < 1.1e6)

let test_roughness_monotone () =
  let study sigma =
    Roughness.transmission_study ~realizations:12 ~n_sites:80 ~gnr_index:12
      ~sigma ~corr_sites:5 ()
  in
  let t0 = study 0. and t1 = study 0.03 and t2 = study 0.1 in
  approx ~eps:1e-3 "clean chain ballistic" 1. t0.Roughness.mean_transmission;
  Alcotest.(check bool) "monotone degradation" true
    (t0.Roughness.mean_transmission > t1.Roughness.mean_transmission
    && t1.Roughness.mean_transmission > t2.Roughness.mean_transmission);
  Alcotest.(check bool) "localization length shrinks" true
    (t2.Roughness.localization_estimate < t1.Roughness.localization_estimate)

let test_roughness_deterministic () =
  let s1 = Roughness.transmission_study ~seed:3 ~realizations:8 ~n_sites:60 ~gnr_index:12 ~sigma:0.05 ~corr_sites:4 () in
  let s2 = Roughness.transmission_study ~seed:3 ~realizations:8 ~n_sites:60 ~gnr_index:12 ~sigma:0.05 ~corr_sites:4 () in
  approx "same seed, same answer" s1.Roughness.mean_transmission s2.Roughness.mean_transmission

let test_spice_values () =
  let check s expected =
    match Spice_deck.parse_value s with
    | Some v -> approx_rel ~rel:1e-12 s expected v
    | None -> Alcotest.failf "failed to parse %s" s
  in
  check "10k" 10e3;
  check "2.5p" 2.5e-12;
  check "1meg" 1e6;
  check "100f" 100e-15;
  check "3.3" 3.3;
  check "1e-9" 1e-9;
  Alcotest.(check bool) "garbage rejected" true (Spice_deck.parse_value "abc" = None)

let test_spice_parse_and_run_divider () =
  let deck =
    Spice_deck.parse
      "* resistive divider\nVDD top 0 DC 1.0\nR1 top mid 1k\nR2 mid 0 3k\n.end\n"
  in
  Alcotest.(check int) "cards" 3 (List.length deck.Spice_deck.cards);
  let built = Spice_deck.build deck ~models:(fun _ -> None) in
  let dc = Mna.solve_dc built.Spice_deck.net in
  approx ~eps:1e-9 "divider" 0.75 dc.(built.Spice_deck.node_of "mid")

let test_spice_pulse_and_tran () =
  let deck =
    Spice_deck.parse
      "VIN in 0 PULSE(0 1 1n 0.2n 0.2n 3n)\nR1 in out 1k\nC1 out 0 1p\n.tran 0.05n 6n\n.end\n"
  in
  (match deck.Spice_deck.analyses with
  | [ Spice_deck.Tran { dt; t_stop } ] ->
    approx_rel ~rel:1e-9 "dt" 0.05e-9 dt;
    approx_rel ~rel:1e-9 "t_stop" 6e-9 t_stop
  | _ -> Alcotest.fail "expected one .tran");
  let built = Spice_deck.build deck ~models:(fun _ -> None) in
  let wf = Mna.transient built.Spice_deck.net ~t_stop:6e-9 ~dt:0.05e-9 in
  let out = Mna.node_trace wf (built.Spice_deck.node_of "out") in
  (* The RC output follows the pulse up and back down. *)
  let peak = Vec.maximum out in
  Alcotest.(check bool) "charged during pulse" true (peak > 0.8);
  Alcotest.(check bool) "discharged after pulse" true (out.(Array.length out - 1) < 0.3)

let test_spice_fet_model_env () =
  let deck =
    Spice_deck.parse "VDD d 0 DC 0.5\nM1 d g 0 res\nVG g 0 DC 0.0\n.end\n"
  in
  let resistor_model =
    {
      Fet_model.name = "res";
      id = (fun ~vgs:_ ~vds -> vds /. 1e4);
      cgs = (fun ~vgs:_ ~vds:_ -> 0.);
      cgd = (fun ~vgs:_ ~vds:_ -> 0.);
    }
  in
  let built =
    Spice_deck.build deck ~models:(fun n -> if n = "res" then Some resistor_model else None)
  in
  let dc = Mna.solve_dc built.Spice_deck.net in
  (* All nodes driven: current through the device = 0.5/1e4. *)
  approx_rel ~rel:1e-9 "fet current via source" 5e-5
    (Mna.dc_current built.Spice_deck.net dc (built.Spice_deck.source_node "vdd"))

let test_spice_errors () =
  (match Spice_deck.parse "R1 a b\n" with
  | exception Spice_deck.Parse_error (1, _) -> ()
  | _ -> Alcotest.fail "expected parse error for short resistor card");
  match Spice_deck.parse "Vx a b DC 1\n" with
  | exception Spice_deck.Parse_error (1, _) -> ()
  | _ -> Alcotest.fail "expected error for non-grounded source"

let synthetic_pair () =
  let table = synthetic_table () in
  Explore.pair_at table ~vt:0.13

let test_nand2_truth_table () =
  let pair = synthetic_pair () in
  let vdd = 0.4 in
  let out_for va vb =
    let net = Netlist.create () in
    let vdd_node = Netlist.fresh_node net in
    Netlist.vdc net vdd_node vdd;
    let a = Netlist.fresh_node net and b = Netlist.fresh_node net in
    Netlist.vdc net a va;
    Netlist.vdc net b vb;
    let output = Netlist.fresh_node net in
    Cells.add_nand2 net ~pair ~vdd_node ~a ~b ~output;
    (Mna.solve_dc net).(output)
  in
  let hi = 0.7 *. vdd and lo = 0.3 *. vdd in
  Alcotest.(check bool) "00 -> 1" true (out_for 0. 0. > hi);
  Alcotest.(check bool) "01 -> 1" true (out_for 0. vdd > hi);
  Alcotest.(check bool) "10 -> 1" true (out_for vdd 0. > hi);
  Alcotest.(check bool) "11 -> 0" true (out_for vdd vdd < lo)

let test_nor2_truth_table () =
  let pair = synthetic_pair () in
  let vdd = 0.4 in
  let out_for va vb =
    let net = Netlist.create () in
    let vdd_node = Netlist.fresh_node net in
    Netlist.vdc net vdd_node vdd;
    let a = Netlist.fresh_node net and b = Netlist.fresh_node net in
    Netlist.vdc net a va;
    Netlist.vdc net b vb;
    let output = Netlist.fresh_node net in
    Cells.add_nor2 net ~pair ~vdd_node ~a ~b ~output;
    (Mna.solve_dc net).(output)
  in
  let hi = 0.7 *. vdd and lo = 0.3 *. vdd in
  Alcotest.(check bool) "00 -> 1" true (out_for 0. 0. > hi);
  Alcotest.(check bool) "01 -> 0" true (out_for 0. vdd < lo);
  Alcotest.(check bool) "10 -> 0" true (out_for vdd 0. < lo);
  Alcotest.(check bool) "11 -> 0" true (out_for vdd vdd < lo)

let test_csv_export () =
  let table = synthetic_table () in
  let csv = Iv_table.to_csv table in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "rows = header + nvg*nvd"
    (1 + (Array.length table.Iv_table.vg * Array.length table.Iv_table.vd))
    (List.length lines);
  match lines with
  | header :: _ -> Alcotest.(check string) "header" "vg,vd,id_A,q_C" header
  | [] -> Alcotest.fail "empty csv"

let suite =
  [
    Alcotest.test_case "analytic vs numeric gaps" `Quick test_analytic_matches_numeric;
    Alcotest.test_case "3q+2 gapless (uncorrected)" `Quick test_analytic_family_zero;
    Alcotest.test_case "dirac estimate" `Quick test_dirac_estimate_tracks;
    Alcotest.test_case "fermi velocity" `Quick test_fermi_velocity;
    Alcotest.test_case "roughness monotone" `Quick test_roughness_monotone;
    Alcotest.test_case "roughness deterministic" `Quick test_roughness_deterministic;
    Alcotest.test_case "spice values" `Quick test_spice_values;
    Alcotest.test_case "spice divider" `Quick test_spice_parse_and_run_divider;
    Alcotest.test_case "spice pulse transient" `Quick test_spice_pulse_and_tran;
    Alcotest.test_case "spice fet models" `Quick test_spice_fet_model_env;
    Alcotest.test_case "spice errors" `Quick test_spice_errors;
    Alcotest.test_case "nand2 truth table" `Quick test_nand2_truth_table;
    Alcotest.test_case "nor2 truth table" `Quick test_nor2_truth_table;
    Alcotest.test_case "csv export" `Quick test_csv_export;
  ]

let test_negative_delay_pairing () =
  (* A skewed cell whose output crosses before the input: the nearest
     opposite-direction crossing must be chosen, giving a small negative
     delay instead of a missed measurement. *)
  let times = Vec.linspace 0. 10. 201 in
  let input = Array.map (fun t -> if t >= 5. then 0. else 1.) times in
  let output = Array.map (fun t -> if t >= 4.8 then 1. else 0.) times in
  match
    Measure.delay_levels ~times ~input ~output ~in_level:0.5 ~out_level:0.5
      ~input_rising:false
  with
  | Some d -> approx ~eps:0.15 "negative delay" (-0.2) d
  | None -> Alcotest.fail "expected a (negative) delay"

let test_waveform_csv () =
  let wf =
    {
      Mna.times = [| 0.; 1e-12 |];
      voltages = [| [| 0.; 0.5 |]; [| 0.; 0.7 |] |];
    }
  in
  let csv = Mna.waveform_to_csv ~nodes:[ 1 ] wf in
  Alcotest.(check string) "csv" "t,v1\n0,0.5\n1e-12,0.7\n" csv

let extra =
  [
    Alcotest.test_case "negative delay pairing" `Quick test_negative_delay_pairing;
    Alcotest.test_case "waveform csv" `Quick test_waveform_csv;
  ]

let suite = suite @ extra

let test_spice_unknown_node () =
  let deck = Spice_deck.parse "R1 a b 1k\n" in
  let built = Spice_deck.build deck ~models:(fun _ -> None) in
  (match built.Spice_deck.node_of "zzz" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found for an unknown node");
  match built.Spice_deck.source_node "vnone" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found for an unknown source"

let test_explore_point_c_logic () =
  (* On the synthetic surface, point C (same EDP, higher VT) must indeed
     sit at a strictly higher threshold than its reference. *)
  let table = synthetic_table () in
  let s =
    Explore.surface ~stages:15
      ~vdds:(Vec.linspace 0.3 0.5 4)
      ~vts:(Vec.linspace 0.05 0.25 5)
      table
  in
  match Explore.min_edp_at_frequency_and_snm s ~ghz:3. ~snm:0.05 with
  | None -> Alcotest.fail "no point B on the synthetic surface"
  | Some b -> begin
    match Explore.same_edp_higher_vt s ~like:b with
    | Some c ->
      Alcotest.(check bool) "higher VT" true (c.Explore.vt > b.Explore.vt);
      Alcotest.(check bool) "similar EDP" true
        (Float.abs (c.Explore.value -. b.Explore.value) <= 0.25 *. b.Explore.value)
    | None -> () (* a collapsed grid may legitimately have no point C *)
  end

let test_edp_ln_units () =
  (* 22.7 fJ-ps (the paper's point A) must map to ln(aJ-ps) ~ 10.03,
     confirming the Fig 3(b) contour-label convention. *)
  let p =
    {
      Explore.vdd = 0.3;
      vt = 0.06;
      frequency = 3.3e9;
      edp = 22.7e-27;
      snm = 0.09;
    }
  in
  approx ~eps:0.01 "ln(aJ-ps) convention" 10.03 (Explore.edp_ln_aj_ps p)

let late_extra =
  [
    Alcotest.test_case "spice unknown node" `Quick test_spice_unknown_node;
    Alcotest.test_case "explore point C" `Quick test_explore_point_c_logic;
    Alcotest.test_case "EDP contour units" `Quick test_edp_ln_units;
  ]

let suite = suite @ late_extra
