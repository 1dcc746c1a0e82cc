(* Tests for the core multi-scale layer, using the synthetic fast table so
   no quantum simulation runs in the unit suite. *)

open Support

let table = synthetic_table ()

let test_intrinsic_polarity_mirror () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0.1 table in
  let pfet = Gnr_model.intrinsic ~polarity:Gnr_model.P_type ~vt_shift:0.1 table in
  List.iter
    (fun (vgs, vds) ->
      approx_rel ~rel:1e-12 "p mirrors n"
        (-.nfet.Fet_model.id ~vgs ~vds)
        (pfet.Fet_model.id ~vgs:(-.vgs) ~vds:(-.vds)))
    [ (0.4, 0.4); (0.1, 0.3); (0.6, 0.05) ]

let test_negative_vds_exchange () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  (* I(vgs, -vds) = -I(vgs + vds, vds) for a source/drain-symmetric
     device (our tables are queried with the exchanged bias). *)
  let direct = nfet.Fet_model.id ~vgs:0.3 ~vds:(-0.2) in
  let exchanged = -.nfet.Fet_model.id ~vgs:0.5 ~vds:0.2 in
  approx_rel ~rel:1e-12 "exchange" exchanged direct

let test_vt_shift_moves_curve () =
  let base = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  let shifted = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0.2 table in
  approx_rel ~rel:1e-12 "rigid shift"
    (base.Fet_model.id ~vgs:0.6 ~vds:0.4)
    (shifted.Fet_model.id ~vgs:0.4 ~vds:0.4)

let test_caps_nonnegative () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  List.iter
    (fun (vgs, vds) ->
      Alcotest.(check bool) "cgs >= 0" true (nfet.Fet_model.cgs ~vgs ~vds >= 0.);
      Alcotest.(check bool) "cgd >= 0" true (nfet.Fet_model.cgd ~vgs ~vds >= 0.))
    [ (0., 0.1); (0.4, 0.4); (0.8, 0.1); (-0.2, 0.6); (0.3, -0.3) ]

let test_array_composition () =
  let single = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  let quad =
    Gnr_model.array_fet ~polarity:Gnr_model.N_type ~vt_shift:0.
      [ table; table; table; table ]
  in
  approx_rel ~rel:1e-12 "4x current"
    (4. *. single.Fet_model.id ~vgs:0.5 ~vds:0.4)
    (quad.Fet_model.id ~vgs:0.5 ~vds:0.4)

let test_vt_nominal_extraction () =
  (* The synthetic electron branch turns on near vg0 + vd/2 + ...; the
     extracted threshold must land in a physically sensible window and be
     consistent with shift_for_vt. *)
  let vt = Gnr_model.vt_nominal table in
  Alcotest.(check bool) "vt in range" true (vt > 0.05 && vt < 0.6);
  approx ~eps:1e-12 "shift identity" (vt -. 0.13) (Gnr_model.shift_for_vt table 0.13)

let test_default_extrinsic_values () =
  let e = Gnr_model.default_extrinsic () in
  (* 0.05 aF/nm x 40 nm = 2 aF; contacts 10k. *)
  approx_rel ~rel:1e-9 "cgs_e" 2e-18 e.Gnr_model.cgs_e;
  approx "rs" 10e3 e.Gnr_model.rs

let pair ?(vt = 0.13) () = Explore.pair_at table ~vt

let test_cells_vtc_rails () =
  let v = Cells.vtc ~pair:(pair ()) ~vdd:0.4 ~n:31 () in
  Alcotest.(check bool) "inverts" true (v.Snm.vout.(0) > v.Snm.vout.(30));
  Alcotest.(check bool) "high level" true (v.Snm.vout.(0) > 0.3);
  Alcotest.(check bool) "low level" true (v.Snm.vout.(30) < 0.1)

let test_inverter_metrics_sane () =
  let m = Metrics.inverter_metrics ~pair:(pair ()) ~vdd:0.4 () in
  Alcotest.(check bool) "tp > 0" true (m.Metrics.tp > 0.);
  Alcotest.(check bool) "tp_lh and tp_hl within 10x" true
    (m.Metrics.tp_lh /. m.Metrics.tp_hl < 10. && m.Metrics.tp_hl /. m.Metrics.tp_lh < 10.);
  Alcotest.(check bool) "snm in (0, vdd/2]" true (m.Metrics.snm > 0. && m.Metrics.snm <= 0.2);
  Alcotest.(check bool) "static power positive" true (m.Metrics.p_static > 0.);
  Alcotest.(check bool) "switching energy positive" true (m.Metrics.e_switch > 0.)

let test_ro_formulas () =
  let m = Metrics.inverter_metrics ~pair:(pair ()) ~vdd:0.4 () in
  let f = Metrics.ro_frequency m ~stages:15 in
  approx_rel ~rel:1e-12 "f = 1/(2 N tp)" (1. /. (30. *. m.Metrics.tp)) f;
  let edp = Metrics.edp m ~stages:15 in
  Alcotest.(check bool) "edp positive" true (edp > 0.);
  approx_rel ~rel:1e-12 "dynamic power" (m.Metrics.e_switch *. f)
    (Metrics.dynamic_power m ~frequency:f)

let test_ring_oscillates () =
  let stages = Array.make 3 (pair ()) in
  match Metrics.ring_metrics ~stages ~vdd:0.4 ~cycles:10. () with
  | Some r ->
    Alcotest.(check bool) "frequency positive" true (r.Metrics.frequency > 0.);
    Alcotest.(check bool) "total >= dynamic" true
      (r.Metrics.p_total >= r.Metrics.p_dynamic -. 1e-18)
  | None -> Alcotest.fail "3-stage ring failed to oscillate"

let test_ring_validation () =
  check_raises_invalid "even ring" (fun () ->
      ignore (Cells.ring_oscillator ~stages:(Array.make 4 (pair ())) ~vdd:0.4 ()))

let test_explore_surface () =
  let s =
    Explore.surface ~stages:15
      ~vdds:[| 0.3; 0.4; 0.5 |]
      ~vts:[| 0.08; 0.13; 0.2 |]
      table
  in
  let m = Explore.min_edp s in
  Alcotest.(check bool) "min edp on grid" true
    (Array.exists (fun v -> v = m.Explore.vdd) s.Explore.vdds);
  (* Frequency increases with VDD at fixed VT. *)
  let f_low = s.Explore.points.(0).(1).Explore.frequency in
  let f_high = s.Explore.points.(2).(1).Explore.frequency in
  Alcotest.(check bool) "faster at higher vdd" true (f_high > f_low);
  let field = Explore.field s Explore.Frequency in
  approx ~eps:1e-12 "field extraction" f_low field.(0).(1)

let test_explore_contours_and_points () =
  let s =
    Explore.surface ~stages:15
      ~vdds:(Vec.linspace 0.25 0.55 4)
      ~vts:(Vec.linspace 0.05 0.25 4)
      table
  in
  let target =
    (* median frequency on the surface: guaranteed to have a contour *)
    let all =
      Array.to_list s.Explore.points
      |> List.concat_map (fun row ->
             Array.to_list (Array.map (fun p -> p.Explore.frequency) row))
    in
    List.nth (List.sort compare all) (List.length all / 2)
  in
  let cs = Explore.contours s Explore.Frequency ~level:target in
  Alcotest.(check bool) "some contour found" true (List.length cs > 0);
  match Explore.min_edp_at_frequency s ~ghz:(target /. 1e9) with
  | Some p -> Alcotest.(check bool) "edp positive" true (p.Explore.value > 0.)
  | None -> Alcotest.fail "no point on the frequency contour"

(* Bit pins of the warm path: Explore.pair_at, then the six
   Metrics.inverter_metrics fields in record order (tp_lh, tp_hl, tp,
   p_static, e_switch, snm) and an 11-point Cells.vtc sweep.  The circuit
   engine and the device models must reproduce every bit; only an
   intended numerical change may regenerate these values. *)
let warm_path_pins =
  [
    ( 0.13,
      0.4,
      [| 0x3d934cdc817bcd60L; 0x3d934cdc817b2660L; 0x3d934cdc817b79e0L;
         0x3e6c7b92a351c8caL; 0x3c75391701afa9f4L; 0x3fbb7f282f502aacL |],
      [| 0x3fd9440109525cbbL; 0x3fd8c7e7658b4560L; 0x3fd82045dfaca488L;
         0x3fd751ac7b7d9480L; 0x3fd5e9df8632ab27L; 0x3fcfd98a96778ab2L;
         0x3fad7dd09b377395L; 0x3fa23f68f0e028d4L; 0x3f97953b9ecf513bL;
         0x3f8a364681ca8747L; 0x3f75662411cf3829L |] );
    ( 0.25,
      0.2,
      [| 0x3da3f54640bf0c18L; 0x3da3f55473594840L; 0x3da3f54d5a0c2a2cL;
         0x3e4097f53f8bf141L; 0x3c569c86b8569cf0L; 0x3fa04ff2ea0429b2L |],
      [| 0x3fc9253c01e18d7dL; 0x3fc87d21887850e2L; 0x3fc7535ecf9e1a87L;
         0x3fc59ea2413e82c8L; 0x3fc361d9f4a85fa8L; 0x3fb9999999999998L;
         0x3fa8defe93c4e7c6L; 0x3f9fd7bac2d8b695L; 0x3f9231d64fdbf892L;
         0x3f81c78112148b81L; 0x3f6d1765ee030748L |] );
  ]

let test_warm_path_bits () =
  (* An injected Newton failure takes a rescue rung and moves the bits. *)
  skip_if_fault_armed [ "mna.newton" ];
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (vt, vdd, metrics, vtc) ->
      let name = Printf.sprintf "vt %g, vdd %g" vt vdd in
      let pair = pair ~vt () in
      let m = Metrics.inverter_metrics ~pair ~vdd () in
      Alcotest.(check (array int64))
        (name ^ ": inverter metrics")
        metrics
        (bits
           Metrics.[| m.tp_lh; m.tp_hl; m.tp; m.p_static; m.e_switch; m.snm |]);
      let v = Cells.vtc ~pair ~vdd ~n:11 () in
      Alcotest.(check (array int64)) (name ^ ": vtc") vtc (bits v.Snm.vout))
    warm_path_pins

let test_variation_pct () =
  approx "pct up" 50. (Variation.pct ~nominal:2. 3.);
  approx "pct down" (-25.) (Variation.pct ~nominal:4. 3.);
  approx "pct zero nominal" 0. (Variation.pct ~nominal:0. 5.)

let suite =
  [
    Alcotest.test_case "polarity mirror" `Quick test_intrinsic_polarity_mirror;
    Alcotest.test_case "negative vds exchange" `Quick test_negative_vds_exchange;
    Alcotest.test_case "vt shift" `Quick test_vt_shift_moves_curve;
    Alcotest.test_case "caps nonnegative" `Quick test_caps_nonnegative;
    Alcotest.test_case "array composition" `Quick test_array_composition;
    Alcotest.test_case "vt extraction" `Quick test_vt_nominal_extraction;
    Alcotest.test_case "extrinsic defaults" `Quick test_default_extrinsic_values;
    Alcotest.test_case "vtc rails" `Quick test_cells_vtc_rails;
    Alcotest.test_case "inverter metrics" `Quick test_inverter_metrics_sane;
    Alcotest.test_case "ro formulas" `Quick test_ro_formulas;
    Alcotest.test_case "ring oscillates" `Quick test_ring_oscillates;
    Alcotest.test_case "ring validation" `Quick test_ring_validation;
    Alcotest.test_case "explore surface" `Quick test_explore_surface;
    Alcotest.test_case "explore contours" `Quick test_explore_contours_and_points;
    Alcotest.test_case "warm path bits" `Quick test_warm_path_bits;
    Alcotest.test_case "variation pct" `Quick test_variation_pct;
  ]
