(* Tests for the circuit substrate: models, netlists, the MNA engine,
   measurements and SNM. *)

open Support

let resistor_fet name r =
  (* A linear "FET": drain current = vds / r regardless of vgs. *)
  {
    Fet_model.name;
    id = (fun ~vgs:_ ~vds -> vds /. r);
    cgs = (fun ~vgs:_ ~vds:_ -> 0.);
    cgd = (fun ~vgs:_ ~vds:_ -> 0.);
  }

let test_fet_model_parallel () =
  let m = resistor_fet "r" 1e3 in
  let p = Fet_model.parallel "pair" [ m; m; m ] in
  approx ~eps:1e-15 "parallel currents add" (3. *. 0.5 /. 1e3)
    (p.Fet_model.id ~vgs:0. ~vds:0.5)

let test_netlist_validation () =
  let net = Netlist.create () in
  let a = Netlist.fresh_node net in
  check_raises_invalid "unknown node" (fun () ->
      Netlist.add net (Netlist.Resistor { a; b = 99; ohms = 1. }));
  check_raises_invalid "bad resistance" (fun () ->
      Netlist.add net (Netlist.Resistor { a; b = Netlist.gnd; ohms = 0. }));
  Netlist.vdc net a 1.;
  check_raises_invalid "double drive" (fun () -> Netlist.vdc net a 2.);
  check_raises_invalid "drive ground" (fun () -> Netlist.vdc net Netlist.gnd 1.);
  Alcotest.(check bool) "driven" true (Netlist.is_driven net a)

let test_dc_divider () =
  let net = Netlist.create () in
  let top = Netlist.fresh_node net in
  let mid = Netlist.fresh_node net in
  Netlist.vdc net top 1.;
  Netlist.add net (Netlist.Resistor { a = top; b = mid; ohms = 1e3 });
  Netlist.add net (Netlist.Resistor { a = mid; b = Netlist.gnd; ohms = 3e3 });
  let x = Mna.solve_dc net in
  approx ~eps:1e-9 "divider" 0.75 x.(mid);
  approx ~eps:1e-12 "source current" (1. /. 4e3) (Mna.dc_current net x top)

let test_dc_nonlinear () =
  (* Diode-connected exponential device in series with a resistor. *)
  let diode =
    {
      Fet_model.name = "diode";
      id = (fun ~vgs:_ ~vds -> 1e-12 *. (exp (vds /. 0.026) -. 1.));
      cgs = (fun ~vgs:_ ~vds:_ -> 0.);
      cgd = (fun ~vgs:_ ~vds:_ -> 0.);
    }
  in
  let net = Netlist.create () in
  let top = Netlist.fresh_node net in
  let mid = Netlist.fresh_node net in
  Netlist.vdc net top 1.;
  Netlist.add net (Netlist.Resistor { a = top; b = mid; ohms = 10e3 });
  Netlist.add net (Netlist.Fet { g = mid; d = mid; s = Netlist.gnd; model = diode });
  let x = Mna.solve_dc net in
  let v = x.(mid) in
  let i_r = (1. -. v) /. 10e3 in
  let i_d = 1e-12 *. (exp (v /. 0.026) -. 1.) in
  approx_rel ~rel:1e-6 "KCL at the diode node" i_r i_d;
  Alcotest.(check bool) "sensible diode drop" true (v > 0.3 && v < 0.7)

let test_transient_rc () =
  (* RC low-pass step response: v(t) = 1 - exp(-t/RC). *)
  let r = 1e3 and c = 1e-12 in
  let net = Netlist.create () in
  let src = Netlist.fresh_node net in
  let out = Netlist.fresh_node net in
  Netlist.vsource net src (fun t -> if t > 0. then 1. else 0.);
  Netlist.add net (Netlist.Resistor { a = src; b = out; ohms = r });
  Netlist.add net (Netlist.Capacitor { a = out; b = Netlist.gnd; farads = c });
  let rc = r *. c in
  let wf = Mna.transient net ~t_stop:(5. *. rc) ~dt:(rc /. 100.) in
  let trace = Mna.node_trace wf out in
  let times = wf.Mna.times in
  Array.iteri
    (fun k t ->
      if t > 0. then begin
        let expected = 1. -. exp (-.t /. rc) in
        approx ~eps:5e-3 (Printf.sprintf "rc response at %g" t) expected trace.(k)
      end)
    times

let test_transient_source_current () =
  (* The same RC: source current = (v_src - v_out)/R; check against the
     reconstruction helper. *)
  let r = 1e3 and c = 1e-12 in
  let net = Netlist.create () in
  let src = Netlist.fresh_node net in
  let out = Netlist.fresh_node net in
  Netlist.vsource net src (fun t -> if t > 0. then 1. else 0.);
  Netlist.add net (Netlist.Resistor { a = src; b = out; ohms = r });
  Netlist.add net (Netlist.Capacitor { a = out; b = Netlist.gnd; farads = c });
  let rc = r *. c in
  let wf = Mna.transient net ~t_stop:(3. *. rc) ~dt:(rc /. 50.) in
  let i = Mna.source_current net wf src in
  let out_t = Mna.node_trace wf out in
  Array.iteri
    (fun k ik ->
      let expected = (wf.Mna.voltages.(k).(src) -. out_t.(k)) /. r in
      approx ~eps:1e-6 "source current" expected ik)
    i

(* Smooth analytic devices for engine-cost checks: an EKV-style channel
   (source/drain symmetric, valid in every region) with gate
   capacitances that rise through threshold. *)
let ekv_current vgs vds =
  let f u =
    let l = Float.log1p (Float.exp (0.5 *. u)) in
    l *. l
  in
  let vp = (vgs -. 0.2) /. 1.3 and phi = 0.0259 in
  1e-6 *. (f (vp /. phi) -. f ((vp -. vds) /. phi))

let ekv_gate_cap vgs = 1e-17 *. (0.5 +. (0.5 /. (1. +. Float.exp (-.(vgs -. 0.2) /. 0.05))))

let ekv_nfet =
  {
    Fet_model.name = "ekv-n";
    id = (fun ~vgs ~vds -> ekv_current vgs vds);
    cgs = (fun ~vgs ~vds:_ -> ekv_gate_cap vgs);
    cgd = (fun ~vgs ~vds:_ -> 0.5 *. ekv_gate_cap vgs);
  }

let ekv_pfet =
  {
    Fet_model.name = "ekv-p";
    id = (fun ~vgs ~vds -> -.ekv_current (-.vgs) (-.vds));
    cgs = (fun ~vgs ~vds:_ -> ekv_gate_cap (-.vgs));
    cgd = (fun ~vgs ~vds:_ -> 0.5 *. ekv_gate_cap (-.vgs));
  }

(* Newton work on a fixed FO4 transient (input inverter, DUT and four
   gate loads: 12 FETs).  The iteration count is the engine's
   convergence path and must not move.  Each Newton iteration assembles the Jacobian with 4
   drain-current calls per FET (value and three finite-difference
   partials); each line-search trial needs the residual only, 1 call per
   FET.  This transient takes 382 iterations and 418 trials: 48 x 382 +
   12 x 418 = 23,352 calls (a full assembly per trial would make
   48 x (382 + 418) = 38,400).  Allocation per iteration measured 1,215
   minor words with obs on and off, four in five of them boxed by the
   model closures; the bound is 1.5x that. *)
let test_newton_work () =
  skip_if_fault_armed [ "mna.newton" ];
  let calls = ref 0 in
  let counted (m : Fet_model.t) =
    { m with id = (fun ~vgs ~vds -> incr calls; m.id ~vgs ~vds) }
  in
  let pair =
    {
      Cells.nfet = counted ekv_nfet;
      pfet = counted ekv_pfet;
      ext = { Gnr_model.rs = 5e3; rd = 5e3; cgs_e = 2e-18; cgd_e = 2e-18 };
    }
  in
  let vdd = 0.5 in
  let wave t =
    if t <= 20e-12 || t >= 130e-12 then 0.
    else if t <= 30e-12 then vdd *. (t -. 20e-12) /. 10e-12
    else if t <= 120e-12 then vdd
    else vdd *. (130e-12 -. t) /. 10e-12
  in
  let run () =
    let b = Cells.inverter_fo4 ~pair ~vdd ~wave () in
    ignore (Mna.transient b.Cells.net ~t_stop:240e-12 ~dt:2e-12 : Mna.waveform)
  in
  with_obs @@ fun () ->
  let iters0 = Obs.counter_value "mna.newton_iterations" in
  run ();
  let iters = Obs.counter_value "mna.newton_iterations" - iters0 in
  Alcotest.(check int) "newton iterations" 382 iters;
  Alcotest.(check int) "drain-current calls" 23_352 !calls;
  let bound = 1.5 *. 1_215. in
  List.iter
    (fun obs ->
      Obs.set_enabled Obs.global obs;
      let per_iter = minor_words run /. float_of_int iters in
      if per_iter > bound then
        Alcotest.failf "obs %b: %.0f minor words per Newton iteration (bound %.0f)" obs
          per_iter bound)
    [ true; false ]

let test_measure_crossings_delay () =
  let times = Vec.linspace 0. 10. 101 in
  let input = Array.map (fun t -> if t >= 2. then 1. else 0.) times in
  let output = Array.map (fun t -> if t >= 3.5 then 0. else 1.) times in
  (match Measure.delay_50 ~times ~input ~output ~vdd:1. ~input_rising:true with
  | Some d -> approx ~eps:0.2 "delay" 1.5 d
  | None -> Alcotest.fail "no delay measured");
  let sine = Array.map (fun t -> sin (2. *. Float.pi *. t /. 2.5)) times in
  match Measure.period ~times ~values:sine ~level:0. with
  | Some p -> approx ~eps:0.15 "period" 2.5 p
  | None -> Alcotest.fail "no period measured"

let test_measure_average_energy () =
  let times = Vec.linspace 0. 1. 101 in
  let values = Array.map (fun t -> 2. *. t) times in
  approx ~eps:1e-9 "average of ramp" 1. (Measure.average ~times ~values ~t_from:0.);
  let current = Array.map (fun _ -> 1e-6) times in
  approx ~eps:1e-12 "energy" 2e-6
    (Measure.energy ~times ~current ~volts:2. ~t_from:0. ~t_to:1.)

let ideal_vtc ?(slope = 200.) ?(vm = 0.5) vdd n =
  (* A steep but smooth inverter VTC. *)
  let vin = Vec.linspace 0. vdd n in
  let vout =
    Array.map (fun v -> vdd /. (1. +. exp (slope *. (v -. (vm *. vdd)))) ) vin
  in
  { Snm.vin; vout }

let test_snm_ideal () =
  let v = ideal_vtc 1. 201 in
  let snm = Snm.snm v v in
  (* A very steep symmetric inverter approaches VDD/2. *)
  Alcotest.(check bool) "close to VDD/2" true (snm > 0.43 && snm <= 0.5)

let test_snm_degraded () =
  (* A low-gain inverter has a visibly smaller SNM. *)
  let vdd = 1. in
  let vin = Vec.linspace 0. vdd 201 in
  let vout = Array.map (fun v -> vdd *. (1. -. (v /. vdd))) vin in
  let weak = { Snm.vin; vout } in
  let snm_weak = Snm.snm weak weak in
  Alcotest.(check bool) "unity-gain inverter has ~zero SNM" true (snm_weak < 0.05)

let test_snm_asymmetric_lobes () =
  (* Two inverters with different switching thresholds make the two eyes
     unequal (a latch built from identical shifted inverters is still
     diagonal-symmetric, so the asymmetry needs distinct VTCs). *)
  let v1 = ideal_vtc ~vm:0.3 1. 201 in
  let v2 = ideal_vtc ~vm:0.5 1. 201 in
  let a, b = Snm.lobes v1 v2 in
  Alcotest.(check bool) "lobes differ" true (Float.abs (a -. b) > 0.05);
  approx ~eps:1e-12 "snm is the min lobe" (Float.max 0. (Float.min a b))
    (Snm.snm v1 v2)

let test_butterfly_shape () =
  let v = ideal_vtc 1. 51 in
  let c1, c2 = Snm.butterfly v v in
  Alcotest.(check int) "branch sizes" (List.length c1) (List.length c2);
  (* Branch 2 is the mirror of branch 1. *)
  let x1, y1 = List.nth c1 10 in
  let x2, y2 = List.nth c2 10 in
  approx ~eps:1e-12 "mirrored" x1 y2;
  approx ~eps:1e-12 "mirrored'" y1 x2

let suite =
  [
    Alcotest.test_case "fet model composition" `Quick test_fet_model_parallel;
    Alcotest.test_case "netlist validation" `Quick test_netlist_validation;
    Alcotest.test_case "dc divider" `Quick test_dc_divider;
    Alcotest.test_case "dc nonlinear" `Quick test_dc_nonlinear;
    Alcotest.test_case "transient rc" `Quick test_transient_rc;
    Alcotest.test_case "transient source current" `Quick test_transient_source_current;
    Alcotest.test_case "newton work on fo4" `Quick test_newton_work;
    Alcotest.test_case "measure crossings/delay/period" `Quick test_measure_crossings_delay;
    Alcotest.test_case "measure average/energy" `Quick test_measure_average_energy;
    Alcotest.test_case "snm ideal" `Quick test_snm_ideal;
    Alcotest.test_case "snm degraded" `Quick test_snm_degraded;
    Alcotest.test_case "snm asymmetric lobes" `Quick test_snm_asymmetric_lobes;
    Alcotest.test_case "butterfly shape" `Quick test_butterfly_shape;
  ]
