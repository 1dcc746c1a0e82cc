type inverter_metrics = {
  tp_lh : float;
  tp_hl : float;
  tp : float;
  p_static : float;
  e_switch : float;
  snm : float;
}

let input_cap (pair : Cells.pair) ~vdd =
  let mid m = (m.Fet_model.cgs ~vgs:(vdd /. 2.) ~vds:(vdd /. 2.))
              +. (m.Fet_model.cgd ~vgs:(vdd /. 2.) ~vds:(vdd /. 2.)) in
  mid pair.Cells.nfet +. mid pair.Cells.pfet
  +. (2. *. (pair.Cells.ext.Gnr_model.cgs_e +. pair.Cells.ext.Gnr_model.cgd_e))

(* Crude RC estimate used only to size the transient window and step. *)
let time_scale (pair : Cells.pair) ~fanout ~vdd =
  let c_load = input_cap pair ~vdd *. float_of_int (fanout + 1) in
  let i_on =
    Float.max 1e-12
      (Float.max
         (Float.abs (pair.Cells.nfet.Fet_model.id ~vgs:vdd ~vds:(vdd /. 2.)))
         (Float.abs (pair.Cells.pfet.Fet_model.id ~vgs:(-.vdd) ~vds:(-.vdd /. 2.))))
  in
  let tau = c_load *. vdd /. i_on in
  (* Contact RC floor. *)
  let rc = (pair.Cells.ext.Gnr_model.rs +. pair.Cells.ext.Gnr_model.rd) *. c_load in
  Float.max 1e-15 (Float.max tau rc)

(* The characterization bench is a fanout of four copies of the DUT. *)
let fanout = 4

let rec measure_with_tau ~pair ~vdd ~tau ~attempt ~in_level ~out_level () =
  let tr = 2. *. tau in
  let t1 = 5. *. tau in
  let plateau = 25. *. tau in
  let t2 = t1 +. tr +. plateau in
  let t_end = t2 +. tr +. plateau in
  let wave t =
    if t <= t1 then 0.
    else if t <= t1 +. tr then vdd *. (t -. t1) /. tr
    else if t <= t2 then vdd
    else if t <= t2 +. tr then vdd *. (1. -. ((t -. t2) /. tr))
    else 0.
  in
  let bench = Cells.inverter_fo4 ~pair ~fanout ~vdd ~wave () in
  let dt = tau /. 15. in
  let wf = Mna.transient bench.Cells.net ~t_stop:t_end ~dt in
  let times = wf.Mna.times in
  let vin = Mna.node_trace wf bench.Cells.input in
  let vout = Mna.node_trace wf bench.Cells.output in
  (* Source edge 1 rising makes the DUT input fall.  Thresholds are the
     midpoints of the cell's actual static levels so heavily degraded
     variants (whose outputs no longer straddle VDD/2) still measure. *)
  let d_lh =
    Measure.delay_levels ~times ~input:vin ~output:vout ~in_level ~out_level
      ~input_rising:false
  in
  let d_hl =
    Measure.delay_levels ~times ~input:vin ~output:vout ~in_level ~out_level
      ~input_rising:true
  in
  match (d_lh, d_hl) with
  | Some tp_lh, Some tp_hl -> Some (bench, wf, tp_lh, tp_hl, t1, t2, t_end)
  | None, _ | _, None ->
    if attempt >= 3 then None
    else
      measure_with_tau ~pair ~vdd ~tau:(tau *. 4.) ~attempt:(attempt + 1)
        ~in_level ~out_level ()

let inverter_metrics ~pair ~vdd () =
  (* Static operating points at the two input states (source low/high):
     powers for the leakage figure, node levels for the delay
     thresholds. *)
  let static_bench state =
    let wave _ = if state then vdd else 0. in
    let b = Cells.inverter_fo4 ~pair ~fanout ~vdd ~wave () in
    let dc = Mna.solve_dc b.Cells.net in
    ( Float.abs (Mna.dc_current b.Cells.net dc b.Cells.vdd_node) *. vdd,
      dc.(b.Cells.input),
      dc.(b.Cells.output) )
  in
  let p0, vin0, vout0 = static_bench false and p1, vin1, vout1 = static_bench true in
  (* The bench holds two inverters (driver + DUT) in opposite states, so
     its leakage is twice the per-inverter state average. *)
  let p_static = 0.25 *. (p0 +. p1) in
  let in_level = 0.5 *. (vin0 +. vin1) in
  let out_level = 0.5 *. (vout0 +. vout1) in
  let tau = time_scale pair ~fanout ~vdd in
  match measure_with_tau ~pair ~vdd ~tau ~attempt:0 ~in_level ~out_level () with
  | None -> failwith "Metrics.inverter_metrics: no output transition observed"
  | Some (bench, wf, tp_lh, tp_hl, t1, t2, t_end) ->
    let times = wf.Mna.times in
    let i_vdd = Mna.source_current bench.Cells.net wf bench.Cells.vdd_node in
    (* Subtract the state-dependent leakage so long plateaus do not bury
       the switching energy: source low -> DUT input high (state 1
       static power applies at the *bench* level because driver + DUT +
       loads are all included in p0/p1). *)
    let mid_a = t1 +. tau and mid_b = t2 +. tau in
    let e_total = Measure.energy ~times ~current:i_vdd ~volts:1. ~t_from:0. ~t_to:t_end in
    let e_total = e_total *. vdd in
    let e_static =
      (p0 *. mid_a) +. (p1 *. (mid_b -. mid_a)) +. (p0 *. (t_end -. mid_b))
    in
    let e_switch = Float.max 0. (e_total -. e_static) in
    let v = Cells.vtc ~pair ~vdd () in
    let snm = Snm.snm v v in
    {
      tp_lh;
      tp_hl;
      tp = 0.5 *. (tp_lh +. tp_hl);
      p_static;
      e_switch;
      snm;
    }

let ro_frequency m ~stages = 1. /. (2. *. float_of_int stages *. m.tp)

let dynamic_power m ~frequency = m.e_switch *. frequency

let edp m ~stages =
  let n = float_of_int stages in
  let f = ro_frequency m ~stages in
  let period = 1. /. f in
  let p_total = n *. ((m.e_switch *. f) +. m.p_static) in
  p_total *. period *. period

type ring_metrics = {
  frequency : float;
  p_total : float;
  p_static_ring : float;
  p_dynamic : float;
}

let ring_metrics ?(dummy_loads = 3) ?(cycles = 8.) ~stages ~vdd () =
  let n = Array.length stages in
  let ring = Cells.ring_oscillator ~stages ~dummy_loads ~vdd () in
  let dc = Mna.solve_dc ring.Cells.net in
  (* Perturb the metastable point to start the oscillation. *)
  let x0 = Array.copy dc in
  Array.iteri
    (fun i tap ->
      let delta = if i mod 2 = 0 then 0.25 *. vdd else -0.25 *. vdd in
      x0.(tap) <- Float.max 0. (Float.min vdd (x0.(tap) +. delta)))
    ring.Cells.taps;
  (* Window sizing from the single-stage estimate. *)
  let tau = time_scale stages.(0) ~fanout:(dummy_loads + 1) ~vdd in
  let period_est = 2. *. float_of_int n *. 3. *. tau in
  let t_stop = cycles *. period_est in
  let dt = tau /. 8. in
  let wf = Mna.transient ~x0 ring.Cells.net ~t_stop ~dt in
  let times = wf.Mna.times in
  let tap0 = Mna.node_trace wf ring.Cells.taps.(0) in
  (* Discard the start-up transient before measuring. *)
  let t_settle = 0.4 *. t_stop in
  let keep_late arr =
    let out = ref [] in
    Array.iteri (fun k v -> if times.(k) >= t_settle then out := v :: !out) arr;
    Array.of_list (List.rev !out)
  in
  let times_l = keep_late times in
  let tap_l = keep_late tap0 in
  match Measure.period ~times:times_l ~values:tap_l ~level:(vdd /. 2.) with
  | None -> None
  | Some period ->
    let frequency = 1. /. period in
    let i_vdd = Mna.source_current ring.Cells.net wf ring.Cells.vdd_node in
    let i_l = keep_late i_vdd in
    let p_total = Measure.average ~times:times_l ~values:i_l ~t_from:t_settle *. vdd in
    (* DC leakage of one inverter per state, summed over stages (each
       stage spends half a period in each state). *)
    let p_static_ring =
      let single = stages.(0) in
      let wave_of state _ = if state then vdd else 0. in
      let p state =
        let b =
          Cells.inverter_fo4 ~pair:single ~fanout:dummy_loads ~vdd
            ~wave:(wave_of state) ()
        in
        let dc = Mna.solve_dc b.Cells.net in
        Float.abs (Mna.dc_current b.Cells.net dc b.Cells.vdd_node) *. vdd
      in
      (* The bench includes its driver; halve appropriately by measuring
         the bench delta between states... keep the simple stage-summed
         estimate: average of both states scaled to the stage count over
         the bench's two inverters. *)
      let avg = 0.5 *. (p false +. p true) in
      avg /. 2. *. float_of_int n
    in
    Some
      {
        frequency;
        p_total;
        p_static_ring;
        p_dynamic = Float.max 0. (p_total -. p_static_ring);
      }
