type sample = { frequency : float; p_dynamic : float; p_static : float }

type result = { nominal : sample; samples : sample array; quarantined : int }

(* Fault-injection site (docs/ROBUST.md): an armed campaign can fail
   individual samples so the quarantine accounting is exercisable without
   constructing a pathological device. *)
let fault_sample = Fault.site "montecarlo.sample"

let c_quarantined = Obs.Counter.make "robust.mc.quarantined"

(* The one definition of "this sample failed for a reason the study can
   survive": a typed solver error (injected faults among them).  The
   campaign engine (lib/campaign) quarantines on exactly the same
   predicate so the two statistical layers cannot drift apart. *)
let quarantineable = function Robust_error.Error _ -> true | _ -> false

(* The nine per-FET variants of the study. *)
let mc_widths = [| 9; 12; 15 |]

let mc_charges = [| -1.; 0.; 1. |]

let spec_of iw ic =
  { Variation.gnr_index = mc_widths.(iw); charge = mc_charges.(ic) }

(* Draw an index in {0,1,2} from the discretized normal: P(outer) =
   sigma_probability each. *)
let draw rng ~sigma_probability =
  let u = Rng.float rng in
  if u < sigma_probability then 0
  else if u > 1. -. sigma_probability then 2
  else 1

(* The sampling loop, separated from the expensive transient-backed
   [evaluate] so the quarantine policy is testable with a cheap stub.
   A sample whose evaluation fails with a typed solver error (an
   injected fault, or [Unrecovered] when no output transition shows)
   is dropped and counted — in [result.quarantined] and in the
   [robust.mc.quarantined] obs counter — instead of killing the whole
   study; the nominal evaluation stays fatal, since without it there is
   nothing to normalize against.  The random draw happens before the
   evaluation, so surviving samples see exactly the draw sequence they
   would in a fault-free run. *)
let run_with ~evaluate ~stages ~samples ~seed ~sigma_probability ~nominal_ids
    () =
  let nominal = evaluate (Array.make stages nominal_ids) in
  let rng = Rng.create seed in
  let quarantined = ref 0 in
  let kept = ref [] in
  for _ = 1 to samples do
    let ids =
      Array.init stages (fun _ ->
          let ni =
            (3 * draw rng ~sigma_probability) + draw rng ~sigma_probability
          in
          let pi =
            (3 * draw rng ~sigma_probability) + draw rng ~sigma_probability
          in
          (ni, pi))
    in
    match
      Fault.fail fault_sample;
      evaluate ids
    with
    | s -> kept := s :: !kept
    | exception e when quarantineable e ->
      incr quarantined;
      Obs.Counter.incr c_quarantined
  done;
  {
    nominal;
    samples = Array.of_list (List.rev !kept);
    quarantined = !quarantined;
  }

(* Fig 6's operating point, ring length and per-tail probability. *)
let op = Variation.point_b

let stages = 15

let sigma_probability = 0.1587

let run ?(samples = 2000) ?(seed = 42) () =
  (* Stage types are characterized on demand; all four GNRs of a FET
     carry the sampled anomaly (the paper's upper-limit scenario, which
     its own Monte Carlo discussion invokes through Table 4).
     [Variation.metrics_for] memoizes the transients across runs and
     tables; the input caps are cheap and kept for this run only. *)
  let specs ni pi = (spec_of (ni / 3) (ni mod 3), spec_of (pi / 3) (pi mod 3)) in
  let metrics ni pi =
    let n_spec, p_spec = specs ni pi in
    Variation.metrics_for ~op ~n_spec ~p_spec ~all_four:true
  in
  let cin =
    Array.init 9 (fun ni ->
        Array.init 9 (fun pi ->
            lazy
              (let n_spec, p_spec = specs ni pi in
               Metrics.input_cap
                 (Variation.pair_for ~op ~n_spec ~p_spec ~all_four:true ())
                 ~vdd:op.Variation.vdd)))
  in
  let evaluate stage_ids =
    let n = Array.length stage_ids in
    let tp_sum = ref 0. and p_stat = ref 0. and e_sum = ref 0. in
    for i = 0 to n - 1 do
      let ni, pi = stage_ids.(i) in
      let m = metrics ni pi in
      let next_ni, next_pi = stage_ids.((i + 1) mod n) in
      let c = Lazy.force cin.(ni).(pi) in
      let c_next = Lazy.force cin.(next_ni).(next_pi) in
      (* FO4 load: three dummies of the stage's own type plus the next
         stage's input; the characterized delay assumed four own-type
         loads. *)
      let load_corr = ((3. *. c) +. c_next) /. (4. *. c) in
      tp_sum := !tp_sum +. (m.Metrics.tp *. load_corr);
      e_sum := !e_sum +. (m.Metrics.e_switch *. load_corr);
      p_stat := !p_stat +. m.Metrics.p_static
    done;
    let period = 2. *. !tp_sum in
    let frequency = 1. /. period in
    { frequency; p_dynamic = !e_sum *. frequency; p_static = !p_stat }
  in
  let nominal_id = 4 (* width 12, charge 0 *) in
  run_with ~evaluate ~stages ~samples ~seed ~sigma_probability
    ~nominal_ids:(nominal_id, nominal_id) ()

let histograms r =
  let freq = Array.map (fun s -> s.frequency /. 1e9) r.samples in
  let pdyn = Array.map (fun s -> s.p_dynamic /. 1e-6) r.samples in
  let pstat = Array.map (fun s -> s.p_static /. 1e-6) r.samples in
  ( Stats.histogram ~bins:30 freq,
    Stats.histogram ~bins:30 pdyn,
    Stats.histogram ~bins:30 pstat )
