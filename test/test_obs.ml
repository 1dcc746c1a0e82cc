(* Property tests for the gnrfet_obs observability layer: counter
   monotonicity, span nesting (including exception unwinding),
   snapshot/reset round-trips, JSON determinism, and the central
   guarantee that disabling the registry changes NO numerical result. *)

open Support

let fresh () = Obs.create ~enabled:true ()

(* --- counters ------------------------------------------------------- *)

let prop_counter_monotone =
  qtest ~count:200 "counter value is the sum of non-negative deltas; monotone"
    QCheck.(list (int_range (-50) 50))
    (fun deltas ->
      let obs = fresh () in
      let c = Obs.Counter.make ~obs "prop.counter" in
      let expected = ref 0 in
      let prev = ref 0 in
      List.iter
        (fun d ->
          Obs.Counter.add c d;
          if d >= 0 then expected := !expected + d;
          let v = Obs.Counter.value c in
          if v < !prev then QCheck.Test.fail_reportf "counter decreased";
          prev := v)
        deltas;
      Obs.Counter.value c = !expected)

let test_counter_interning () =
  let obs = fresh () in
  let a = Obs.Counter.make ~obs "shared.name" in
  let b = Obs.Counter.make ~obs "shared.name" in
  Obs.Counter.incr a;
  Obs.Counter.add b 2;
  Alcotest.(check int) "two makes share one cell" 3 (Obs.Counter.value a);
  Alcotest.(check int) "by-name readback" 3 (Obs.counter_value ~obs "shared.name");
  Alcotest.(check int) "unregistered name reads 0" 0
    (Obs.counter_value ~obs "never.registered")

let test_disabled_counter_noop () =
  let obs = Obs.create ~enabled:false () in
  let c = Obs.Counter.make ~obs "disabled.counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "disabled ops count nothing" 0 (Obs.Counter.value c);
  Obs.set_enabled obs true;
  Obs.Counter.incr c;
  Alcotest.(check int) "re-enable resumes from retained value" 1
    (Obs.Counter.value c)

(* --- spans ---------------------------------------------------------- *)

exception Probe

let test_span_nesting () =
  let obs = fresh () in
  Alcotest.(check int) "depth 0 outside" 0 (Obs.Span.depth obs);
  let inner_stack = ref [] in
  Obs.Span.run ~obs "outer" (fun () ->
      Obs.Span.run ~obs "inner" (fun () ->
          inner_stack := Obs.Span.stack obs;
          Alcotest.(check int) "depth 2 inside" 2 (Obs.Span.depth obs)));
  Alcotest.(check (list string)) "stack innermost first" [ "inner"; "outer" ]
    !inner_stack;
  Alcotest.(check int) "depth 0 after" 0 (Obs.Span.depth obs);
  (* The span aggregates into a same-named timer. *)
  let snap = Obs.snapshot ~obs () in
  let outer = List.assoc "outer" snap.Obs.snap_timers in
  Alcotest.(check int) "span recorded one timer call" 1 outer.Obs.t_calls

let test_span_exception_unwinds () =
  let obs = fresh () in
  (match
     Obs.Span.run ~obs "outer" (fun () ->
         Obs.Span.run ~obs "boom" (fun () -> raise Probe))
   with
  | exception Probe -> ()
  | () -> Alcotest.fail "expected Probe to propagate");
  Alcotest.(check int) "depth back to 0 after exception" 0 (Obs.Span.depth obs);
  Alcotest.(check (list string)) "stack empty after exception" []
    (Obs.Span.stack obs);
  (* Both spans closed: their timers recorded despite the raise. *)
  let snap = Obs.snapshot ~obs () in
  List.iter
    (fun name ->
      let t = List.assoc name snap.Obs.snap_timers in
      Alcotest.(check int) (name ^ " closed once") 1 t.Obs.t_calls)
    [ "outer"; "boom" ]

let prop_span_depth_balanced =
  (* Arbitrary nesting programs (depth-bounded) always leave depth 0,
     with or without an exception escaping from the innermost level. *)
  qtest ~count:100 "span depth balanced for arbitrary nesting"
    QCheck.(pair (int_range 0 8) bool)
    (fun (depth, raise_inner) ->
      let obs = fresh () in
      let rec nest k =
        if k = 0 then (if raise_inner then raise Probe)
        else Obs.Span.run ~obs (Printf.sprintf "lvl%d" k) (fun () -> nest (k - 1))
      in
      (match nest depth with () -> () | exception Probe -> ());
      Obs.Span.depth obs = 0)

(* --- snapshot / reset / json ---------------------------------------- *)

let populated () =
  let obs = fresh () in
  let c = Obs.Counter.make ~obs "z.counter" in
  Obs.Counter.add c 7;
  let t = Obs.Timer.make ~obs "a.timer" in
  Obs.Timer.record t 0.25;
  let h = Obs.Histogram.make ~obs "m.hist" in
  List.iter (Obs.Histogram.observe h) [ 1; 3; 3; 9 ];
  obs

let test_snapshot_reset_roundtrip () =
  let obs = populated () in
  let before = Obs.snapshot ~obs () in
  Alcotest.(check int) "counter captured" 7
    (List.assoc "z.counter" before.Obs.snap_counters);
  let h = List.assoc "m.hist" before.Obs.snap_histograms in
  Alcotest.(check int) "hist count" 4 h.Obs.h_count;
  Alcotest.(check int) "hist sum" 16 h.Obs.h_sum;
  Alcotest.(check int) "hist max" 9 h.Obs.h_max;
  Obs.reset ~obs ();
  let after = Obs.snapshot ~obs () in
  (* Names survive a reset; every value restarts from zero. *)
  Alcotest.(check (list string)) "counter names survive"
    (List.map fst before.Obs.snap_counters)
    (List.map fst after.Obs.snap_counters);
  Alcotest.(check (list string)) "timer names survive"
    (List.map fst before.Obs.snap_timers)
    (List.map fst after.Obs.snap_timers);
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed") 0 v)
    after.Obs.snap_counters;
  List.iter
    (fun (name, (t : Obs.timer_stat)) ->
      Alcotest.(check int) (name ^ " calls zeroed") 0 t.Obs.t_calls)
    after.Obs.snap_timers;
  List.iter
    (fun (name, (h : Obs.hist_stat)) ->
      Alcotest.(check int) (name ^ " count zeroed") 0 h.Obs.h_count)
    after.Obs.snap_histograms

let test_snapshot_sorted_and_json_deterministic () =
  let obs = populated () in
  let snap = Obs.snapshot ~obs () in
  let sorted l = List.sort compare l = l in
  Alcotest.(check bool) "counters sorted by name" true
    (sorted (List.map fst snap.Obs.snap_counters));
  Alcotest.(check bool) "timers sorted by name" true
    (sorted (List.map fst snap.Obs.snap_timers));
  let j1 = Obs.to_json snap in
  let j2 = Obs.to_json (Obs.snapshot ~obs ()) in
  (* Timer totals are wall-clock but [record] gave a fixed duration, so
     two snapshots of an untouched registry serialize identically. *)
  Alcotest.(check string) "json deterministic" j1 j2;
  Alcotest.(check bool) "json carries the schema tag" true
    (let tag = "gnrfet-obs-v1" in
     let rec find i =
       i + String.length tag <= String.length j1
       && (String.sub j1 i (String.length tag) = tag || find (i + 1))
     in
     find 0)

(* --- disabled mode changes no numbers ------------------------------- *)

let with_global_obs enabled f =
  let old = Obs.enabled Obs.global in
  Obs.set_enabled Obs.global enabled;
  Fun.protect ~finally:(fun () -> Obs.set_enabled Obs.global old) f

let test_disabled_mode_same_cg_result () =
  skip_if_fault_armed [ "sparse.cg" ];
  let n = 24 in
  let b = Array.init n (fun i -> Float.sin (float_of_int i)) in
  let builder = Sparse.Builder.create n in
  for i = 0 to n - 1 do
    Sparse.Builder.add builder i i 4.;
    if i > 0 then Sparse.Builder.add builder i (i - 1) (-1.);
    if i < n - 1 then Sparse.Builder.add builder i (i + 1) (-1.)
  done;
  let m = Sparse.Builder.finalize builder in
  let x_off, it_off = with_global_obs false (fun () -> Sparse.cg m b) in
  let x_on, it_on = with_global_obs true (fun () -> Sparse.cg m b) in
  Alcotest.(check int) "same iteration count" it_off it_on;
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "x.(%d) bit-for-bit" i)
        true
        (Float.equal v x_on.(i)))
    x_off

let test_disabled_mode_same_scf_result () =
  skip_if_fault_armed [ "scf.charge"; "scf.poisson" ];
  let p = tiny_device () in
  let solve () = Scf.solve p ~vg:0.3 ~vd:0.2 in
  let off = with_global_obs false solve in
  let on = with_global_obs true solve in
  Alcotest.(check int) "same iterations" off.Scf.iterations on.Scf.iterations;
  Alcotest.(check bool) "same current bit-for-bit" true
    (Float.equal off.Scf.current on.Scf.current);
  Array.iteri
    (fun i u ->
      Alcotest.(check bool)
        (Printf.sprintf "potential site %d bit-for-bit" i)
        true
        (Float.equal u on.Scf.potential.(i)))
    off.Scf.potential

let suite =
  [
    prop_counter_monotone;
    Alcotest.test_case "counter interning" `Quick test_counter_interning;
    Alcotest.test_case "disabled counter is a no-op" `Quick test_disabled_counter_noop;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception unwinding" `Quick test_span_exception_unwinds;
    prop_span_depth_balanced;
    Alcotest.test_case "snapshot/reset round-trip" `Quick test_snapshot_reset_roundtrip;
    Alcotest.test_case "snapshot sorted, json deterministic" `Quick
      test_snapshot_sorted_and_json_deterministic;
    Alcotest.test_case "obs on/off: cg bit-identical" `Quick
      test_disabled_mode_same_cg_result;
    Alcotest.test_case "obs on/off: scf bit-identical" `Quick
      test_disabled_mode_same_scf_result;
  ]
