(* Parallel pool: agreement of map/map_reduce with the
   sequential path (bit-for-bit, per the determinism contract), exception
   propagation from pool workers, pool reuse across many calls, nested
   runs, the GNRFET_DOMAINS environment override, each slot's contiguous
   chunk run, and pool domains retired when the last scope closes.
   Each test sets its width once with [at_width] (test/support.ml). *)

open Support

exception Boom of int

let test_matches_sequential () =
  let input = Array.init 257 (fun i -> i - 7) in
  let f x = (x * x) - (3 * x) + 1 in
  let expected = Array.map f input in
  Alcotest.(check (array int))
    "parallel result equals Array.map" expected
    (at_width 4 (fun () -> Parallel.map f input));
  Alcotest.(check (array int))
    "single-domain fallback equals Array.map" expected
    (at_width 1 (fun () -> Parallel.map f input))

let test_order_preserved () =
  let input = Array.init 100 (fun i -> float_of_int i) in
  let out = at_width 3 (fun () -> Parallel.map (fun x -> 2. *. x) input) in
  Array.iteri
    (fun i v -> Support.approx (Printf.sprintf "slot %d" i) (2. *. float_of_int i) v)
    out

let test_exception_propagation () =
  let input = Array.init 64 (fun i -> i) in
  Alcotest.check_raises "worker exception is re-raised in the caller" (Boom 13)
    (fun () ->
      at_width 4 (fun () ->
          ignore (Parallel.map (fun x -> if x = 13 then raise (Boom 13) else x) input)))

let test_env_override () =
  with_env "GNRFET_DOMAINS" "3" (fun () ->
      Alcotest.(check int) "GNRFET_DOMAINS=3" 3 (Parallel.num_domains ()));
  with_env "GNRFET_DOMAINS" " 5 " (fun () ->
      Alcotest.(check int) "whitespace is trimmed" 5 (Parallel.num_domains ()));
  with_env "GNRFET_DOMAINS" "0" (fun () ->
      Alcotest.(check int) "clamped to at least one domain" 1 (Parallel.num_domains ()));
  with_env "GNRFET_DOMAINS" "junk" (fun () ->
      Alcotest.(check int) "unparsable value falls back to 1" 1 (Parallel.num_domains ()));
  let default_width = max 1 (Domain.recommended_domain_count ()) in
  with_env "GNRFET_DOMAINS" "" (fun () ->
      Alcotest.(check int) "empty value means unset" default_width (Parallel.num_domains ()));
  with_env "GNRFET_DOMAINS" "  " (fun () ->
      Alcotest.(check int) "blank value means unset" default_width (Parallel.num_domains ()))

let test_env_override_map () =
  with_env "GNRFET_DOMAINS" "3" (fun () ->
      let input = Array.init 41 (fun i -> i) in
      let expected = Array.map succ input in
      Alcotest.(check (array int))
        "map under GNRFET_DOMAINS matches sequential" expected (Parallel.map succ input))

let test_pool_reuse () =
  (* Many small batches in a row, each an unscoped run that spawns and
     retires its own workers; failure mode is a hang or a crash. *)
  let input = Array.init 64 (fun i -> i) in
  at_width 4 @@ fun () ->
  for round = 1 to 100 do
    let out = Parallel.map (fun x -> x + round) input in
    Alcotest.(check int) "round result" (63 + round) out.(63)
  done

let harmonic_range ~lo ~hi =
  let s = ref 0. in
  for i = lo to hi - 1 do
    s := !s +. (1. /. float_of_int (i + 1))
  done;
  !s

(* Non-associative floating-point reduction: any change of summation
   order (worker count, chunk scheduling) would change the result. *)
let harmonic_sum ?chunk n =
  Parallel.map_reduce ?chunk ~n
    ~worker:(fun _ -> ())
    ~body:(fun () ~lo ~hi -> harmonic_range ~lo ~hi)
    ~combine:( +. ) 0.

let test_map_reduce_deterministic () =
  let reference = at_width 1 (fun () -> harmonic_sum 9973) in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "width %d bit-for-bit equal to width 1" d)
        true
        (at_width d (fun () -> harmonic_sum 9973) = reference))
    [ 2; 3; 4; 8 ]

let test_map_reduce_worker_state () =
  (* Per-slot workers must be created once per slot and handed to every
     chunk that slot processes: count distinct worker states used. *)
  let created = Atomic.make 0 in
  let total =
    at_width 3 @@ fun () ->
    Parallel.map_reduce ~chunk:8 ~n:1000
      ~worker:(fun _ ->
        Atomic.incr created;
        ref 0)
      ~body:(fun scratch ~lo ~hi ->
        scratch := hi - lo;
        !scratch)
      ~combine:( + ) 0
  in
  Alcotest.(check int) "every index counted once" 1000 total;
  Alcotest.(check bool)
    "at most one worker state per slot" true
    (Atomic.get created <= 3)

let test_map_reduce_empty_and_small () =
  at_width 4 @@ fun () ->
  Alcotest.(check int) "n=0 returns init" 42
    (Parallel.map_reduce ~n:0
       ~worker:(fun _ -> ())
       ~body:(fun () ~lo:_ ~hi:_ -> 1)
       ~combine:( + ) 42);
  Alcotest.(check int) "n=1" 1
    (Parallel.map_reduce ~n:1
       ~worker:(fun _ -> ())
       ~body:(fun () ~lo ~hi -> hi - lo)
       ~combine:( + ) 0)

let test_map_reduce_exception () =
  at_width 4 @@ fun () ->
  Alcotest.check_raises "body exception propagates through the pool"
    (Boom 99)
    (fun () ->
      ignore
        (Parallel.map_reduce ~chunk:4 ~n:256
           ~worker:(fun _ -> ())
           ~body:(fun () ~lo ~hi -> if lo <= 99 && 99 < hi then raise (Boom 99) else 0)
           ~combine:( + ) 0));
  Alcotest.check_raises "worker-constructor exception propagates"
    (Boom 1)
    (fun () ->
      ignore
        (Parallel.map_reduce ~chunk:4 ~n:256
           ~worker:(fun slot -> if slot > 0 then raise (Boom 1))
           ~body:(fun () ~lo ~hi -> hi - lo)
           ~combine:( + ) 0))

let test_nested_runs () =
  (* map_reduce inside pool workers of an outer map, both at the one
     width: the inner runs must complete (work helping prevents
     deadlock) and stay deterministic. *)
  let reference = at_width 1 (fun () -> harmonic_sum 2000) in
  let out =
    at_width 4 (fun () ->
        Parallel.map (fun _ -> harmonic_sum 2000) (Array.init 8 (fun i -> i)))
  in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "nested reduction equals sequential" true (v = reference))
    out

let test_contiguous_runs () =
  (* 125 chunks over 3 slots: slot s takes [s*125/3, (s+1)*125/3). *)
  let chunk = 8 and n = 1000 in
  (* Each slot conses onto its own entry.  gnrlint: allow-shared *)
  let runs = Array.make 3 [] in
  let total =
    at_width 3 @@ fun () ->
    Parallel.map_reduce ~chunk ~n
      ~worker:(fun slot -> slot)
      ~body:(fun slot ~lo ~hi ->
        runs.(slot) <- (lo / chunk) :: runs.(slot);
        harmonic_range ~lo ~hi)
      ~combine:( +. ) 0.
  in
  List.iteri
    (fun slot (first, last) ->
      Alcotest.(check (list int))
        (Printf.sprintf "slot %d runs chunks %d..%d in order" slot first (last - 1))
        (List.init (last - first) (fun i -> first + i))
        (List.rev runs.(slot)))
    [ (0, 41); (41, 83); (83, 125) ];
  Alcotest.(check bool)
    "width 3 bit-for-bit equal to width 1" true
    (total = at_width 1 (fun () -> harmonic_sum ~chunk n))

let no_live_domains what =
  Alcotest.(check int) (what ^ ": no pool domain alive") 0 (Parallel.live_domains ())

let test_domains_retire () =
  at_width 3 @@ fun () ->
  ignore (harmonic_sum 2000 : float);
  no_live_domains "after an unscoped run";
  Parallel.scoped (fun () ->
      ignore (harmonic_sum 2000 : float);
      Alcotest.(check int) "a scope keeps its workers" 2 (Parallel.live_domains ());
      ignore (harmonic_sum 2000 : float));
  no_live_domains "after a scoped run";
  Alcotest.check_raises "the scope's exception propagates" (Boom 7) (fun () ->
      Parallel.scoped (fun () ->
          ignore (harmonic_sum 2000 : float);
          raise (Boom 7)));
  no_live_domains "after a scope whose body raised"

let test_scopes_inside_pool_tasks () =
  (* Each task opens and closes a scope on whichever domain runs it,
     pool workers included; closing it must not retire the pool under
     the outer run (a worker joining itself hangs). *)
  let reference = at_width 1 (fun () -> harmonic_sum 2000) in
  let out =
    at_width 2 (fun () ->
        Parallel.map
          (fun _ -> Parallel.scoped (fun () -> harmonic_sum 2000))
          (Array.init 6 Fun.id))
  in
  Array.iter
    (fun v -> Alcotest.(check bool) "scoped reduction in a task is exact" true (v = reference))
    out;
  no_live_domains "after the outer map"

let test_concurrent_scopes () =
  (* Two systhreads open and close scopes independently, so a scope
     often opens while the other thread's workers are being joined. *)
  let reference = at_width 1 (fun () -> harmonic_sum 2000) in
  let exact = Atomic.make 0 in
  let loop () =
    for _ = 1 to 50 do
      if Parallel.scoped (fun () -> harmonic_sum 2000) = reference then
        Atomic.incr exact
    done
  in
  at_width 2 (fun () ->
      let threads = List.init 2 (fun _ -> Thread.create loop ()) in
      List.iter Thread.join threads);
  Alcotest.(check int) "every result exact" 100 (Atomic.get exact);
  no_live_domains "after both threads"

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick test_matches_sequential;
    Alcotest.test_case "map preserves order" `Quick test_order_preserved;
    Alcotest.test_case "worker exception propagates" `Quick test_exception_propagation;
    Alcotest.test_case "GNRFET_DOMAINS override" `Quick test_env_override;
    Alcotest.test_case "map honours GNRFET_DOMAINS" `Quick test_env_override_map;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "map_reduce deterministic" `Quick test_map_reduce_deterministic;
    Alcotest.test_case "map_reduce worker state" `Quick test_map_reduce_worker_state;
    Alcotest.test_case "map_reduce empty/small" `Quick test_map_reduce_empty_and_small;
    Alcotest.test_case "map_reduce exception" `Quick test_map_reduce_exception;
    Alcotest.test_case "nested parallel runs" `Quick test_nested_runs;
    Alcotest.test_case "map_reduce contiguous slot runs" `Quick test_contiguous_runs;
    Alcotest.test_case "pool domains retire with the scope" `Quick test_domains_retire;
    Alcotest.test_case "scopes inside pool tasks" `Quick test_scopes_inside_pool_tasks;
    Alcotest.test_case "concurrent scopes on two threads" `Quick test_concurrent_scopes;
  ]
