(* Tests for the robustness layer: the fault-injection harness itself
   (spec parsing, deterministic firing, with_spec scoping, the typed
   Injected_fault it raises), the SCF escalation ladder driven rung by
   rung via injected faults — including the bit-for-bit no-op contract
   on healthy inputs — the table-cache corruption hardening, the MNA
   recovery ladders, the Monte Carlo quarantine, Iv_table point
   quarantine/patching, error printing and the report.  See
   docs/ROBUST.md. *)

open Support

(* --- fault harness --------------------------------------------------- *)

let test_fault_spec_errors () =
  check_raises_invalid "probability > 1" (fun () -> Fault.arm "x@1.5");
  check_raises_invalid "probability junk" (fun () -> Fault.arm "x@yes");
  check_raises_invalid "missing site name" (fun () -> Fault.arm "@0.5");
  check_raises_invalid "empty entry" (fun () -> Fault.arm "a,,b");
  check_raises_invalid "hit zero" (fun () -> Fault.arm "x#0");
  check_raises_invalid "inverted range" (fun () -> Fault.arm "x#5-2");
  check_raises_invalid "period zero" (fun () -> Fault.arm "x%0");
  check_raises_invalid "bad seed" (fun () -> Fault.arm "x:notanint")

let decisions spec site n =
  Fault.with_spec spec (fun () ->
      let s = Fault.site site in
      List.init n (fun _ -> Fault.should_fail s))

let test_fault_hit_modes () =
  Alcotest.(check (list bool)) "#2 fires exactly hit 2"
    [ false; true; false; false ]
    (decisions "m.one#2" "m.one" 4);
  Alcotest.(check (list bool)) "#2-3 fires the range"
    [ false; true; true; false ]
    (decisions "m.rng#2-3" "m.rng" 4);
  Alcotest.(check (list bool)) "%2 fires every second hit"
    [ false; true; false; true ]
    (decisions "m.ev%2" "m.ev" 4);
  Alcotest.(check (list bool)) "bare entry fires every hit" [ true; true ]
    (decisions "m.alw" "m.alw" 2);
  Alcotest.(check (list bool)) "prefix pattern matches" [ true ]
    (decisions "m.*" "m.prefixed.site" 1);
  Alcotest.(check (list bool)) "prefix pattern is anchored" [ false ]
    (decisions "m.*" "other.site" 1)

let test_fault_accounting () =
  Fault.with_spec "acct.site#2-3" (fun () ->
      let s = Fault.site "acct.site" in
      Alcotest.(check string) "site_name" "acct.site" (Fault.site_name s);
      Alcotest.(check bool) "active while armed" true (Fault.active ());
      Alcotest.(check bool) "matching site armed" true
        (Fault.site_armed "acct.site");
      Alcotest.(check bool) "non-matching site not armed" false
        (Fault.site_armed "acct.other");
      for _ = 1 to 5 do
        ignore (Fault.should_fail s)
      done;
      Alcotest.(check int) "hits counted" 5 (Fault.hits s);
      Alcotest.(check int) "injections counted" 2 (Fault.injected s));
  (* Re-arming resets the per-site counters. *)
  Fault.with_spec "acct.site#1" (fun () ->
      let s = Fault.site "acct.site" in
      Alcotest.(check int) "hits reset on arm" 0 (Fault.hits s))

let test_fault_prob_deterministic () =
  let a = decisions "prob.site@0.3:7" "prob.site" 200 in
  let b = decisions "prob.site@0.3:7" "prob.site" 200 in
  Alcotest.(check bool) "same seed reproduces the pattern" true (a = b);
  let c = decisions "prob.site@0.3:8" "prob.site" 200 in
  Alcotest.(check bool) "different seed changes the pattern" true (a <> c);
  let fires = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "rate in a plausible band" true
    (fires > 20 && fires < 120)

exception Harness_probe

let test_with_spec_restores () =
  let before_active = Fault.active () in
  let before_spec = Fault.current_spec () in
  Fault.with_spec "outer.site#1" (fun () ->
      Fault.with_spec "inner.site#1" (fun () ->
          Alcotest.(check (option string)) "inner spec armed"
            (Some "inner.site#1") (Fault.current_spec ()));
      Alcotest.(check (option string)) "outer spec restored"
        (Some "outer.site#1") (Fault.current_spec ()));
  (match Fault.with_spec "raise.site#1" (fun () -> raise Harness_probe) with
  | exception Harness_probe -> ()
  | () -> Alcotest.fail "expected Harness_probe to propagate");
  Alcotest.(check bool) "armed state restored after raise" before_active
    (Fault.active ());
  Alcotest.(check (option string)) "spec restored after raise" before_spec
    (Fault.current_spec ())

(* --- SCF escalation ladder ------------------------------------------- *)

let tiny = tiny_device ()

let scf_sites = [ "scf.charge"; "scf.poisson"; "sparse.cg" ]

let check_bit_identical label (a : Scf.solution) (b : Scf.solution) =
  Alcotest.(check int) (label ^ ": iterations") a.Scf.iterations b.Scf.iterations;
  Alcotest.(check bool) (label ^ ": current bit-for-bit") true
    (Float.equal a.Scf.current b.Scf.current);
  Alcotest.(check bool) (label ^ ": charge bit-for-bit") true
    (Float.equal a.Scf.charge b.Scf.charge);
  Array.iteri
    (fun i u ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: potential site %d bit-for-bit" label i)
        true
        (Float.equal u b.Scf.potential.(i)))
    a.Scf.potential

let test_ladder_noop_on_healthy_input () =
  skip_if_fault_armed scf_sites;
  let plain = Scf.solve tiny ~vg:0.4 ~vd:0.3 in
  let o = Scf_robust.solve_robust tiny ~vg:0.4 ~vd:0.3 in
  (match o.Scf_robust.solution with
  | Some s ->
    check_bit_identical "wrapped" plain s;
    Alcotest.(check bool) "converged" true (s.Scf.status = Scf.Converged)
  | None -> Alcotest.fail "expected a solution");
  Alcotest.(check int) "exactly one attempt" 1
    (List.length o.Scf_robust.attempts);
  Alcotest.(check bool) "plain convergence is not recovery" false
    o.Scf_robust.recovered

let rung_of (a : Scf_robust.attempt) = a.Scf_robust.rung

let test_ladder_damped_restart_rung () =
  skip_if_fault_armed scf_sites;
  let obs = Obs.create ~enabled:true () in
  let o =
    Fault.with_spec "scf.charge#1" (fun () ->
        Scf_robust.solve_robust ~obs tiny ~vg:0.4 ~vd:0.3)
  in
  (match o.Scf_robust.attempts with
  | [ a1; a2 ] ->
    Alcotest.(check bool) "rung 1 is Anderson" true
      (rung_of a1 = Scf_robust.Anderson);
    Alcotest.(check bool) "rung 1 recorded the raise" true
      (a1.Scf_robust.error <> None);
    Alcotest.(check bool) "rung 2 is the damped restart" true
      (rung_of a2 = Scf_robust.Damped_restart);
    Alcotest.(check bool) "rung 2 converged" true
      (a2.Scf_robust.status = Some Scf.Converged)
  | l -> Alcotest.failf "expected 2 attempts, got %d" (List.length l));
  Alcotest.(check bool) "recovered" true o.Scf_robust.recovered;
  Alcotest.(check int) "retries counted" 1
    (Obs.counter_value ~obs "robust.scf.retries");
  Alcotest.(check int) "escalations counted" 1
    (Obs.counter_value ~obs "robust.scf.escalations");
  Alcotest.(check int) "recovery counted" 1
    (Obs.counter_value ~obs "robust.scf.recovered");
  Alcotest.(check int) "nothing unrecovered" 0
    (Obs.counter_value ~obs "robust.scf.unrecovered")

let test_ladder_slow_linear_rung () =
  skip_if_fault_armed scf_sites;
  let o =
    Fault.with_spec "scf.charge#1-2" (fun () ->
        Scf_robust.solve_robust tiny ~vg:0.4 ~vd:0.3)
  in
  Alcotest.(check (list bool)) "rung sequence anderson/damped/linear"
    [ true; true; true ]
    (List.map2 ( = )
       (List.map rung_of o.Scf_robust.attempts)
       [ Scf_robust.Anderson; Scf_robust.Damped_restart; Scf_robust.Linear_slow ]);
  (match o.Scf_robust.solution with
  | Some s ->
    Alcotest.(check bool) "slow-linear rung converged" true
      (s.Scf.status = Scf.Converged)
  | None -> Alcotest.fail "expected a solution");
  Alcotest.(check bool) "recovered" true o.Scf_robust.recovered

let test_ladder_neighbor_rung_and_unrecovered () =
  skip_if_fault_armed scf_sites;
  let clean = Scf.solve tiny ~vg:0.4 ~vd:0.3 in
  (* Without a neighbor the same campaign exhausts the ladder... *)
  let obs = Obs.create ~enabled:true () in
  let dead =
    Fault.with_spec "scf.charge#1-3" (fun () ->
        Scf_robust.solve_robust ~obs tiny ~vg:0.4 ~vd:0.3)
  in
  Alcotest.(check bool) "no solution without the neighbor rung" true
    (dead.Scf_robust.solution = None);
  Alcotest.(check int) "three failed attempts" 3
    (List.length dead.Scf_robust.attempts);
  Alcotest.(check bool) "every attempt raised" true
    (List.for_all
       (fun (a : Scf_robust.attempt) ->
         a.Scf_robust.status = None && a.Scf_robust.error <> None)
       dead.Scf_robust.attempts);
  Alcotest.(check int) "unrecovered counted" 1
    (Obs.counter_value ~obs "robust.scf.unrecovered");
  (* ...while a neighbor profile opens the continuation rung. *)
  let o =
    Fault.with_spec "scf.charge#1-3" (fun () ->
        Scf_robust.solve_robust ~neighbor:clean.Scf.potential tiny ~vg:0.4
          ~vd:0.3)
  in
  (match List.rev o.Scf_robust.attempts with
  | last :: _ ->
    Alcotest.(check bool) "final rung is neighbor continuation" true
      (rung_of last = Scf_robust.Neighbor_continuation);
    Alcotest.(check bool) "neighbor rung converged" true
      (last.Scf_robust.status = Some Scf.Converged)
  | [] -> Alcotest.fail "expected attempts");
  Alcotest.(check bool) "recovered via neighbor" true o.Scf_robust.recovered

let test_ladder_escalates_on_status () =
  skip_if_fault_armed scf_sites;
  (* A brutally small iteration cap: no rung can converge, but each one
     must run (status-driven escalation, no exception involved) and the
     outcome must keep the best iterate with its typed verdict. *)
  let o = Scf_robust.solve_robust ~max_iter:2 tiny ~vg:0.4 ~vd:0.3 in
  Alcotest.(check int) "all ladder rungs attempted" 3
    (List.length o.Scf_robust.attempts);
  Alcotest.(check bool) "every attempt returned a status" true
    (List.for_all
       (fun (a : Scf_robust.attempt) ->
         a.Scf_robust.error = None && a.Scf_robust.status <> Some Scf.Converged)
       o.Scf_robust.attempts);
  match o.Scf_robust.solution with
  | Some s ->
    Alcotest.(check bool) "best iterate kept" true
      (Float.is_finite s.Scf.residual);
    Alcotest.(check bool) "typed non-converged verdict" true
      (match s.Scf.status with
      | Scf.Max_iter | Scf.Stalled -> true
      | Scf.Converged -> false)
  | None -> Alcotest.fail "expected a best iterate"

let test_scf_init_length_validated () =
  check_raises_invalid "Scf.solve rejects a wrong-length init" (fun () ->
      Scf.solve ~init:(Array.make 3 0.) tiny
        ~vg:0.1 ~vd:0.1);
  check_raises_invalid "solve_robust propagates the caller bug" (fun () ->
      Scf_robust.solve_robust ~init:(Array.make 3 0.) tiny ~vg:0.1 ~vd:0.1)

(* --- table-cache hardening ------------------------------------------- *)

let micro_grid =
  { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }

let with_temp_cache f =
  let dir = Filename.temp_file "gnrfet_robust_tables" "" in
  Sys.remove dir;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GNRFET_TABLE_DIR" "_tables";
      Table_cache.clear_memory ();
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Table_cache.clear_memory ();
      f dir)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cache_corruption_matrix () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache @@ fun dir ->
  let obs = Obs.create ~enabled:true () in
  let read_counter name = Obs.counter_value ~obs name in
  let t0 = Table_cache.get ~grid:micro_grid ~obs tiny in
  let path =
    match
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".gnrtbl")
    with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one .gnrtbl file, found %d" (List.length l)
  in
  let good_bytes = read_file path in
  let reseed () =
    write_file path good_bytes;
    Table_cache.clear_memory ()
  in
  let expect_miss label =
    Alcotest.(check bool) (label ^ " reads as a miss") true
      (Option.is_none (Table_cache.lookup ~grid:micro_grid ~obs tiny))
  in
  (* 1. Truncated file: quarantined with the precise reason counted. *)
  write_file path (String.sub good_bytes 0 (String.length good_bytes / 2));
  Table_cache.clear_memory ();
  expect_miss "truncated file";
  Alcotest.(check int) "truncation quarantined" 1
    (read_counter "table_cache.corrupt_quarantined");
  Alcotest.(check int) "truncation counted per reason" 1
    (read_counter "table_cache.corrupt.truncated");
  Alcotest.(check bool) "truncated file renamed to .corrupt" true
    (Sys.file_exists (path ^ ".corrupt") && not (Sys.file_exists path));
  Sys.remove (path ^ ".corrupt");
  (* 2. Garbage bytes (long enough to clear the size gate): bad magic. *)
  write_file path (String.make 96 'x');
  Table_cache.clear_memory ();
  expect_miss "garbage file";
  Alcotest.(check int) "garbage quarantined" 2
    (read_counter "table_cache.corrupt_quarantined");
  Alcotest.(check int) "garbage counted as bad magic" 1
    (read_counter "table_cache.corrupt.bad_magic");
  Sys.remove (path ^ ".corrupt");
  (* 3. Valid gnrtbl, wrong key: a stale file, not a corrupt one. *)
  write_file path (Tbl_format.encode ~cache_key:"bogus-key" (synthetic_table ()));
  Table_cache.clear_memory ();
  expect_miss "key-mismatched file";
  Alcotest.(check int) "key mismatch is not quarantined" 2
    (read_counter "table_cache.corrupt_quarantined");
  Alcotest.(check bool) "key-mismatched file left in place" true
    (Sys.file_exists path && not (Sys.file_exists (path ^ ".corrupt")));
  (* 4. Injected read fault: quarantined like real corruption. *)
  reseed ();
  Fault.with_spec "table_cache.read#1" (fun () ->
      expect_miss "injected read fault");
  Alcotest.(check int) "injected fault quarantined" 3
    (read_counter "table_cache.corrupt_quarantined");
  Alcotest.(check int) "injected fault counted as undecodable" 1
    (read_counter "table_cache.corrupt.undecodable");
  Alcotest.(check bool) "injected-fault file renamed" true
    (Sys.file_exists (path ^ ".corrupt"));
  Sys.remove (path ^ ".corrupt");
  (* 5. And an intact gnrtbl file still round-trips from disk. *)
  reseed ();
  let mmap_before = read_counter "table_cache.mmap_hits" in
  match Table_cache.lookup ~grid:micro_grid ~obs tiny with
  | Some t ->
    approx "intact file round-trips" t0.Iv_table.current.(1).(1)
      t.Iv_table.current.(1).(1);
    Alcotest.(check int) "gnrtbl hit counted as mmap hit" (mmap_before + 1)
      (read_counter "table_cache.mmap_hits")
  | None -> Alcotest.fail "expected a disk hit from the intact file"

let test_cache_store_failure_counted () =
  skip_if_fault_armed [ "scf.charge"; "scf.poisson" ];
  (* Point the cache at a regular file: mkdir and the tmp-file open both
     fail, which must cost a counted store failure, never the table. *)
  let blocker = Filename.temp_file "gnrfet_robust_nodir" "" in
  Unix.putenv "GNRFET_TABLE_DIR" blocker;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GNRFET_TABLE_DIR" "_tables";
      Table_cache.clear_memory ();
      Sys.remove blocker)
  @@ fun () ->
  Table_cache.clear_memory ();
  let obs = Obs.create ~enabled:true () in
  let t = Table_cache.get ~grid:micro_grid ~obs tiny in
  Alcotest.(check int) "table still produced" 3 (Array.length t.Iv_table.vg);
  Alcotest.(check int) "store failure counted" 1
    (Obs.counter_value ~obs "table_cache.store_failures")

(* --- Iv_table quarantine --------------------------------------------- *)

let test_iv_table_quarantines_and_patches () =
  skip_if_fault_armed [ "scf.charge"; "scf.poisson" ];
  let obs = Obs.create ~enabled:true () in
  (* Hits 1-8 fail every charge evaluation: points (0,0) and (1,0) burn
     one hit per rung (3 rungs, no converged neighbor yet) and die;
     point (2,0) fails rungs 1-2 (hits 7-8) and converges on the slow
     linear rung; everything after runs clean. *)
  let t =
    Fault.with_spec "scf.charge#1-8" (fun () ->
        Iv_table.generate ~grid:micro_grid ~obs tiny)
  in
  Alcotest.(check (list (pair int int))) "quarantined points"
    [ (0, 0); (1, 0) ] t.Iv_table.failed_points;
  Alcotest.(check int) "quarantine counter" 2
    (Obs.counter_value ~obs "robust.iv_table.quarantined");
  (* Edge-of-column quarantined points copy the nearest converged value. *)
  approx "patched (0,0) from (2,0)" t.Iv_table.current.(2).(0)
    t.Iv_table.current.(0).(0);
  approx "patched (1,0) from (2,0)" t.Iv_table.current.(2).(0)
    t.Iv_table.current.(1).(0);
  Array.iter
    (Array.iter (fun v ->
         Alcotest.(check bool) "all currents finite" true (Float.is_finite v)))
    t.Iv_table.current

(* --- MNA recovery ---------------------------------------------------- *)

let divider () =
  let net = Netlist.create () in
  let top = Netlist.fresh_node net in
  let mid = Netlist.fresh_node net in
  Netlist.vdc net top 1.;
  Netlist.add net (Netlist.Resistor { a = top; b = mid; ohms = 1e3 });
  Netlist.add net (Netlist.Resistor { a = mid; b = Netlist.gnd; ohms = 3e3 });
  (net, mid)

let test_mna_dc_typed_failure () =
  skip_if_fault_armed [ "mna.newton" ];
  let net, _ = divider () in
  match Fault.with_spec "mna.newton" (fun () -> Mna.solve_dc net) with
  | exception Robust_error.Error (Robust_error.Newton_failure { analysis; _ })
    ->
    Alcotest.(check string) "typed dc failure" "dc" analysis
  | exception e ->
    Alcotest.failf "expected a typed Newton_failure, got %s"
      (Printexc.to_string e)
  | _ -> Alcotest.fail "expected solve_dc to fail under a total campaign"

let test_mna_dc_recovers_from_transient_fault () =
  skip_if_fault_armed [ "mna.newton" ];
  let net, mid = divider () in
  let clean = Mna.solve_dc net in
  let v = Fault.with_spec "mna.newton#1" (fun () -> Mna.solve_dc net) in
  approx ~eps:1e-9 "gmin ladder recovers the dc point" clean.(mid) v.(mid)

let with_global_obs f =
  let old = Obs.enabled Obs.global in
  Obs.set_enabled Obs.global true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled Obs.global old) f

let rc_net () =
  let net = Netlist.create () in
  let src = Netlist.fresh_node net in
  let out = Netlist.fresh_node net in
  Netlist.vsource net src (fun t -> if t > 0. then 1. else 0.);
  Netlist.add net (Netlist.Resistor { a = src; b = out; ohms = 1e3 });
  Netlist.add net (Netlist.Capacitor { a = out; b = Netlist.gnd; farads = 1e-9 });
  (net, out)

let test_mna_transient_recovers_by_subdividing () =
  skip_if_fault_armed [ "mna.newton" ];
  with_global_obs @@ fun () ->
  let rc = 1e-6 in
  let net, out = rc_net () in
  let retries_before = Obs.counter_value "mna.transient_retries" in
  let timer = Obs.Timer.make "mna.transient" in
  let samples_before = Obs.Timer.calls timer in
  (* Hit 1 is the dc operating point; hit 2 fails the first transient
     step, which must be recovered by substep subdivision. *)
  let wf =
    Fault.with_spec "mna.newton#2" (fun () ->
        Mna.transient net ~t_stop:(5. *. rc) ~dt:(rc /. 20.))
  in
  Alcotest.(check bool) "subdivision retry counted" true
    (Obs.counter_value "mna.transient_retries" > retries_before);
  Alcotest.(check int) "one mna.transient sample" (samples_before + 1)
    (Obs.Timer.calls timer);
  let trace = Mna.node_trace wf out in
  Alcotest.(check bool) "waveform stays finite" true
    (Array.for_all Float.is_finite trace);
  (* 5 time-constants in: 1 - e^-5 of the way to the rail. *)
  approx ~eps:1e-2 "rc step settles toward the supply" 1.
    trace.(Array.length trace - 1)

let test_mna_transient_unrecoverable_is_typed () =
  skip_if_fault_armed [ "mna.newton" ];
  with_global_obs @@ fun () ->
  let rc = 1e-6 in
  let net, _ = rc_net () in
  let timer = Obs.Timer.make "mna.transient" in
  let samples_before = Obs.Timer.calls timer in
  match
    (* Fail every Newton call after the dc point: subdivision and the
       gmin rescue can never succeed, so the typed error must surface. *)
    Fault.with_spec "mna.newton#2-100000" (fun () ->
        Mna.transient net ~t_stop:(2. *. rc) ~dt:(rc /. 20.))
  with
  | exception Robust_error.Error (Robust_error.Newton_failure { analysis; _ })
    ->
    Alcotest.(check string) "typed transient failure" "transient" analysis;
    (* The timer is stopped on the raise path too. *)
    Alcotest.(check int) "one mna.transient sample" (samples_before + 1)
      (Obs.Timer.calls timer)
  | exception e ->
    Alcotest.failf "expected a typed Newton_failure, got %s"
      (Printexc.to_string e)
  | _ -> Alcotest.fail "expected the transient to fail"

(* --- Monte Carlo quarantine ------------------------------------------ *)

let mc_sample v = { Montecarlo.frequency = v; p_dynamic = 0.; p_static = 0. }

let test_mc_quarantines_failed_samples () =
  let calls = ref 0 in
  let evaluate _ =
    incr calls;
    (* Calls 4, 7 and 10 (samples 3, 6 and 9) die with a typed error. *)
    if !calls > 1 && (!calls - 1) mod 3 = 0 then
      Robust_error.raise_
        (Robust_error.Newton_failure { analysis = "mc-stub"; time = 0. });
    mc_sample (float_of_int !calls)
  in
  let r =
    Montecarlo.run_with ~evaluate ~stages:3 ~samples:9 ~seed:11
      ~sigma_probability:0.2 ~nominal_ids:(4, 4) ()
  in
  Alcotest.(check int) "quarantined count" 3 r.Montecarlo.quarantined;
  Alcotest.(check int) "survivors" 6 (Array.length r.Montecarlo.samples);
  Alcotest.(check bool) "nominal evaluated first" true
    (Float.equal r.Montecarlo.nominal.Montecarlo.frequency 1.)

let test_mc_draws_unperturbed_by_quarantine () =
  skip_if_fault_armed [ "montecarlo.sample" ];
  let record () =
    let seen = ref [] in
    let evaluate ids =
      seen := Array.copy ids :: !seen;
      mc_sample 1.
    in
    (seen, evaluate)
  in
  let seen_clean, eval_clean = record () in
  let run evaluate =
    Montecarlo.run_with ~evaluate ~stages:2 ~samples:6 ~seed:5
      ~sigma_probability:0.25 ~nominal_ids:(4, 4) ()
  in
  ignore (run eval_clean);
  let seen_faulted, eval_faulted = record () in
  let r =
    Fault.with_spec "montecarlo.sample#2" (fun () -> run eval_faulted)
  in
  Alcotest.(check int) "one sample quarantined at the site" 1
    r.Montecarlo.quarantined;
  let clean = List.rev !seen_clean and faulted = List.rev !seen_faulted in
  Alcotest.(check int) "clean run evaluates nominal + all samples" 7
    (List.length clean);
  Alcotest.(check int) "faulted run skips exactly the injected sample" 6
    (List.length faulted);
  (* Dropping sample 2 must not shift any other sample's draw. *)
  let clean_without_injected =
    List.filteri (fun i _ -> i <> 2) clean (* 0 = nominal, 2 = sample 2 *)
  in
  Alcotest.(check bool) "surviving draws identical to the fault-free run"
    true
    (clean_without_injected = faulted)

(* --- Poisson3d recovery ---------------------------------------------- *)

let test_poisson3d_cg_retry_and_sor_fallback () =
  skip_if_fault_armed [ "sparse.cg" ];
  with_global_obs @@ fun () ->
  let t =
    Poisson3d.make ~nx:5 ~ny:5 ~nz:5 ~spacing:1e-9 ~eps_r:(fun _ _ _ -> 3.9)
  in
  let charges = [ { Poisson3d.ix = 2; iy = 2; iz = 2; coulombs = -.Const.q } ] in
  let clean = Poisson3d.solve t ~charges in
  let retries_before = Obs.counter_value "robust.poisson3d.cg_retries" in
  let fallbacks_before = Obs.counter_value "robust.poisson3d.sor_fallbacks" in
  (* One injected cg failure: the retry repeats the identical call, so
     the recovered result is bit-for-bit the clean one. *)
  let retried =
    Fault.with_spec "sparse.cg#1" (fun () -> Poisson3d.solve t ~charges)
  in
  Array.iteri
    (fun ix plane ->
      Array.iteri
        (fun iy line ->
          Array.iteri
            (fun iz v ->
              Alcotest.(check bool)
                (Printf.sprintf "retry node (%d,%d,%d) bit-for-bit" ix iy iz)
                true
                (Float.equal v retried.(ix).(iy).(iz)))
            line)
        plane)
    clean;
  Alcotest.(check int) "one cg retry counted" 1
    (Obs.counter_value "robust.poisson3d.cg_retries" - retries_before);
  (* Two consecutive cg failures: the SOR fallback answers, to tolerance. *)
  let fell_back =
    Fault.with_spec "sparse.cg#1-2" (fun () -> Poisson3d.solve t ~charges)
  in
  Array.iteri
    (fun ix plane ->
      Array.iteri
        (fun iy line ->
          Array.iteri
            (fun iz v ->
              approx ~eps:1e-7
                (Printf.sprintf "sor node (%d,%d,%d)" ix iy iz)
                v
                fell_back.(ix).(iy).(iz))
            line)
        plane)
    clean;
  Alcotest.(check int) "one sor fallback counted" 1
    (Obs.counter_value "robust.poisson3d.sor_fallbacks" - fallbacks_before)

(* --- taxonomy, report ---------------------------------------------------- *)

let test_fault_raises_injected_fault () =
  (* Fault.fail raises the one typed failure exception, carrying the
     site and the 1-based hit that fired. *)
  Fault.with_spec "x.fail#3" (fun () ->
      let s = Fault.site "x.fail" in
      Fault.fail s;
      Fault.fail s;
      match Fault.fail s with
      | exception
          Robust_error.Error (Robust_error.Injected_fault { site; hit }) ->
        Alcotest.(check string) "site" "x.fail" site;
        Alcotest.(check int) "hit" 3 hit
      | () -> Alcotest.fail "expected the third hit to raise")

let test_error_printing () =
  let all =
    [
      Robust_error.Singular { solver = "Tridiag.solve"; detail = "row 0" };
      Robust_error.Iterative_no_convergence
        { solver = "cg"; iterations = 40; residual = 1e-4 };
      Robust_error.Newton_failure { analysis = "dc"; time = 0. };
      Robust_error.Cache_corrupt
        { path = "p"; reason = Robust_error.Crc_mismatch { section = "vg" } };
      Robust_error.Injected_fault { site = "s"; hit = 1 };
      Robust_error.Unrecovered { stage = "scf"; attempts = 4; detail = "d" };
    ]
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "to_string is non-empty" true
        (String.length (Robust_error.to_string t) > 0);
      (* The registered printer renders the carrier exception too. *)
      Alcotest.(check bool) "exception printer wired" true
        (String.length (Printexc.to_string (Robust_error.Error t)) > 0))
    all

let test_report_filters_and_sums () =
  let obs = Obs.create ~enabled:true () in
  Obs.Counter.add (Obs.Counter.make ~obs "robust.fault.some.site") 2;
  Obs.Counter.add (Obs.Counter.make ~obs "robust.fault.other.site") 3;
  Obs.Counter.add (Obs.Counter.make ~obs "robust.scf.retries") 4;
  Obs.Counter.add (Obs.Counter.make ~obs "table_cache.corrupt_quarantined") 1;
  Obs.Counter.add (Obs.Counter.make ~obs "scf.solves") 99;
  let r = Robust.Report.collect ~obs () in
  let names = List.map fst r.Robust.Report.counters in
  Alcotest.(check bool) "robust counters included" true
    (List.mem "robust.scf.retries" names
    && List.mem "table_cache.corrupt_quarantined" names);
  Alcotest.(check bool) "unrelated counters excluded" false
    (List.mem "scf.solves" names);
  Alcotest.(check bool) "sorted by name" true
    (List.sort compare names = names);
  Alcotest.(check int) "total_injected sums the fault counters" 5
    (Robust.Report.total_injected r);
  (* pp runs and mentions the totals (smoke, not a format pin). *)
  let rendered = Format.asprintf "%a" Robust.Report.pp r in
  Alcotest.(check bool) "pp renders something" true
    (String.length rendered > 0)

let suite =
  [
    Alcotest.test_case "fault spec errors" `Quick test_fault_spec_errors;
    Alcotest.test_case "fault hit modes" `Quick test_fault_hit_modes;
    Alcotest.test_case "fault accounting" `Quick test_fault_accounting;
    Alcotest.test_case "fault probability is seeded and deterministic" `Quick
      test_fault_prob_deterministic;
    Alcotest.test_case "with_spec scopes and restores" `Quick
      test_with_spec_restores;
    Alcotest.test_case "ladder is a no-op on healthy input" `Quick
      test_ladder_noop_on_healthy_input;
    Alcotest.test_case "ladder rung 2: damped restart" `Quick
      test_ladder_damped_restart_rung;
    Alcotest.test_case "ladder rung 3: slow linear" `Quick
      test_ladder_slow_linear_rung;
    Alcotest.test_case "ladder rung 4: neighbor continuation / unrecovered"
      `Quick test_ladder_neighbor_rung_and_unrecovered;
    Alcotest.test_case "ladder escalates on a non-converged status" `Quick
      test_ladder_escalates_on_status;
    Alcotest.test_case "scf init length validated" `Quick
      test_scf_init_length_validated;
    Alcotest.test_case "table cache corruption matrix" `Quick
      test_cache_corruption_matrix;
    Alcotest.test_case "table cache store failure counted" `Quick
      test_cache_store_failure_counted;
    Alcotest.test_case "iv_table quarantines and patches failed points"
      `Quick test_iv_table_quarantines_and_patches;
    Alcotest.test_case "mna dc: typed failure" `Quick test_mna_dc_typed_failure;
    Alcotest.test_case "mna dc: gmin ladder recovery" `Quick
      test_mna_dc_recovers_from_transient_fault;
    Alcotest.test_case "mna transient: subdivision recovery" `Quick
      test_mna_transient_recovers_by_subdividing;
    Alcotest.test_case "mna transient: unrecoverable is typed" `Quick
      test_mna_transient_unrecoverable_is_typed;
    Alcotest.test_case "monte carlo quarantines failed samples" `Quick
      test_mc_quarantines_failed_samples;
    Alcotest.test_case "monte carlo draws unperturbed by quarantine" `Quick
      test_mc_draws_unperturbed_by_quarantine;
    Alcotest.test_case "poisson3d cg retry and sor fallback" `Quick
      test_poisson3d_cg_retry_and_sor_fallback;
    Alcotest.test_case "fault sites raise Injected_fault" `Quick
      test_fault_raises_injected_fault;
    Alcotest.test_case "error printing" `Quick test_error_printing;
    Alcotest.test_case "report filters and sums" `Quick
      test_report_filters_and_sums;
  ]
