(* Golden-trace regression tests for the SCF convergence behaviour.

   Two fixed reduced devices (N=12 and N=15, the Support.tiny_device
   geometry) are solved at one bias point and the per-iteration
   convergence trace (Scf.solution.trace) is checked three ways:

   - run-to-run: two solves in one process produce bit-identical traces;
   - sequential vs parallel: the trace, converged potential, current,
     total charge and iteration count are bit-for-bit identical with the
     energy loop sequential (GNRFET_DOMAINS=1), on the default pool,
     and with GNRFET_DOMAINS=5 (the determinism contract, observable
     per iteration);
   - against the golden files in test/golden/: iteration counts, step
     structure, mixing factors and Poisson-solve counts exactly; update
     norms to 1e-6 relative (libm differences across platforms move the
     last bits of the residuals, not the iteration structure).

   Regenerate the golden files after an INTENTIONAL solver change with

     dune exec test/gen_golden.exe        (from the repo root)

   and review the trace diff as part of the change. *)

open Support

let vg = 0.4
let vd = 0.3

type golden = {
  g_iterations : int;
  g_steps : (int * float * float * int * bool) list;
      (* step, update_norm, mixing, poisson_solves, restarted *)
}

let parse_golden path =
  let ic = open_in path in
  let iterations = ref (-1) in
  let steps = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line = "" || line.[0] = '#' then ()
       else
         try Scanf.sscanf line "iterations %d" (fun k -> iterations := k)
         with Scanf.Scan_failure _ | Failure _ ->
           Scanf.sscanf line "step %d %f %f %d %d" (fun s u m p r ->
               steps := (s, u, m, p, r <> 0) :: !steps)
     done
   with End_of_file -> close_in ic);
  if !iterations < 0 then Alcotest.failf "%s: missing iterations line" path;
  { g_iterations = !iterations; g_steps = List.rev !steps }

let check_trace_equal label (a : Scf.trace list) (b : Scf.trace list) =
  Alcotest.(check int) (label ^ ": trace length") (List.length a) (List.length b);
  List.iter2
    (fun (x : Scf.trace) (y : Scf.trace) ->
      let at = Printf.sprintf "%s: step %d" label x.Scf.step in
      Alcotest.(check int) (at ^ " index") x.Scf.step y.Scf.step;
      (* Bit-for-bit: the trace is derived from the deterministic
         iterates, so float equality is the contract, not a tolerance. *)
      Alcotest.(check bool)
        (at ^ " update_norm bit-for-bit") true
        (Float.equal x.Scf.update_norm y.Scf.update_norm);
      Alcotest.(check bool)
        (at ^ " mixing bit-for-bit") true
        (Float.equal x.Scf.mixing_factor y.Scf.mixing_factor);
      Alcotest.(check int) (at ^ " poisson solves") x.Scf.poisson_solves
        y.Scf.poisson_solves;
      Alcotest.(check bool) (at ^ " restarted") x.Scf.restarted y.Scf.restarted)
    a b

let check_solution_equal label (a : Scf.solution) (b : Scf.solution) =
  Alcotest.(check int) (label ^ ": iterations") a.Scf.iterations b.Scf.iterations;
  Alcotest.(check bool) (label ^ ": current bit-for-bit") true
    (Float.equal a.Scf.current b.Scf.current);
  Alcotest.(check bool) (label ^ ": total charge bit-for-bit") true
    (Float.equal a.Scf.charge b.Scf.charge);
  Array.iteri
    (fun i u ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: potential site %d" label i)
        true
        (Float.equal u b.Scf.potential.(i)))
    a.Scf.potential;
  check_trace_equal label a.Scf.trace b.Scf.trace

let check_trace_shape label (s : Scf.solution) =
  (* Structural invariants every solve must satisfy, golden or not. *)
  Alcotest.(check int)
    (label ^ ": one entry per step")
    (s.Scf.iterations + 1)
    (List.length s.Scf.trace);
  List.iteri
    (fun k (tr : Scf.trace) ->
      Alcotest.(check int) (label ^ ": steps are chronological") k tr.Scf.step;
      Alcotest.(check bool) (label ^ ": update norm finite/positive") true
        (Float.is_finite tr.Scf.update_norm && tr.Scf.update_norm >= 0.);
      Alcotest.(check bool) (label ^ ": poisson solves > 0") true
        (tr.Scf.poisson_solves > 0))
    s.Scf.trace;
  let terminal = List.nth s.Scf.trace s.Scf.iterations in
  Alcotest.(check bool) (label ^ ": terminal mixing is 0") true
    (Float.equal terminal.Scf.mixing_factor 0.)

let check_monotone_tail label (s : Scf.solution) =
  (* The last few update norms must decrease strictly: convergence, not
     a lucky dip.  Four entries is calibrated against both golden
     devices (N=15 has a non-monotone excursion mid-run at steps 2-3;
     the tail is clean). *)
  let norms = List.map (fun (t : Scf.trace) -> t.Scf.update_norm) s.Scf.trace in
  let tail_len = min 4 (List.length norms) in
  let tail =
    List.filteri (fun i _ -> i >= List.length norms - tail_len) norms
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: tail decreasing (%.3g > %.3g)" label a b)
        true (a > b);
      check rest
    | [ _ ] | [] -> ()
  in
  check tail

let golden_cases =
  [ ("scf_n12", tiny_device (), "golden/scf_n12.trace");
    ("scf_n15", tiny_device ~gnr_index:15 (), "golden/scf_n15.trace") ]

let skip_under_scf_faults () =
  skip_if_fault_armed [ "scf.charge"; "scf.poisson" ]

let test_run_to_run () =
  skip_under_scf_faults ();
  List.iter
    (fun (name, p, _) ->
      let a = Scf.solve p ~vg ~vd in
      let b = Scf.solve p ~vg ~vd in
      check_solution_equal (name ^ " run-to-run") a b;
      check_trace_shape name a;
      check_monotone_tail name a)
    golden_cases

let test_sequential_vs_parallel () =
  skip_under_scf_faults ();
  List.iter
    (fun (name, p, _) ->
      let seq = at_width 1 (fun () -> Scf.solve p ~vg ~vd) in
      check_solution_equal (name ^ " seq-vs-par") seq (Scf.solve p ~vg ~vd);
      at_width 5 (fun () ->
          check_solution_equal (name ^ " seq-vs-par domains=5") seq
            (Scf.solve p ~vg ~vd)))
    golden_cases

let test_against_golden_files () =
  skip_under_scf_faults ();
  List.iter
    (fun (name, p, path) ->
      let g = parse_golden path in
      let s = Scf.solve p ~vg ~vd in
      Alcotest.(check int) (name ^ ": golden iteration count") g.g_iterations
        s.Scf.iterations;
      Alcotest.(check int)
        (name ^ ": golden trace length")
        (List.length g.g_steps)
        (List.length s.Scf.trace);
      List.iter2
        (fun (gs, gu, gm, gp, gr) (tr : Scf.trace) ->
          let at = Printf.sprintf "%s golden step %d" name gs in
          Alcotest.(check int) (at ^ ": index") gs tr.Scf.step;
          (* Residuals to 1e-6 relative: same iteration structure on any
             platform, last-bit libm variation tolerated. *)
          approx_rel ~rel:1e-6 (at ^ ": update norm") gu tr.Scf.update_norm;
          Alcotest.(check bool) (at ^ ": mixing factor") true
            (Float.abs (gm -. tr.Scf.mixing_factor) < 1e-12);
          Alcotest.(check int) (at ^ ": poisson solves") gp tr.Scf.poisson_solves;
          Alcotest.(check bool) (at ^ ": restarted") gr tr.Scf.restarted)
        g.g_steps s.Scf.trace)
    golden_cases

let suite =
  [
    Alcotest.test_case "trace run-to-run reproducible" `Quick test_run_to_run;
    Alcotest.test_case "trace sequential = parallel" `Quick
      test_sequential_vs_parallel;
    Alcotest.test_case "trace matches golden files" `Quick
      test_against_golden_files;
  ]
