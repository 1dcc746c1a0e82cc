(* Golden-fixture generator for the regression suites.

   Writes test/golden/scf_n12.trace and test/golden/scf_n15.trace — the
   per-iteration convergence trace of Scf.solve on the two fixed reduced
   devices that test/test_golden_trace.ml checks against — and
   test/golden/{tiny,specials}.gnrtbl, the binary gnrtbl fixtures that
   test/test_tbl_format.ml holds the on-disk format to (docs/FORMAT.md).

   Run from the repository root after an INTENTIONAL solver or format
   change:

     dune exec test/gen_golden.exe

   then inspect the diff of test/golden/* before committing — a changed
   trace is a changed solver, a changed gnrtbl fixture is a format break
   (which must also bump Tbl_format.version), and the diff is the
   review artifact.

   The device definitions here must match golden_device in
   test/test_golden_trace.ml (a 6 nm channel with the coarse test energy
   grid, i.e. Support.tiny_device); the fixture tables must match
   golden_tiny_table / specials_table in test/test_tbl_format.ml. *)

let golden_device gnr_index =
  {
    (Params.default ~gnr_index ()) with
    Params.channel_length = 6e-9;
    energy_step = 8e-3;
    energy_margin = 0.3;
  }

let vg = 0.4
let vd = 0.3

let write gnr_index path =
  let p = golden_device gnr_index in
  let s = Scf.solve p ~vg ~vd in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "# gnrfet golden SCF convergence trace\n";
  out "# device: gnr_index=%d channel_length=6e-9 energy_step=8e-3 energy_margin=0.3\n"
    gnr_index;
  out "# bias: vg=%g vd=%g (solver defaults: tol=1e-3, Anderson mixing)\n" vg vd;
  out "# regenerate: dune exec test/gen_golden.exe   (from the repo root)\n";
  out "# columns: step update_norm mixing poisson restarted\n";
  out "iterations %d\n" s.Scf.iterations;
  List.iter
    (fun (tr : Scf.trace) ->
      out "step %d %.17g %.17g %d %d\n" tr.Scf.step tr.Scf.update_norm
        tr.Scf.mixing_factor tr.Scf.poisson_solves
        (if tr.Scf.restarted then 1 else 0))
    s.Scf.trace;
  close_out oc;
  Printf.printf "wrote %s (%d iterations, final residual %.3g V)\n%!" path
    s.Scf.iterations s.Scf.residual

(* gnrtbl binary fixtures (must match test/test_tbl_format.ml). *)

let golden_tiny_table =
  {
    Iv_table.key = "golden-tiny";
    vg = [| 0.0; 0.5 |];
    vd = [| 0.0; 0.25; 0.5 |];
    current = [| [| 1e-9; 2e-9; 3e-9 |]; [| 4e-9; 5e-9; 6e-9 |] |];
    charge = [| [| -1e-19; -2e-19; -3e-19 |]; [| -4e-19; -5e-19; -6e-19 |] |];
    failed_points = [];
  }

let specials_table =
  let nan_pinned = Int64.float_of_bits 0x7FF8000000000000L in
  {
    Iv_table.key = "specials";
    (* round-trip payloads, not tolerances.  gnrlint: allow magic-tol *)
    vg = [| -0.0; 4.9e-324; Float.max_float |];
    vd = [| neg_infinity; 0.0 |];
    current =
      [|
        (* gnrlint: allow magic-tol *)
        [| nan_pinned; 1e-300 |];
        [| infinity; -0.0 |];
        [| Float.min_float; -1.5e-6 |];
      |];
    charge =
      (* gnrlint: allow magic-tol *)
      [| [| 0.25; -0.25 |]; [| 4.9e-324; -4.9e-324 |]; [| 1e308; -1e308 |] |];
    failed_points = [ (0, 1); (2, 0) ];
  }

let write_gnrtbl path ~cache_key table =
  Tbl_format.write ~path ~cache_key table;
  Printf.printf "wrote %s (%d bytes)\n%!" path
    (String.length (Tbl_format.encode ~cache_key table))

let () =
  write 12 "test/golden/scf_n12.trace";
  write 15 "test/golden/scf_n15.trace";
  write_gnrtbl "test/golden/tiny.gnrtbl" ~cache_key:"golden-cache-key-tiny"
    golden_tiny_table;
  write_gnrtbl "test/golden/specials.gnrtbl"
    ~cache_key:"golden-cache-key-specials" specials_table
