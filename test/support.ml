(* Shared helpers for the test suite. *)

let approx ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %g)" msg expected actual eps

let approx_rel ?(rel = 1e-6) msg expected actual =
  let scale = Float.max (Float.abs expected) Tol.underflow_guard in
  if Float.abs (expected -. actual) /. scale > rel then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel %g)" msg expected actual rel

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Invalid_argument, got %s" msg (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" msg

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Skip a test whose exact (often bit-for-bit) assertions are only
   meaningful while no fault campaign can fire inside it — the CI fault
   legs run the whole suite under GNRFET_FAULT (docs/ROBUST.md). *)
let skip_if_fault_armed sites =
  if List.exists Fault.site_armed sites then Alcotest.skip ()

(* Run [f] with the environment variable [key] set to [value], then put
   the old value back.  OCaml's Unix has no unsetenv, so a variable that
   was unset comes back empty, which the GNRFET_* readers take as unset. *)
let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

(* Run [f] at pool width [d]: GNRFET_DOMAINS is the only width setting.
   Call it on the test's own thread, around any pool tasks or threads
   that read the width: putenv from several domains at once races. *)
let at_width d f = with_env "GNRFET_DOMAINS" (string_of_int d) f

(* Small deterministic RNG for fixtures. *)
let rng = Rng.create 2024

let random_vector n = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.)

let random_matrix n =
  Matrix.init n n (fun _ _ -> Rng.uniform rng (-1.) 1.)

let diag_dominant n =
  let m = random_matrix n in
  Matrix.init n n (fun i j ->
      if i = j then 4. +. Float.abs (Matrix.get m i j) else Matrix.get m i j /. 2.)

(* A synthetic, fast Iv_table shaped like a well-behaved ambipolar GNRFET:
   lets circuit-level tests run without any quantum simulation.  Electron
   branch above vg0, hole branch below, saturation in vd, plus a charge
   table consistent with a simple gate capacitance. *)
let synthetic_table ?(i_on = 2e-6) ?(vg0 = 0.25) ?(key = "synthetic") () =
  let vg = Vec.linspace (-0.3) 1.1 57 in
  let vd = Vec.linspace 0. 0.8 17 in
  let branch x = if x > 0. then x *. x /. (0.08 +. x) else 0. in
  let current vg vd =
    let vmid = vg0 +. (vd /. 2.) -. 0.125 in
    let sat = vd /. (vd +. 0.1) in
    let electron = branch (vg -. vmid) in
    let hole = branch (vmid -. (vg -. vd)) *. 0.02 in
    (* Exponential subthreshold floors keep the conductance finite
       everywhere, like the real quantum tables. *)
    let floor =
      1e-4 *. (exp ((vg -. vmid) /. 0.06) +. (0.02 *. exp ((vmid -. vg +. vd) /. 0.06)))
    in
    let floor = Float.min floor 0.3 in
    i_on *. sat *. (electron +. hole +. floor +. 1e-7)
  in
  let charge vg vd =
    let c = 4e-19 in
    c *. -.(Float.max 0. (vg -. vg0 -. (vd /. 4.)))
  in
  {
    Iv_table.key;
    vg;
    vd;
    current = Array.map (fun g -> Array.map (fun d -> current g d) vd) vg;
    charge = Array.map (fun g -> Array.map (fun d -> charge g d) vd) vg;
    failed_points = [];
  }

(* A fast intrinsic device for SCF-level integration tests: short channel
   and a coarse energy grid. *)
let tiny_device ?(gnr_index = 12) () =
  {
    (Params.default ~gnr_index ()) with
    Params.channel_length = 6e-9;
    energy_step = 8e-3;
    energy_margin = 0.3;
  }

(* Bit-for-bit comparison of two float arrays: same length and
   [Float.equal] at every index (the oracle checks for rewritten
   kernels, where a last-bit drift is a failure). *)
let check_bits name expected actual =
  Alcotest.(check int) (name ^ ": length") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun i v ->
      if not (Float.equal v actual.(i)) then
        Alcotest.failf "%s: index %d differs: expected %h, got %h" name i v
          actual.(i))
    expected

(* Minor-heap words allocated by one call of [f], measured after a
   warm-up call so one-time set-up does not count (allocation guards). *)
let minor_words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0
