(* Unit and property tests for Vec, Stats, Rng, Lstsq, Mixing, Parallel. *)

open Support

let test_linspace () =
  let xs = Vec.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  approx "first" 0. xs.(0);
  approx "last" 1. xs.(4);
  approx "step" 0.25 (xs.(1) -. xs.(0));
  let single = Vec.linspace 3. 9. 1 in
  approx "n=1" 3. single.(0);
  check_raises_invalid "n=0" (fun () -> Vec.linspace 0. 1. 0)

let test_dot_axpy () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  approx "dot" 32. (Vec.dot x y);
  let z = Array.copy y in
  Vec.axpy 2. x z;
  approx "axpy" (4. +. 2.) z.(0);
  approx "axpy last" (6. +. 6.) z.(2);
  check_raises_invalid "mismatch" (fun () -> Vec.dot x [| 1. |])

let test_norms_extrema () =
  let x = [| 3.; -4.; 0. |] in
  approx "norm2" 5. (Vec.norm2 x);
  approx "norm_inf" 4. (Vec.norm_inf x);
  Alcotest.(check int) "argmin" 1 (Vec.argmin x);
  Alcotest.(check int) "argmax" 0 (Vec.argmax x);
  approx "minimum" (-4.) (Vec.minimum x);
  approx "maximum" 3. (Vec.maximum x);
  approx "mean" (-1. /. 3.) (Vec.mean x);
  approx "max_abs_diff" 4. (Vec.max_abs_diff x [| 3.; 0.; 0. |])

let prop_dot_symmetry =
  qtest "dot symmetry" QCheck.(pair (list_of_size Gen.(1 -- 20) float) unit)
    (fun (l, ()) ->
      let x = Array.of_list (List.map (fun v -> Float.rem v 1e6) l) in
      let y = Array.map (fun v -> v +. 1.) x in
      Float.abs (Vec.dot x y -. Vec.dot y x) <= 1e-6 *. (1. +. Float.abs (Vec.dot x y)))

let prop_norm_triangle =
  qtest "norm2 triangle inequality"
    QCheck.(list_of_size Gen.(1 -- 16) (float_bound_inclusive 100.))
    (fun l ->
      let x = Array.of_list l in
      let y = Array.map (fun v -> 1. -. v) x in
      Vec.norm2 (Vec.add x y) <= Vec.norm2 x +. Vec.norm2 y +. 1e-9)

let test_stats_summary () =
  let s = Stats.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  approx "mean" 5. s.Stats.mean;
  approx ~eps:1e-6 "std" 2.13809 s.Stats.std;
  approx "median" 4.5 s.Stats.median;
  approx "min" 2. s.Stats.min;
  approx "max" 9. s.Stats.max;
  Alcotest.(check int) "n" 8 s.Stats.n

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  approx "p0" 1. (Stats.percentile xs 0.);
  approx "p100" 4. (Stats.percentile xs 100.);
  approx "p50" 2.5 (Stats.percentile xs 50.);
  check_raises_invalid "p>100" (fun () -> Stats.percentile xs 101.)

let test_histogram () =
  let h = Stats.histogram ~bins:4 [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "bins" 4 (Array.length h.Stats.counts);
  Alcotest.(check int) "total count" 5 (Array.fold_left ( + ) 0 h.Stats.counts);
  let centers = Stats.bin_centers h in
  approx "first center" 0.5 centers.(0);
  (* degenerate sample *)
  let h1 = Stats.histogram ~bins:3 [| 2.; 2. |] in
  Alcotest.(check int) "degenerate total" 2 (Array.fold_left ( + ) 0 h1.Stats.counts)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    approx "same stream" (Rng.float a) (Rng.float b)
  done;
  let c = Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.float a <> Rng.float c then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_ranges () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let u = Rng.float r in
    Alcotest.(check bool) "[0,1)" true (u >= 0. && u < 1.);
    let k = Rng.int r 7 in
    Alcotest.(check bool) "int range" true (k >= 0 && k < 7)
  done;
  check_raises_invalid "int 0" (fun () -> Rng.int r 0)

let test_rng_normal_moments () =
  let r = Rng.create 5 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.normal r) in
  let s = Stats.summarize xs in
  approx ~eps:0.05 "normal mean" 0. s.Stats.mean;
  approx ~eps:0.05 "normal std" 1. s.Stats.std

let test_rng_split () =
  let r = Rng.create 13 in
  let r2 = Rng.split r in
  let a = Rng.float r and b = Rng.float r2 in
  Alcotest.(check bool) "split stream differs" true (a <> b)

let test_rng_splitmix64_vector () =
  (* The published splitmix64 reference outputs for seed 0: pins the Rng
     stream (and every seeded study built on it) and the shared
     Fault.splitmix64 mixer it delegates to. *)
  let expected = [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ] in
  let r = Rng.create 0 in
  List.iteri
    (fun i v ->
      Alcotest.(check int64) (Printf.sprintf "Rng.int64 output %d" i) v (Rng.int64 r))
    expected;
  Alcotest.(check int64) "Fault.splitmix64 0" (List.hd expected) (Fault.splitmix64 0L)

let test_lstsq_solve () =
  (* The 9-point Vandermonde system of 1 + 2x + 3x^2: the normal-equations
     kernel behind Anderson mixing recovers the exact coefficients. *)
  let xs = Vec.linspace (-1.) 1. 9 in
  let a = Matrix.init 9 3 (fun i j -> xs.(i) ** float_of_int j) in
  let ys = Array.map (fun x -> 1. +. (2. *. x) +. (3. *. x *. x)) xs in
  let c = Lstsq.solve a ys in
  approx ~eps:1e-8 "c0" 1. c.(0);
  approx ~eps:1e-8 "c1" 2. c.(1);
  approx ~eps:1e-8 "c2" 3. c.(2)

let test_mixing_linear () =
  let m = Mixing.linear ~alpha:0.5 in
  let x = [| 0. |] and gx = [| 1. |] in
  let x' = Mixing.step m ~x ~gx in
  approx "half step" 0.5 x'.(0)

let test_mixing_anderson_converges () =
  (* Fixed point of g(x) = 0.5 x + c is 2c; Anderson should hit it fast. *)
  let c = [| 1.; -2. |] in
  let g x = Array.mapi (fun i v -> (0.5 *. v) +. c.(i)) x in
  let m = Mixing.anderson ~history:3 ~alpha:0.5 () in
  let x = ref [| 0.; 0. |] in
  for _ = 1 to 20 do
    x := Mixing.step m ~x:!x ~gx:(g !x)
  done;
  approx ~eps:1e-6 "fp 0" 2. !x.(0);
  approx ~eps:1e-6 "fp 1" (-4.) !x.(1)

let test_parallel_map () =
  let xs = Array.init 37 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) xs in
  let got = at_width 3 (fun () -> Parallel.map (fun i -> i * i) xs) in
  Alcotest.(check (array int)) "order preserved" expected got;
  at_width 2 @@ fun () ->
  match Parallel.map (fun i -> if i = 5 then failwith "boom" else i) xs with
  | exception Failure msg -> Alcotest.(check string) "exn propagates" "boom" msg
  | _ -> Alcotest.fail "expected failure to propagate"

let suite =
  [
    Alcotest.test_case "linspace" `Quick test_linspace;
    Alcotest.test_case "dot/axpy" `Quick test_dot_axpy;
    Alcotest.test_case "norms and extrema" `Quick test_norms_extrema;
    prop_dot_symmetry;
    prop_norm_triangle;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng normal moments" `Quick test_rng_normal_moments;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "rng splitmix64 reference vector" `Quick
      test_rng_splitmix64_vector;
    Alcotest.test_case "least-squares solve" `Quick test_lstsq_solve;
    Alcotest.test_case "mixing linear" `Quick test_mixing_linear;
    Alcotest.test_case "mixing anderson" `Quick test_mixing_anderson_converges;
    Alcotest.test_case "parallel map" `Quick test_parallel_map;
  ]
