(* Tests for Matrix, Cmatrix, Eigen, Tridiag, Banded, Sparse. *)

open Support

let test_matrix_basics () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  approx "get" 3. (Matrix.get a 1 0);
  let at = Matrix.transpose a in
  approx "transpose" 2. (Matrix.get at 1 0);
  let id = Matrix.identity 2 in
  let b = Matrix.mul a id in
  approx "mul identity" 4. (Matrix.get b 1 1);
  let v = Matrix.mul_vec a [| 1.; 1. |] in
  approx "mul_vec" 3. v.(0);
  approx "mul_vec'" 7. v.(1);
  check_raises_invalid "ragged" (fun () ->
      Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |])

let test_matrix_solve () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Matrix.solve a [| 3.; 5. |] in
  (* 2x + y = 3; x + 3y = 5 -> x = 4/5, y = 7/5. *)
  approx ~eps:1e-12 "x" 0.8 x.(0);
  approx ~eps:1e-12 "y" 1.4 x.(1)

let test_matrix_inverse () =
  let a = diag_dominant 6 in
  let ainv = Matrix.inverse a in
  let prod = Matrix.mul a ainv in
  let err = Matrix.max_abs (Matrix.sub prod (Matrix.identity 6)) in
  Alcotest.(check bool) "A * inv(A) = I" true (err < 1e-10)

let test_matrix_singular () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  match Matrix.lu_factor a with
  | exception Numerics_error.Singular { solver = "Matrix.lu_factor"; _ } -> ()
  | exception Numerics_error.Singular { solver; _ } ->
    Alcotest.failf "Singular from unexpected solver %s" solver
  | _ -> Alcotest.fail "expected singularity failure"

let prop_matrix_solve_residual =
  qtest ~count:40 "LU solve residual" QCheck.(int_range 2 10) (fun n ->
      let a = diag_dominant n in
      let b = random_vector n in
      let x = Matrix.solve a b in
      Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b) < 1e-9)

let cx re im = { Complex.re; im }

let test_cmatrix_inverse () =
  let n = 5 in
  let a =
    Cmatrix.init n n (fun i j ->
        if i = j then cx (3. +. Rng.uniform rng 0. 1.) 0.5
        else cx (Rng.uniform rng (-0.4) 0.4) (Rng.uniform rng (-0.4) 0.4))
  in
  let ainv = Cmatrix.inverse a in
  let err = Cmatrix.frobenius_diff (Cmatrix.mul a ainv) (Cmatrix.identity n) in
  Alcotest.(check bool) "A * inv(A) = I (complex)" true (err < 1e-10)

let test_cmatrix_solve_matches_inverse () =
  let n = 4 in
  let a =
    Cmatrix.init n n (fun i j ->
        if i = j then cx 2.5 1. else cx (0.3 /. float_of_int (1 + i + j)) (-0.2))
  in
  let b = Array.init n (fun i -> cx (float_of_int i) 1.) in
  let x = Cmatrix.solve a b in
  let x2 =
    let ainv = Cmatrix.inverse a in
    Array.init n (fun i ->
        let acc = ref Complex.zero in
        for j = 0 to n - 1 do
          acc := Complex.add !acc (Complex.mul (Cmatrix.get ainv i j) b.(j))
        done;
        !acc)
  in
  Array.iteri
    (fun i v -> approx ~eps:1e-10 "solve vs inverse" (Complex.norm x2.(i)) (Complex.norm v))
    x

let test_cmatrix_adjoint () =
  let a = Cmatrix.init 2 3 (fun i j -> cx (float_of_int i) (float_of_int j)) in
  let ad = Cmatrix.adjoint a in
  let rows, cols = Cmatrix.dims ad in
  Alcotest.(check (pair int int)) "dims" (3, 2) (rows, cols);
  let z = Cmatrix.get ad 2 1 in
  approx "re" 1. z.Complex.re;
  approx "im (conjugated)" (-2.) z.Complex.im

let test_eigen_known () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3. *)
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let values, vectors = Eigen.symmetric a in
  approx ~eps:1e-10 "lambda1" 1. values.(0);
  approx ~eps:1e-10 "lambda2" 3. values.(1);
  (* Check A v = lambda v for the first column. *)
  let v = Array.init 2 (fun i -> Matrix.get vectors i 0) in
  let av = Matrix.mul_vec a v in
  approx ~eps:1e-9 "eigvec residual" 0. (Vec.norm_inf (Vec.sub av (Vec.scale values.(0) v)))

let test_eigen_trace () =
  let a = diag_dominant 7 in
  let sym = Matrix.init 7 7 (fun i j -> 0.5 *. (Matrix.get a i j +. Matrix.get a j i)) in
  let values = Eigen.symmetric_values sym in
  let trace = ref 0. in
  for i = 0 to 6 do
    trace := !trace +. Matrix.get sym i i
  done;
  approx ~eps:1e-8 "sum of eigenvalues = trace" !trace (Vec.sum values)

let test_eigen_hermitian () =
  (* [[1, i],[-i, 1]] has eigenvalues 0 and 2. *)
  let h =
    Cmatrix.init 2 2 (fun i j ->
        match (i, j) with
        | 0, 0 | 1, 1 -> cx 1. 0.
        | 0, 1 -> cx 0. 1.
        | 1, 0 -> cx 0. (-1.)
        | _ -> assert false)
  in
  let values = Eigen.hermitian_values h in
  approx ~eps:1e-9 "lambda1" 0. values.(0);
  approx ~eps:1e-9 "lambda2" 2. values.(1)

let test_tridiag () =
  let n = 12 in
  let lower = Array.make n (-1.) and upper = Array.make n (-1.) in
  let diag = Array.make n 3. in
  let x_true = random_vector n in
  let rhs =
    Array.init n (fun i ->
        (3. *. x_true.(i))
        -. (if i > 0 then x_true.(i - 1) else 0.)
        -. if i < n - 1 then x_true.(i + 1) else 0.)
  in
  let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
  approx ~eps:1e-10 "tridiag solve" 0. (Vec.max_abs_diff x x_true)

let test_tridiag_complex () =
  let n = 6 in
  let lower = Array.make n (cx (-0.5) 0.1) in
  let upper = Array.make n (cx (-0.5) (-0.1)) in
  let diag = Array.make n (cx 3. 0.4) in
  let x_true = Array.init n (fun i -> cx (float_of_int i) 0.5) in
  let rhs =
    Array.init n (fun k ->
        let open Complex in
        let acc = mul diag.(k) x_true.(k) in
        let acc = if k > 0 then add acc (mul lower.(k) x_true.(k - 1)) else acc in
        if k < n - 1 then add acc (mul upper.(k) x_true.(k + 1)) else acc)
  in
  let x = Tridiag.solve_complex ~lower ~diag ~upper ~rhs in
  Array.iteri
    (fun i v ->
      approx ~eps:1e-10 "complex tridiag" 0. (Complex.norm (Complex.sub v x_true.(i))))
    x

let test_banded_vs_dense () =
  let n = 15 and kl = 3 in
  let dense =
    Matrix.init n n (fun i j ->
        if abs (i - j) > kl then 0.
        else if i = j then 5.
        else Rng.uniform rng (-0.5) 0.5)
  in
  let banded = Banded.create ~n ~bandwidth:kl in
  for i = 0 to n - 1 do
    for j = max 0 (i - kl) to min (n - 1) (i + kl) do
      Banded.set banded i j (Matrix.get dense i j)
    done
  done;
  let b = random_vector n in
  let x_dense = Matrix.solve dense b in
  let x_banded = Banded.solve_fresh banded b in
  approx ~eps:1e-9 "banded = dense" 0. (Vec.max_abs_diff x_dense x_banded)

let test_banded_errors () =
  let m = Banded.create ~n:5 ~bandwidth:1 in
  check_raises_invalid "outside band" (fun () -> Banded.set m 0 3 1.);
  Banded.set m 0 0 1.;
  approx "get inside" 1. (Banded.get m 0 0);
  approx "get outside band" 0. (Banded.get m 0 4)

let laplacian_1d n =
  let b = Sparse.Builder.create n in
  for i = 0 to n - 1 do
    Sparse.Builder.add b i i 2.;
    if i > 0 then Sparse.Builder.add b i (i - 1) (-1.);
    if i < n - 1 then Sparse.Builder.add b i (i + 1) (-1.)
  done;
  Sparse.Builder.finalize b

let test_sparse_cg () =
  skip_if_fault_armed [ "sparse.cg" ];
  let n = 40 in
  let a = laplacian_1d n in
  let x_true = random_vector n in
  let b = Sparse.mul_vec a x_true in
  let x, iters = Sparse.cg a b in
  Alcotest.(check bool) "iterations positive" true (iters > 0);
  approx ~eps:1e-7 "cg solution" 0. (Vec.max_abs_diff x x_true)

let test_sparse_sor () =
  let n = 25 in
  let a = laplacian_1d n in
  let x_true = random_vector n in
  let b = Sparse.mul_vec a x_true in
  let x, _ = Sparse.sor ~tol:1e-11 a b in
  approx ~eps:1e-7 "sor solution" 0. (Vec.max_abs_diff x x_true)

let test_sparse_no_convergence_typed () =
  skip_if_fault_armed [ "sparse.cg" ];
  (* An unreachable tolerance must raise the typed exception with the
     iteration cap and the achieved residual — not a bare Failure. *)
  let n = 30 in
  let a = laplacian_1d n in
  let b = Sparse.mul_vec a (random_vector n) in
  (* The default 1e-10 tolerance is unreachable in so few iterations. *)
  (match Sparse.cg ~max_iter:2 a b with
  | exception Sparse.No_convergence { solver; iterations; residual } ->
    Alcotest.(check string) "cg solver tag" "cg" solver;
    Alcotest.(check int) "cg iterations = cap" 2 iterations;
    Alcotest.(check bool) "cg residual recorded" true
      (Float.is_finite residual && residual > 0.)
  | _ -> Alcotest.fail "cg: expected No_convergence");
  match Sparse.sor ~max_iter:3 a b with
  | exception Sparse.No_convergence { solver; iterations; residual } ->
    Alcotest.(check string) "sor solver tag" "sor" solver;
    Alcotest.(check int) "sor iterations = cap" 3 iterations;
    Alcotest.(check bool) "sor residual recorded" true
      (Float.is_finite residual && residual > 0.)
  | _ -> Alcotest.fail "sor: expected No_convergence"

let test_sparse_builder_duplicates () =
  let b = Sparse.Builder.create 2 in
  Sparse.Builder.add b 0 0 1.;
  Sparse.Builder.add b 0 0 2.;
  Sparse.Builder.add b 1 1 1.;
  let m = Sparse.Builder.finalize b in
  let d = Sparse.diagonal m in
  approx "duplicates sum" 3. d.(0)

(* A seeded, strictly diagonally dominant band matrix (unfactorized). *)
let band_system rng ~n ~kl =
  let m = Banded.create ~n ~bandwidth:kl in
  for i = 0 to n - 1 do
    for j = max 0 (i - kl) to min (n - 1) (i + kl) do
      Banded.set m i j
        (if i = j then (2. *. float_of_int kl) +. Rng.uniform rng 0.5 1.5
         else Rng.uniform rng (-1.) 1.)
    done
  done;
  m

(* The substitution loops [Banded.solve] replaced, kept as the
   bit-for-bit oracle: every band element read through an accessor. *)
let accessor_solve m ~n ~kl b =
  let x = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref x.(i) in
    for j = max 0 (i - kl) to i - 1 do
      acc := !acc -. (Banded.get m i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to min (n - 1) (i + kl) do
      acc := !acc -. (Banded.get m i j *. x.(j))
    done;
    x.(i) <- !acc /. Banded.get m i i
  done;
  x

let test_banded_solve_bit_identical () =
  let rng = Rng.create 15 in
  List.iter
    (fun (n, kl) ->
      let m = band_system rng ~n ~kl in
      Banded.factorize m;
      for _ = 1 to 3 do
        let b = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
        check_bits
          (Printf.sprintf "n=%d kl=%d" n kl)
          (accessor_solve m ~n ~kl b) (Banded.solve m b)
      done)
    [ (1, 0); (2, 1); (9, 4); (40, 3); (790, 13) ]

let test_banded_solve_tail () =
  (* A right-hand side that changes only from row [from] on re-solves
     exactly: rows below [from] carry the old forward substitute. *)
  let rng = Rng.create 16 in
  let n = 120 and kl = 7 in
  let m = band_system rng ~n ~kl in
  Banded.factorize m;
  let b = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
  let y = Array.copy b in
  Banded.forward_in_place m y;
  List.iter
    (fun from ->
      let b' = Array.mapi (fun i v -> if i < from then v else Rng.uniform rng (-2.) 2.) b in
      let x = Array.append (Array.sub y 0 from) (Array.sub b' from (n - from)) in
      Banded.solve_tail m x ~from;
      check_bits
        (Printf.sprintf "tail from %d" from)
        (Array.sub (Banded.solve m b') from (n - from))
        (Array.sub x from (n - from));
      check_bits (Printf.sprintf "rows below %d untouched" from) (Array.sub y 0 from)
        (Array.sub x 0 from))
    [ 0; 1; 6; 7; 8; 60; 112; 119 ];
  check_raises_invalid "row out of range" (fun () ->
      Banded.solve_tail m (Array.copy b) ~from:n)

let test_eigen_values_bit_identical () =
  let rng = Rng.create 17 in
  List.iter
    (fun n ->
      (* Asymmetric input: both paths symmetrize it on entry. *)
      let a = Matrix.init n n (fun _ _ -> Rng.uniform rng (-1.) 1.) in
      check_bits
        (Printf.sprintf "n=%d" n)
        (fst (Eigen.symmetric a))
        (Eigen.symmetric_values a))
    [ 1; 2; 5; 12; 48 ];
  (* Degenerate spectrum: the Hermitian embedding doubles every value. *)
  let tb = Tight_binding.make 12 in
  List.iter
    (fun k ->
      let h = Tight_binding.bloch tb k in
      let rows, _ = Cmatrix.dims h in
      let embed =
        Matrix.init (2 * rows) (2 * rows) (fun i j ->
            let z = Cmatrix.get h (i mod rows) (j mod rows) in
            if i / rows = j / rows then z.Complex.re
            else if i / rows = 0 then -.z.Complex.im
            else z.Complex.im)
      in
      let all = fst (Eigen.symmetric embed) in
      check_bits
        (Printf.sprintf "hermitian k=%g" k)
        (Array.init rows (fun i -> 0.5 *. (all.(2 * i) +. all.((2 * i) + 1))))
        (Eigen.hermitian_values h))
    [ 0.; 0.7; Float.pi ]

(* Allocation guards: each bound is 4x the kernel's measured minor-heap
   allocation.  The default 15 nm device's Poisson system has
   (sites + 2) x 11 nodes less the two point contacts, half-bandwidth 13:
   there [Banded.solve] measured 0 minor words (its 790-float result is
   allocated directly in the major heap). *)
let test_banded_solve_allocation () =
  let nx = Array.length (Scf.site_positions (Params.default ())) + 2 in
  let n = (nx * 11) - 2 and kl = 13 in
  let rng = Rng.create 18 in
  let m = band_system rng ~n ~kl in
  Banded.factorize m;
  let b = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
  let words = minor_words (fun () -> ignore (Banded.solve m b)) in
  if words > 0. then
    Alcotest.failf "Banded.solve allocated %.0f minor words (bound 0)" words

let test_hermitian_values_allocation () =
  (* Measured 51,254 minor words, nearly all of it the once-per-sweep
     convergence test and the embedding's construction. *)
  let h = Tight_binding.bloch (Tight_binding.make 12) 0.7 in
  let words = minor_words (fun () -> ignore (Eigen.hermitian_values h)) in
  if words > 4. *. 51_254. then
    Alcotest.failf "Eigen.hermitian_values allocated %.0f minor words (bound %.0f)"
      words (4. *. 51_254.)

let suite =
  [
    Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
    Alcotest.test_case "matrix solve" `Quick test_matrix_solve;
    Alcotest.test_case "matrix inverse" `Quick test_matrix_inverse;
    Alcotest.test_case "matrix singular" `Quick test_matrix_singular;
    prop_matrix_solve_residual;
    Alcotest.test_case "cmatrix inverse" `Quick test_cmatrix_inverse;
    Alcotest.test_case "cmatrix solve" `Quick test_cmatrix_solve_matches_inverse;
    Alcotest.test_case "cmatrix adjoint" `Quick test_cmatrix_adjoint;
    Alcotest.test_case "eigen 2x2" `Quick test_eigen_known;
    Alcotest.test_case "eigen trace" `Quick test_eigen_trace;
    Alcotest.test_case "eigen hermitian" `Quick test_eigen_hermitian;
    Alcotest.test_case "tridiag real" `Quick test_tridiag;
    Alcotest.test_case "tridiag complex" `Quick test_tridiag_complex;
    Alcotest.test_case "banded vs dense" `Quick test_banded_vs_dense;
    Alcotest.test_case "banded errors" `Quick test_banded_errors;
    Alcotest.test_case "sparse cg" `Quick test_sparse_cg;
    Alcotest.test_case "sparse sor" `Quick test_sparse_sor;
    Alcotest.test_case "sparse typed no-convergence" `Quick
      test_sparse_no_convergence_typed;
    Alcotest.test_case "sparse builder duplicates" `Quick test_sparse_builder_duplicates;
    Alcotest.test_case "banded solve bit-identical" `Quick test_banded_solve_bit_identical;
    Alcotest.test_case "banded solve_tail" `Quick test_banded_solve_tail;
    Alcotest.test_case "eigen values-only bit-identical" `Quick
      test_eigen_values_bit_identical;
    Alcotest.test_case "banded solve allocation" `Quick test_banded_solve_allocation;
    Alcotest.test_case "hermitian_values allocation" `Quick
      test_hermitian_values_allocation;
  ]
