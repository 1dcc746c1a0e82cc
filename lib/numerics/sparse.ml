type t = {
  n : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

module Builder = struct
  type entry = { col : int; mutable value : float }
  type builder_t = { size : int; rows : (int, entry) Hashtbl.t array }
  type t = builder_t

  let create n =
    if n <= 0 then invalid_arg "Sparse.Builder.create: n must be positive";
    { size = n; rows = Array.init n (fun _ -> Hashtbl.create 8) }

  let add b i j v =
    if i < 0 || i >= b.size || j < 0 || j >= b.size then
      invalid_arg "Sparse.Builder.add: index out of range";
    match Hashtbl.find_opt b.rows.(i) j with
    | Some e -> e.value <- e.value +. v
    | None -> Hashtbl.add b.rows.(i) j { col = j; value = v }

  let finalize b =
    let counts = Array.map Hashtbl.length b.rows in
    let nnz = Array.fold_left ( + ) 0 counts in
    let row_ptr = Array.make (b.size + 1) 0 in
    for i = 0 to b.size - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + counts.(i)
    done;
    let col_idx = Array.make nnz 0 and values = Array.make nnz 0. in
    for i = 0 to b.size - 1 do
      let entries = Hashtbl.fold (fun _ e acc -> e :: acc) b.rows.(i) [] in
      let sorted = List.sort (fun a b -> compare a.col b.col) entries in
      List.iteri
        (fun k e ->
          col_idx.(row_ptr.(i) + k) <- e.col;
          values.(row_ptr.(i) + k) <- e.value)
        sorted
    done;
    { n = b.size; row_ptr; col_idx; values }
end

let mul_vec m x =
  if Array.length x <> m.n then invalid_arg "Sparse.mul_vec: dimension mismatch";
  let y = Array.make m.n 0. in
  for i = 0 to m.n - 1 do
    let acc = ref 0. in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    y.(i) <- !acc
  done;
  y

let diagonal m =
  let d = Array.make m.n 0. in
  for i = 0 to m.n - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      if m.col_idx.(k) = i then d.(i) <- m.values.(k)
    done
  done;
  d

let cg_calls = Obs.Counter.make "sparse.cg.calls"
let cg_iters = Obs.Counter.make "sparse.cg.iterations"
let cg_failures = Obs.Counter.make "sparse.cg.no_convergence"
let cg_hist = Obs.Histogram.make "sparse.cg.iterations"
let sor_calls = Obs.Counter.make "sparse.sor.calls"
let sor_iters = Obs.Counter.make "sparse.sor.iterations"
let sor_failures = Obs.Counter.make "sparse.sor.no_convergence"

(* Fault-injection site (docs/ROBUST.md): an armed campaign can make a cg
   call fail before iterating, as the typed Iterative_no_convergence its
   callers already handle, so recovery ladders (poisson3d retry/SOR
   fallback) are exercisable deterministically.  A single branch when
   disarmed. *)
let fault_cg = Fault.site "sparse.cg"

let cg ?max_iter ?(tol = 1e-10) ?x0 m b =
  let n = m.n in
  let max_iter = match max_iter with Some v -> v | None -> 4 * n in
  if Fault.should_fail fault_cg then begin
    Obs.Counter.incr cg_calls;
    Obs.Counter.incr cg_failures;
    Robust_error.raise_
      (Robust_error.Iterative_no_convergence
         { solver = "cg"; iterations = 0; residual = infinity })
  end;
  let x = match x0 with Some v -> Array.copy v | None -> Array.make n 0. in
  let d = diagonal m in
  let precond r = Array.mapi (fun i ri -> ri /. d.(i)) r in
  let r = Vec.sub b (mul_vec m x) in
  let z = precond r in
  let p = Array.copy z in
  let rz = ref (Vec.dot r z) in
  let bnorm = Float.max (Vec.norm2 b) Tol.underflow_guard in
  Obs.Counter.incr cg_calls;
  let finish it =
    Obs.Counter.add cg_iters it;
    Obs.Histogram.observe cg_hist it
  in
  let rec loop it =
    if Vec.norm2 r /. bnorm <= tol then begin
      finish it;
      (x, it)
    end
    else if it >= max_iter then begin
      finish it;
      Obs.Counter.incr cg_failures;
      Robust_error.raise_
        (Robust_error.Iterative_no_convergence
           { solver = "cg"; iterations = it; residual = Vec.norm2 r /. bnorm })
    end
    else begin
      let ap = mul_vec m p in
      let alpha = !rz /. Vec.dot p ap in
      Vec.axpy alpha p x;
      Vec.axpy (-.alpha) ap r;
      let z = precond r in
      let rz' = Vec.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      loop (it + 1)
    end
  in
  loop 0

let sor ?(omega = 1.7) ?max_iter ?(tol = 1e-10) ?x0 m b =
  let n = m.n in
  let max_iter = match max_iter with Some v -> v | None -> 40 * n in
  let x = match x0 with Some v -> Array.copy v | None -> Array.make n 0. in
  let d = diagonal m in
  let bnorm = Float.max (Vec.norm2 b) Tol.underflow_guard in
  let residual_norm () = Vec.norm2 (Vec.sub b (mul_vec m x)) /. bnorm in
  Obs.Counter.incr sor_calls;
  let rec loop it =
    if residual_norm () <= tol then begin
      Obs.Counter.add sor_iters it;
      (x, it)
    end
    else if it >= max_iter then begin
      Obs.Counter.add sor_iters it;
      Obs.Counter.incr sor_failures;
      Robust_error.raise_
        (Robust_error.Iterative_no_convergence
           { solver = "sor"; iterations = it; residual = residual_norm () })
    end
    else begin
      for i = 0 to n - 1 do
        let sigma = ref 0. in
        for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
          let j = m.col_idx.(k) in
          if j <> i then sigma := !sigma +. (m.values.(k) *. x.(j))
        done;
        x.(i) <- ((1. -. omega) *. x.(i)) +. (omega *. (b.(i) -. !sigma) /. d.(i))
      done;
      loop (it + 1)
    end
  in
  loop 0
