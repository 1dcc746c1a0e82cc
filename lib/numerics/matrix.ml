type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dims";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.init: non-positive dims";
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays rows =
  let r = Array.length rows in
  if r = 0 then invalid_arg "Matrix.of_arrays: no rows";
  let c = Array.length rows.(0) in
  if c = 0 then invalid_arg "Matrix.of_arrays: empty row";
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged rows")
    rows;
  init r c (fun i j -> rows.(i).(j))

let dims m = (m.rows, m.cols)

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

let add_to m i j v =
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. v

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          add_to c i j (aik *. get b k j)
        done
    done
  done;
  c

let mul_vec m x =
  if m.cols <> Array.length x then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (get m i j *. x.(j))
      done;
      !acc)

let elementwise op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> op a.data.(k) b.data.(k)) }

let sub a b = elementwise ( -. ) a b

type lu = { n : int; lu_data : float array; piv : int array }

let lu_factor_in_place n a piv =
  for i = 0 to n - 1 do
    piv.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* Partial pivoting: largest magnitude in column k at or below row k. *)
    let pivot = ref k in
    let best = ref (Float.abs a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs a.((i * n) + k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best < Tol.pivot then
      Robust_error.raise_
        (Robust_error.Singular
           {
             solver = "Matrix.lu_factor";
             detail = Printf.sprintf "singular matrix (pivot column %d)" k;
           });
    if !pivot <> k then begin
      let p = !pivot in
      for j = 0 to n - 1 do
        let tmp = a.((k * n) + j) in
        a.((k * n) + j) <- a.((p * n) + j);
        a.((p * n) + j) <- tmp
      done;
      let tp = piv.(k) in
      piv.(k) <- piv.(p);
      piv.(p) <- tp
    end;
    let akk = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let factor = a.((i * n) + k) /. akk in
      a.((i * n) + k) <- factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (factor *. a.((k * n) + j))
        done
    done
  done

let lu_solve_in_place n a x =
  (* Forward substitution with unit lower-triangular L. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Back substitution with U. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.((i * n) + i)
  done

let lu_factor m =
  if m.rows <> m.cols then invalid_arg "Matrix.lu_factor: non-square";
  let n = m.rows in
  let a = Array.copy m.data and piv = Array.make n 0 in
  lu_factor_in_place n a piv;
  { n; lu_data = a; piv }

let lu_solve { n; lu_data; piv } b =
  if Array.length b <> n then invalid_arg "Matrix.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(piv.(i))) in
  lu_solve_in_place n lu_data x;
  x

let solve a b = lu_solve (lu_factor a) b

let max_abs m = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. m.data
