type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Cmatrix.create: non-positive dims";
  { rows; cols; re = Array.make (rows * cols) 0.; im = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let z = f i j in
      m.re.((i * cols) + j) <- z.Complex.re;
      m.im.((i * cols) + j) <- z.Complex.im
    done
  done;
  m

let identity n =
  init n n (fun i j -> if i = j then Complex.one else Complex.zero)

let dims m = (m.rows, m.cols)

let get m i j =
  let k = (i * m.cols) + j in
  { Complex.re = m.re.(k); im = m.im.(k) }

let of_real r =
  let rows, cols = Matrix.dims r in
  init rows cols (fun i j -> { Complex.re = Matrix.get r i j; im = 0. })

let scale a m =
  let n = Array.length m.re in
  let re = Array.make n 0. and im = Array.make n 0. in
  for k = 0 to n - 1 do
    re.(k) <- (a.Complex.re *. m.re.(k)) -. (a.Complex.im *. m.im.(k));
    im.(k) <- (a.Complex.re *. m.im.(k)) +. (a.Complex.im *. m.re.(k))
  done;
  { m with re; im }

let elementwise op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmatrix: dimension mismatch";
  {
    a with
    re = Array.init (Array.length a.re) (fun k -> op a.re.(k) b.re.(k));
    im = Array.init (Array.length a.im) (fun k -> op a.im.(k) b.im.(k));
  }

let add a b = elementwise ( +. ) a b

let sub a b = elementwise ( -. ) a b

let mul a b =
  if a.cols <> b.rows then invalid_arg "Cmatrix.mul: dimension mismatch";
  let c = create a.rows b.cols in
  let n = a.cols and cols = b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to n - 1 do
      let ar = a.re.((i * n) + k) and ai = a.im.((i * n) + k) in
      if ar <> 0. || ai <> 0. then
        for j = 0 to cols - 1 do
          let br = b.re.((k * cols) + j) and bi = b.im.((k * cols) + j) in
          let kc = (i * cols) + j in
          c.re.(kc) <- c.re.(kc) +. ((ar *. br) -. (ai *. bi));
          c.im.(kc) <- c.im.(kc) +. ((ar *. bi) +. (ai *. br))
        done
    done
  done;
  c

let adjoint m =
  init m.cols m.rows (fun i j -> Complex.conj (get m j i))

(* Gauss-Jordan elimination with partial pivoting on an augmented [a | b]
   system stored in split arrays.  [b] has [bcols] columns. *)
let gauss_jordan m bre bim bcols =
  if m.rows <> m.cols then invalid_arg "Cmatrix: non-square";
  let n = m.rows in
  let are = Array.copy m.re and aim = Array.copy m.im in
  let swap_rows arr i p cols =
    for j = 0 to cols - 1 do
      let t = arr.((i * cols) + j) in
      arr.((i * cols) + j) <- arr.((p * cols) + j);
      arr.((p * cols) + j) <- t
    done
  in
  for k = 0 to n - 1 do
    let pivot = ref k in
    (* Explicit multiplication: [**] is a libm pow call, far too slow for
       the innermost pivot scan. *)
    let norm2 i =
      let re = are.((i * n) + k) and im = aim.((i * n) + k) in
      (re *. re) +. (im *. im)
    in
    let best = ref (norm2 k) in
    for i = k + 1 to n - 1 do
      let v = norm2 i in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best < Tol.pivot_norm2 then
      Robust_error.raise_
        (Robust_error.Singular
           {
             solver = "Cmatrix.solve";
             detail = Printf.sprintf "singular matrix (pivot column %d)" k;
           });
    if !pivot <> k then begin
      swap_rows are k !pivot n;
      swap_rows aim k !pivot n;
      swap_rows bre k !pivot bcols;
      swap_rows bim k !pivot bcols
    end;
    (* Scale pivot row to make the pivot equal to one. *)
    let pr = are.((k * n) + k) and pi = aim.((k * n) + k) in
    let inv_den = 1. /. ((pr *. pr) +. (pi *. pi)) in
    let ir = pr *. inv_den and ii = -.pi *. inv_den in
    let scale_row arr_r arr_i cols =
      for j = 0 to cols - 1 do
        let vr = arr_r.((k * cols) + j) and vi = arr_i.((k * cols) + j) in
        arr_r.((k * cols) + j) <- (vr *. ir) -. (vi *. ii);
        arr_i.((k * cols) + j) <- (vr *. ii) +. (vi *. ir)
      done
    in
    scale_row are aim n;
    scale_row bre bim bcols;
    (* Eliminate column k from every other row. *)
    for i = 0 to n - 1 do
      if i <> k then begin
        let fr = are.((i * n) + k) and fi = aim.((i * n) + k) in
        if fr <> 0. || fi <> 0. then begin
          let elim arr_r arr_i cols =
            for j = 0 to cols - 1 do
              let vr = arr_r.((k * cols) + j) and vi = arr_i.((k * cols) + j) in
              arr_r.((i * cols) + j) <-
                arr_r.((i * cols) + j) -. ((fr *. vr) -. (fi *. vi));
              arr_i.((i * cols) + j) <-
                arr_i.((i * cols) + j) -. ((fr *. vi) +. (fi *. vr))
            done
          in
          elim are aim n;
          elim bre bim bcols
        end
      end
    done
  done

let inverse m =
  let n = m.rows in
  let id = identity n in
  let bre = Array.copy id.re and bim = Array.copy id.im in
  gauss_jordan m bre bim n;
  { rows = n; cols = n; re = bre; im = bim }

let solve m b =
  let n = m.rows in
  if Array.length b <> n then invalid_arg "Cmatrix.solve: dimension mismatch";
  let bre = Array.init n (fun i -> b.(i).Complex.re) in
  let bim = Array.init n (fun i -> b.(i).Complex.im) in
  gauss_jordan m bre bim 1;
  Array.init n (fun i -> { Complex.re = bre.(i); im = bim.(i) })

let diag m =
  let n = min m.rows m.cols in
  Array.init n (fun i -> get m i i)

let trace m =
  Array.fold_left Complex.add Complex.zero (diag m)

let max_abs m =
  let acc = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    acc := Float.max !acc (Float.hypot m.re.(k) m.im.(k))
  done;
  !acc

let frobenius_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmatrix.frobenius_diff: dimension mismatch";
  let acc = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    let dr = a.re.(k) -. b.re.(k) and di = a.im.(k) -. b.im.(k) in
    acc := !acc +. (dr *. dr) +. (di *. di)
  done;
  sqrt !acc
