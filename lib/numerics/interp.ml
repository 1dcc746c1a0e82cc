let check_axis name xs min_len =
  let n = Array.length xs in
  if n < min_len then invalid_arg (name ^ ": too few points");
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then invalid_arg (name ^ ": axis not increasing")
  done

(* Index of the segment [xs.(i), xs.(i+1)] containing x (clamped). *)
let segment xs x =
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let linear ~xs ~ys x =
  check_axis "Interp.linear" xs 2;
  if Array.length xs <> Array.length ys then
    invalid_arg "Interp.linear: length mismatch";
  let n = Array.length xs in
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    let i = segment xs x in
    let t = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
    ((1. -. t) *. ys.(i)) +. (t *. ys.(i + 1))
  end

type spline = {
  sx : float array;
  sy : float array;
  m2 : float array; (* second derivatives at the knots *)
}

let spline ~xs ~ys =
  check_axis "Interp.spline" xs 3;
  if Array.length xs <> Array.length ys then
    invalid_arg "Interp.spline: length mismatch";
  let n = Array.length xs in
  (* Natural spline: solve the tridiagonal system for the knot second
     derivatives. *)
  let lower = Array.make n 0. and diag = Array.make n 1. and upper = Array.make n 0. in
  let rhs = Array.make n 0. in
  for i = 1 to n - 2 do
    let h0 = xs.(i) -. xs.(i - 1) and h1 = xs.(i + 1) -. xs.(i) in
    lower.(i) <- h0 /. 6.;
    diag.(i) <- (h0 +. h1) /. 3.;
    upper.(i) <- h1 /. 6.;
    rhs.(i) <- ((ys.(i + 1) -. ys.(i)) /. h1) -. ((ys.(i) -. ys.(i - 1)) /. h0)
  done;
  let m2 = Tridiag.solve ~lower ~diag ~upper ~rhs in
  { sx = Array.copy xs; sy = Array.copy ys; m2 }

let spline_clamp s x =
  let n = Array.length s.sx in
  Float.max s.sx.(0) (Float.min s.sx.(n - 1) x)

let spline_eval s x =
  let x = spline_clamp s x in
  let i = segment s.sx x in
  let h = s.sx.(i + 1) -. s.sx.(i) in
  let a = (s.sx.(i + 1) -. x) /. h and b = (x -. s.sx.(i)) /. h in
  (a *. s.sy.(i)) +. (b *. s.sy.(i + 1))
  +. (((((a ** 3.) -. a) *. s.m2.(i)) +. (((b ** 3.) -. b) *. s.m2.(i + 1)))
      *. (h *. h) /. 6.)

let spline_deriv s x =
  let x = spline_clamp s x in
  let i = segment s.sx x in
  let h = s.sx.(i + 1) -. s.sx.(i) in
  let a = (s.sx.(i + 1) -. x) /. h and b = (x -. s.sx.(i)) /. h in
  ((s.sy.(i + 1) -. s.sy.(i)) /. h)
  +. (((-.((3. *. (a *. a)) -. 1.) *. s.m2.(i))
       +. (((3. *. (b *. b)) -. 1.) *. s.m2.(i + 1)))
      *. h /. 6.)

type grid2 = { gx : float array; gy : float array; gv : float array array }

let grid2 ~xs ~ys ~values =
  check_axis "Interp.grid2 (x)" xs 2;
  check_axis "Interp.grid2 (y)" ys 2;
  if Array.length values <> Array.length xs then
    invalid_arg "Interp.grid2: row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length ys then
        invalid_arg "Interp.grid2: column count mismatch")
    values;
  { gx = Array.copy xs; gy = Array.copy ys; gv = Array.map Array.copy values }

let clamp01 t = Float.max 0. (Float.min 1. t)

let grid2_cell g x y =
  let i = segment g.gx x and j = segment g.gy y in
  let tx = clamp01 ((x -. g.gx.(i)) /. (g.gx.(i + 1) -. g.gx.(i))) in
  let ty = clamp01 ((y -. g.gy.(j)) /. (g.gy.(j + 1) -. g.gy.(j))) in
  (i, j, tx, ty)

let grid2_eval g x y =
  let i, j, tx, ty = grid2_cell g x y in
  let v00 = g.gv.(i).(j)
  and v10 = g.gv.(i + 1).(j)
  and v01 = g.gv.(i).(j + 1)
  and v11 = g.gv.(i + 1).(j + 1) in
  ((1. -. tx) *. (((1. -. ty) *. v00) +. (ty *. v01)))
  +. (tx *. (((1. -. ty) *. v10) +. (ty *. v11)))

let grid2_dx g x y =
  let i, j, _, ty = grid2_cell g x y in
  let hx = g.gx.(i + 1) -. g.gx.(i) in
  let lo = ((1. -. ty) *. g.gv.(i).(j)) +. (ty *. g.gv.(i).(j + 1)) in
  let hi = ((1. -. ty) *. g.gv.(i + 1).(j)) +. (ty *. g.gv.(i + 1).(j + 1)) in
  (hi -. lo) /. hx

let grid2_dy g x y =
  let i, j, tx, _ = grid2_cell g x y in
  let hy = g.gy.(j + 1) -. g.gy.(j) in
  let lo = ((1. -. tx) *. g.gv.(i).(j)) +. (tx *. g.gv.(i + 1).(j)) in
  let hi = ((1. -. tx) *. g.gv.(i).(j + 1)) +. (tx *. g.gv.(i + 1).(j + 1)) in
  (hi -. lo) /. hy
