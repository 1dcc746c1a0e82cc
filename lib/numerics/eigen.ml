(* Cyclic Jacobi rotations: robust and adequate for the <=72x72 Bloch
   Hamiltonians we diagonalize.

   The sweeps index the row-major [Matrix.data] arrays directly: an
   out-of-line [Matrix.get]/[Matrix.set] boxes the float it passes, and
   the rotations touch O(n) elements each. *)

(* Rotate a fresh symmetrized copy [w] of [a] to diagonal form and
   return it: its diagonal holds the eigenvalues.  When [v] is given
   (row-major n x n data, initially the identity) the rotations are
   accumulated into it as well. *)
let jacobi a v =
  let n, m = Matrix.dims a in
  if n <> m then invalid_arg "Eigen.symmetric: non-square";
  let ad = a.Matrix.data in
  let w = Matrix.create n n in
  let wd = w.Matrix.data in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      wd.((i * n) + j) <- 0.5 *. (ad.((i * n) + j) +. ad.((j * n) + i))
    done
  done;
  let off_diag_norm () =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let v = wd.((i * n) + j) in
        acc := !acc +. (v *. v)
      done
    done;
    sqrt !acc
  in
  let rotate p q =
    let apq = wd.((p * n) + q) in
    if Float.abs apq > Tol.negligible then begin
      let app = wd.((p * n) + p) and aqq = wd.((q * n) + q) in
      let theta = (aqq -. app) /. (2. *. apq) in
      let t =
        let s = if theta >= 0. then 1. else -1. in
        s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
      in
      let c = 1. /. sqrt ((t *. t) +. 1.) in
      let s = t *. c in
      for k = 0 to n - 1 do
        let kp = (k * n) + p and kq = (k * n) + q in
        let akp = wd.(kp) and akq = wd.(kq) in
        wd.(kp) <- (c *. akp) -. (s *. akq);
        wd.(kq) <- (s *. akp) +. (c *. akq)
      done;
      for k = 0 to n - 1 do
        let pk = (p * n) + k and qk = (q * n) + k in
        let apk = wd.(pk) and aqk = wd.(qk) in
        wd.(pk) <- (c *. apk) -. (s *. aqk);
        wd.(qk) <- (s *. apk) +. (c *. aqk)
      done;
      match v with
      | None -> ()
      | Some vd ->
        for k = 0 to n - 1 do
          let kp = (k * n) + p and kq = (k * n) + q in
          let vkp = vd.(kp) and vkq = vd.(kq) in
          vd.(kp) <- (c *. vkp) -. (s *. vkq);
          vd.(kq) <- (s *. vkp) +. (c *. vkq)
        done
    end
  in
  let max_sweeps = 64 in
  let rec sweeps i =
    if i < max_sweeps && off_diag_norm () > 1e-12 *. (1. +. Matrix.max_abs w) then begin
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          rotate p q
        done
      done;
      sweeps (i + 1)
    end
  in
  sweeps 0;
  w

(* Diagonal indices of [w] in ascending eigenvalue order. *)
let ascending w =
  let n, _ = Matrix.dims w in
  let wd = w.Matrix.data in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare wd.((i * n) + i) wd.((j * n) + j)) order;
  order

let symmetric a =
  let n, _ = Matrix.dims a in
  let v = Matrix.identity n in
  let vd = v.Matrix.data in
  let w = jacobi a (Some vd) in
  let order = ascending w in
  let values = Array.map (fun i -> w.Matrix.data.((i * n) + i)) order in
  let vectors = Matrix.init n n (fun i j -> vd.((i * n) + order.(j))) in
  (values, vectors)

let symmetric_values a =
  let n, _ = Matrix.dims a in
  let w = jacobi a None in
  Array.map (fun i -> w.Matrix.data.((i * n) + i)) (ascending w)

let hermitian_values h =
  let n, m = Cmatrix.dims h in
  if n <> m then invalid_arg "Eigen.hermitian_values: non-square";
  let re = h.Cmatrix.re and im = h.Cmatrix.im in
  let embed =
    Matrix.init (2 * n) (2 * n) (fun i j ->
        let bi = i / n and bj = j / n in
        let k = ((i mod n) * n) + (j mod n) in
        if bi = bj then re.(k) else if bi = 0 then -.im.(k) else im.(k))
  in
  let all = symmetric_values embed in
  (* Each eigenvalue of the Hermitian matrix appears exactly twice. *)
  Array.init n (fun i -> 0.5 *. (all.(2 * i) +. all.((2 * i) + 1)))
