let solve a b =
  let rows, cols = Matrix.dims a in
  if Array.length b <> rows then invalid_arg "Lstsq.solve: dimension mismatch";
  if rows < cols then invalid_arg "Lstsq.solve: underdetermined system";
  let at = Matrix.transpose a in
  let ata = Matrix.mul at a in
  (* Tiny Tikhonov term keeps nearly-collinear fits from blowing up. *)
  let reg = 1e-12 *. Float.max 1. (Matrix.max_abs ata) in
  for i = 0 to cols - 1 do
    Matrix.add_to ata i i reg
  done;
  Matrix.solve ata (Matrix.mul_vec at b)
