type t = { n : int; h00 : Matrix.t; h01 : Matrix.t }

let make ?(edge_delta = Const.edge_bond_relaxation) n =
  let hopping = Const.t_pz in
  if n < 2 then invalid_arg "Tight_binding.make: index must be >= 2";
  let size = Lattice.atoms_per_cell n in
  let h00 = Matrix.create size size in
  let h01 = Matrix.create size size in
  List.iter
    (fun (i, j) ->
      let t = if Lattice.is_edge_bond n (i, j) then hopping *. (1. +. edge_delta) else hopping in
      Matrix.set h00 i j (-.t);
      Matrix.set h00 j i (-.t))
    (Lattice.neighbours_within_cell n);
  List.iter
    (fun (i, j) -> Matrix.set h01 i j (-.hopping))
    (Lattice.neighbours_to_next_cell n);
  { n; h00; h01 }

let bloch tb ka =
  let size, _ = Matrix.dims tb.h00 in
  let phase = { Complex.re = cos ka; im = sin ka } in
  Cmatrix.init size size (fun i j ->
      let base = { Complex.re = Matrix.get tb.h00 i j; im = 0. } in
      let fwd = Complex.mul phase { Complex.re = Matrix.get tb.h01 i j; im = 0. } in
      let bwd =
        Complex.mul (Complex.conj phase) { Complex.re = Matrix.get tb.h01 j i; im = 0. }
      in
      Complex.add base (Complex.add fwd bwd))
