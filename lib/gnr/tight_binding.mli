(** pz-orbital nearest-neighbour tight-binding Hamiltonian of an A-GNR.

    The hopping is [-t] (t = 2.7 eV) on every nearest-neighbour bond, with
    the edge dimer bonds strengthened to [-t (1 + delta)] according to the
    ab-initio edge relaxation of Son–Cohen–Louie; on-site energies are zero
    (mid-gap reference). *)

type t = private {
  n : int;  (** GNR index (dimer lines) *)
  h00 : Matrix.t;  (** intra-cell block, [2n] × [2n], real symmetric *)
  h01 : Matrix.t;  (** coupling to the next cell along transport *)
}

val make : ?edge_delta:float -> int -> t
(** [make n] builds the Hamiltonian blocks for index [n] with hopping
    [Const.t_pz] and edge-bond relaxation [edge_delta] (default
    [Const.edge_bond_relaxation]). *)

val bloch : t -> float -> Cmatrix.t
(** [bloch tb ka] is [H00 + H01 e^{i ka} + H01^T e^{-i ka}] with [ka] the
    dimensionless Bloch phase in [\[-pi, pi\]]. *)
