(** Gate-screened Coulomb potential of a fixed charge impurity in the gate
    oxide.

    The paper places a single fixed charge of ±q or ±2q in the oxide,
    0.4 nm above the GNR surface and close to the source contact, and notes
    that its field is screened by the gates (pitch > oxide thickness).  We
    model the potential seen by the channel as a Yukawa-screened Coulomb
    term added to the chain on-site energies (the self-consistent loop then
    provides the free-carrier response); DESIGN.md §3 records this
    substitution.  The fitted screening length and permittivity have not
    been cross-checked against a 3D solve of the point charge in the
    double-gate box ({!Poisson3d}); that check is still open. *)

type t = {
  charge : float;  (** in units of |q|; negative = electron-repelling *)
  position : float;  (** along the channel, m from the source contact *)
  distance : float;  (** from the GNR plane, m (paper: 0.4 nm) *)
}

val paper_default : charge:float -> t
(** Impurity at 0.4 nm from the GNR surface, 2.0 nm from the source
    contact (inside the source Schottky junction region, where the paper
    notes the effect is strongest). *)

val screening_length : float
(** Gate screening length (m), 2.5 nm: a fitted value, longer than the
    1.5 nm oxide (EXPERIMENTS.md, calibration constants). *)

val effective_eps_r : float
(** Effective relative permittivity seen by the impurity (oxide plus
    graphene polarization); calibrated so a ±2q impurity shifts the source
    barrier by a few tenths of an eV as in Fig 5(a). *)

val onsite_shift : t -> float -> float
(** [onsite_shift imp x] is the mid-gap energy shift (eV, sign following
    the u = -V convention: negative impurity charge raises u) at channel
    position [x] (m). *)

val profile : t -> float array -> float array
(** Shift sampled at the given site positions. *)
