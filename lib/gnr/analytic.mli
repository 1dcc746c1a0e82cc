(** Closed-form band-structure results used to validate the numerical
    tight-binding machinery.

    For an uncorrected (no edge relaxation) nearest-neighbour A-GNR the
    transverse momenta are quantized as q_p = p·π/(N+1) and the gap is the
    minimum of 2t·|1 + 2cos q_p| over the subbands — exactly zero for the
    3q+2 family, recovering the well-known three-family behaviour. *)

val armchair_gap : int -> float
(** Analytic gap (eV) of the index-[n] A-GNR with uniform hopping
    [Const.t_pz] (no edge correction); equals the numerical {!Bands.band_gap} of
    [Tight_binding.make ~edge_delta:0.] to solver accuracy. *)

val fermi_velocity : unit -> float
(** Graphene Fermi velocity [3 t a_cc / (2 hbar)] in m/s, with
    t = [Const.t_pz] (≈ 0.88e6 for t = 2.7 eV). *)

val dirac_gap_estimate : int -> float
(** k·p (Dirac) estimate of the 3q-family gap, [2π ħ v_F / (3 W̃)] with
    W̃ = (N+1)·a/2 the electronic width: the ~1/W scaling the paper quotes
    ("band-gap … inversely proportional to width"). *)
