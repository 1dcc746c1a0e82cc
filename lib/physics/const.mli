(** Physical constants (SI, 2019 redefinition) and unit helpers.

    Conventions used throughout the repository: energies in eV, potentials in
    V, lengths in m (with [nm] helpers), currents in A, capacitances in F,
    temperatures in K. *)

val q : float
(** Elementary charge, C. *)

val kb_ev : float
(** Boltzmann constant, eV/K. *)

val h : float
(** Planck constant, J s. *)

val hbar : float
(** Reduced Planck constant, J s. *)

val eps0 : float
(** Vacuum permittivity, F/m. *)

val g0 : float
(** Conductance quantum [2 q^2 / h] (spin-degenerate), S. *)

val eps_sio2 : float
(** Relative permittivity of SiO2 (3.9, as in the paper). *)

val nm : float
(** One nanometer in meters. *)

val a_cc : float
(** Graphene carbon–carbon bond length, m (0.142 nm). *)

val a_graphene : float
(** Graphene lattice constant [sqrt 3 *. a_cc], m. *)

val t_pz : float
(** pz-orbital nearest-neighbour coupling, eV (2.7 eV per the paper). *)

val edge_bond_relaxation : float
(** Fractional strengthening of the edge dimer bonds (0.12, calibrated to the
    ab-initio gaps of Son, Cohen and Louie). *)

val room_temperature : float
(** 300 K. *)

val kt_ev : float -> float
(** [kt_ev temp] is the thermal energy in eV at [temp] kelvin. *)
