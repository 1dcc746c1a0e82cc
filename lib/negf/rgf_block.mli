(** Block (real-space, full atomistic basis) RGF — the oracle the
    mode-space chains of {!Rgf} are validated against in the test suite.
    No solver or experiment runs it: the paper path is mode-space only.

    The device is a chain of identical-size blocks with nearest-block
    coupling; leads enter through explicit self-energy blocks on the first
    and last block.  Both entry points allocate freely through the
    {!Cmatrix} API and raise [Invalid_argument] on a malformed device:
    no blocks, a coupling count other than [blocks - 1], or a block,
    coupling or self-energy that is not [m × m] for the first block's
    size [m]. *)

type device = {
  blocks : Cmatrix.t array;  (** on-block Hamiltonians H_ii, size m × m *)
  couplings : Cmatrix.t array;  (** H_{i,i+1}, length [blocks - 1] *)
  sigma_l : Cmatrix.t;  (** retarded lead self-energy on block 0 *)
  sigma_r : Cmatrix.t;  (** retarded lead self-energy on the last block *)
}

val transmission : ?eta:float -> device -> float -> float
(** Coherent transmission [Tr(ΓL G ΓR G†)] at the given energy (eV). *)

type spectra = {
  t_coh : float;
  a1 : float array array;  (** [a1.(block).(orbital)]: source-injected
                               spectral-function diagonal, 1/eV *)
  a2 : float array array;  (** drain-injected diagonal *)
}

val spectra : ?eta:float -> device -> float -> spectra
(** Contact-resolved spectral functions by full block RGF (forward and
    backward sweeps); the local density of states per orbital is
    [(a1 + a2) / 2π].  Used to validate the mode-space charge
    integration against the atomistic reference. *)

val ideal_gnr_device : ?n_cells:int -> int -> float -> device
(** [ideal_gnr_device n e]: an ideal (flat-potential) A-GNR of index [n],
    [n_cells] unit cells long (default 12), with the retarded
    self-energies of semi-infinite GNR leads at energy [e] (eV) computed
    by {!Self_energy.sancho_rubio}. *)

val ideal_gnr_transmission : ?eta:float -> ?n_cells:int -> int -> float -> float
(** Transmission of an ideal (flat-potential) A-GNR of the given index,
    with semi-infinite GNR leads computed by Sancho–Rubio decimation: the
    exact staircase [T(E) = number of modes at E], used to validate both
    the band structure and the mode-space reduction.  Runs
    {!transmission} on {!ideal_gnr_device}. *)
