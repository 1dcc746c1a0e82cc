(** Scalar recursive Green's function (RGF) solver for 1D mode-space chains.

    The device Hamiltonian is a tridiagonal chain: site energies
    [onsite.(i)] (local mid-gap + subband structure enters through the
    alternating hoppings), bonds [hopping.(i)] between sites [i] and
    [i+1], and complex contact self-energies attached to the first and
    last site.  O(n) per energy point. *)

type chain = {
  onsite : float array;  (** length n, eV *)
  hopping : float array;  (** length n-1, eV *)
  sigma_l : Complex.t;  (** retarded self-energy on site 0 *)
  sigma_r : Complex.t;  (** retarded self-energy on site n-1 *)
}

val gamma_of_sigma : Complex.t -> float
(** Broadening [Γ = i (Σ - Σ†) = -2 Im Σ]. *)

val transmission : ?eta:float -> chain -> float -> float
(** [transmission chain e]: coherent transmission at energy [e] (eV);
    [eta] (default 1e-6 eV) is the numerical broadening. *)

type spectra = {
  t_coh : float;  (** transmission *)
  a1 : float array;  (** source-injected spectral function diagonal, 1/eV *)
  a2 : float array;  (** drain-injected spectral function diagonal, 1/eV *)
}

val spectra : ?eta:float -> chain -> float -> spectra
(** Transmission and both contact-resolved spectral function diagonals in a
    single O(n) pass.  Satisfies [t_coh = ΓR a2 ... ] sum rules tested in
    the suite; the local density of states per site is
    [(a1 + a2) / 2π]. *)

(** {2 Allocation-free workspace paths}

    [spectra] allocates six length-n arrays per energy point; the
    energy-parallel observables instead give each worker one {!workspace}
    and reuse it across its whole energy chunk. *)

type workspace
(** Preallocated RGF scratch (Green's-function sweeps, spectral
    diagonals).  Grows on demand; safe to reuse across chains of
    different lengths.  Not thread-safe: one workspace per worker. *)

val workspace : ?hint:int -> unit -> workspace
(** Fresh workspace, optionally pre-sized for chains of [hint] sites. *)

val spectra_into : ?eta:float -> workspace -> chain -> float -> float
(** [spectra_into ws chain e] computes the same quantities as {!spectra}
    without allocating: the return value is [t_coh] and the spectral
    diagonals are left in [a1 ws] / [a2 ws].  Chain validation is cached
    per workspace (physical equality on [chain]), so per-energy calls on
    one chain validate it once; a malformed chain raises
    [Invalid_argument] exactly as {!spectra} does. *)

val a1 : workspace -> float array
(** Source-injected spectral diagonal of the last {!spectra_into} call,
    valid on indices [0, n) until the next call on this workspace.  The
    array may be longer than the chain and is re-allocated when the
    workspace grows — re-fetch it after each [spectra_into]. *)

val a2 : workspace -> float array
(** Drain-injected counterpart of {!a1}. *)

val transmission_into : ?eta:float -> workspace -> chain -> float -> float
(** {!transmission} through the workspace's cached chain validation (the
    transmission sweep itself is already allocation-free). *)
