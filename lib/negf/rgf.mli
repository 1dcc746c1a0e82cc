(** Scalar recursive Green's function (RGF) solver for 1D mode-space chains.

    The device Hamiltonian is a tridiagonal chain: site energies
    [onsite.(i)] (local mid-gap + subband structure enters through the
    alternating hoppings), bonds [hopping.(i)] between sites [i] and
    [i+1], and complex contact self-energies attached to the first and
    last site.  O(n) per energy point; the spectra entry points share
    one kernel that sweeps two energies at once (see the workspace
    section below and docs/PERF.md). *)

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
    energy-parallel observables instead give each worker {!workspace}s
    and reuse them across its whole energy chunk.  One kernel serves
    every spectra entry point: it sweeps two (chain, energy) lanes in
    one loop, each lane with the floating-point operations of a
    one-energy sweep, in the same order.  {!spectra_pair_into} gives it
    two inputs; {!spectra} and {!spectra_into} give it the same input
    in both lanes, so all three agree bit for bit. *)

type workspace
(** Preallocated RGF scratch for one lane (Green's-function sweeps,
    spectral diagonals, transmission).  Grows on demand; safe to reuse
    across chains of different lengths.  Not thread-safe: one workspace
    per lane per worker. *)

val workspace : ?hint:int -> unit -> workspace
(** Fresh workspace, optionally pre-sized for chains of [hint] sites. *)

val spectra_into : ?eta:float -> workspace -> chain -> float -> float
(** [spectra_into ws chain e] computes the same quantities as {!spectra}
    without allocating: the return value is [t_coh] (also left in
    [t_coh ws]) and the spectral diagonals are left in [a1 ws] /
    [a2 ws].  Chain validation is cached per workspace (physical
    equality on [chain]), so per-energy calls on one chain validate it
    once; a malformed chain raises [Invalid_argument] exactly as
    {!spectra} does. *)

val spectra_pair_into :
  ?eta:float -> workspace -> chain -> float -> workspace -> chain -> float -> unit
(** [spectra_pair_into wx cx ex wy cy ey] is [spectra_into wx cx ex] and
    [spectra_into wy cy ey] in one sweep, with the same results bit for
    bit: two independent lanes share the loop, so their division chains
    overlap in the pipeline (docs/PERF.md gives the per-energy cost).
    Raises [Invalid_argument] if [wx == wy], if either chain is
    malformed, or if the chains differ in length. *)

val t_coh : workspace -> float
(** Transmission of the last {!spectra_into}/{!spectra_pair_into} lane
    run on this workspace. *)

val a1 : workspace -> float array
(** Source-injected spectral diagonal of the last lane run on this
    workspace, valid on indices [0, n) until the next call on it.  The
    array may be longer than the chain and is re-allocated when the
    workspace grows — re-fetch it after each call. *)

val a2 : workspace -> float array
(** Drain-injected counterpart of {!a1}. *)

val transmission_into : ?eta:float -> workspace -> chain -> float -> float
(** {!transmission} through the workspace's cached chain validation (the
    transmission sweep itself is already allocation-free). *)
