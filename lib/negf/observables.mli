(** Physical observables of a mode-space chain: terminal current and site
    charge from the RGF spectra.

    Both observables treat energy points as embarrassingly parallel
    and fan the grid out over the {!Parallel} pool in fixed contiguous
    chunks.  {b Determinism:} the chunk grid and the
    chunk-order combine depend only on the energy grid, never on the
    worker count, so results are bit-for-bit identical for every
    [GNRFET_DOMAINS] setting (see docs/PERF.md).  A call made from a
    task of an outer run (device-level table generation,
    [Table_cache.get_many]) nests in the same pool, so it cannot
    oversubscribe the cores either.

    {b Charge integral.}  {!site_charge} walks each chunk two energy
    intervals at a time, with one two-lane RGF sweep
    ({!Rgf.spectra_pair_into}) per pair.  Both observables reuse the
    sample a worker's previous chunk ended on, so every chunk but each
    slot's first sweeps no energy twice.  Results are bit-identical to a
    one-energy-at-a-time walk.

    {b Observability.}  Each observable times itself as one wall-clock
    interval ([negf.site_charge], [negf.current]) and counts the energy
    points swept ([rgf.spectra_energies] for the charge integration,
    [rgf.transmission_energies] for the current), so
    energies-per-second falls out of the snapshot.  A call on a grid of
    [ne] energies run by [s] pool slots counts [ne + s - 1] in either
    counter: a function of the grid and the width, never of the
    schedule.  Metrics land in the [?obs] registry (default
    {!Obs.global}, docs/API.md); counters are bumped once per chunk,
    never per energy point, and everything is a no-op while the
    registry is disabled.  See docs/OBS.md. *)

type bias = {
  mu_s : float;  (** source electro-chemical potential, eV *)
  mu_d : float;  (** drain electro-chemical potential, eV *)
  kt : float;  (** thermal energy, eV *)
}

val energy_grid : lo:float -> hi:float -> de:float -> float array
(** Uniform grid covering [\[lo, hi\]] with spacing at most [de] (at least
    three points). *)

val current :
  ?eta:float ->
  ?obs:Obs.t ->
  bias:bias ->
  egrid:float array ->
  (float -> Rgf.chain) ->
  float
(** [current ~bias ~egrid chain_at]: Landauer current (A) of one
    spin-degenerate mode chain, [I = (2q²/h) ∫ T(E) (f_s - f_d) dE].
    The chain is requested per energy point so energy-dependent contact
    self-energies are handled exactly (wide-band contacts may ignore the
    argument).  Positive current flows source to drain when
    [mu_s > mu_d].  The trapezoid reduction over the energy grid is
    chunked across the domain pool. *)

val site_charge :
  ?eta:float ->
  ?obs:Obs.t ->
  bias:bias ->
  egrid:float array ->
  midgap:float array ->
  (float -> Rgf.chain) ->
  float array
(** Net mobile charge per site in coulombs (negative where electrons
    dominate), computed from the contact-resolved spectral functions:
    electrons are counted above the local [midgap] energy weighted by the
    contact Fermi factors, holes below it weighted by the complements, with
    spin degeneracy 2.  The [midgap] array is the local charge-neutrality
    level per site (normally equal to [chain.onsite]).  [chain_at] must
    be a pure function of the energy and return chains of one length;
    raises [Invalid_argument] when [midgap] or a chain differs in length
    from the chain at [egrid.(0)]. *)
