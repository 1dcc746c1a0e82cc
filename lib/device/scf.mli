(** Self-consistent NEGF ↔ Poisson solution of the intrinsic GNRFET at one
    bias point.

    The mode-space NEGF solver (lib/negf) provides the channel charge for a
    given mid-gap potential profile; the 2D finite-volume Poisson solver
    (lib/poisson) provides the potential for a given charge; the loop is
    accelerated with Anderson mixing and supports warm starts from a
    neighbouring bias point (used heavily by the table sweeps). *)

type trace = {
  step : int;  (** SCF iteration index, 0-based *)
  update_norm : float;  (** max-norm potential update at this step, V *)
  mixing_factor : float;
      (** damping applied toward the next iterate: the Anderson/linear
          alpha, 0.25 after a stall restart, 0. on the terminal entry *)
  poisson_solves : int;  (** Poisson solves spent evaluating this step *)
  restarted : bool;  (** true on the step that triggered a stall restart *)
}
(** One entry of the per-iteration convergence trace.  The trace is part
    of the solver result (collected whether or not observability is
    enabled) and is derived purely from the deterministic iterates, so it
    is bit-for-bit identical sequential vs parallel — the golden-trace
    regression tests (test/test_golden_trace.ml) rely on this. *)

type status =
  | Converged  (** best update norm reached [tol] *)
  | Stalled
      (** the stall detector tripped (no 2 % residual improvement over
          the trailing window) and the run ended unconverged *)
  | Max_iter  (** the iteration cap interrupted a still-improving run *)
      (** Typed convergence verdict, so sweeps can react to an
          unconverged point instead of silently keeping the best
          iterate.  [Scf_robust.solve_robust] escalates non-[Converged]
          points up a recovery ladder; see docs/ROBUST.md. *)

type solution = {
  vg : float;
  vd : float;
  potential : float array;  (** converged mid-gap profile u(x) per site, V *)
  current : float;  (** drain current of one GNR, A *)
  charge : float;  (** total net mobile channel charge, C (signed) *)
  site_charge : float array;  (** per-site net charge, C *)
  iterations : int;
  residual : float;  (** final max-norm potential update, V *)
  status : status;
  trace : trace list;
      (** chronological, [iterations + 1] entries (one per SCF step
          including the terminal one) *)
}

val site_positions : Params.t -> float array
(** Longitudinal positions of the mode-space chain sites, m. *)

val conduction_band_profile : Params.t -> solution -> float array
(** [u(x) + impurity shift + Eg/2] per site: the Fig 5(a) band profile. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?init:float array ->
  ?mixing:[ `Anderson | `Anderson_damped of float | `Linear of float ] ->
  ?obs:Obs.t ->
  Params.t ->
  vg:float ->
  vd:float ->
  solution
(** Solve at (VG, VD).  [init] warm-starts the potential profile (its
    length must match the device discretization; a mismatch raises
    [Invalid_argument] rather than being silently discarded).  Default
    tolerance 1e-3 V, iteration cap 120 (a non-converged point returns the
    best iterate with [status <> Converged]; [residual] reports the
    achieved update so callers can assert convergence where it matters).
    [mixing] selects the fixed-point accelerator (default Anderson;
    [`Anderson_damped alpha] is Anderson restarted with heavier damping —
    the second escalation rung; [`Linear alpha] is the plain
    under-relaxation baseline used by the convergence ablation).
    The per-energy NEGF loop runs across the domain pool at
    {!Parallel.num_domains} slots; a solve running inside a task of an
    outer run (a device of {!Table_cache.get_many}) nests in the same
    pool.  The solution is bit-for-bit identical at every width (the
    energy reduction is deterministic; see docs/PERF.md).  The call is
    one {!Parallel.scoped} scope, so the pool's domains serve all its
    charge evaluations and are joined when it returns, unless an
    enclosing scope keeps them.

    {b Observability.}  Each call runs inside an [scf.solve] span and
    bumps [scf.solves], [scf.iterations] (plus the iteration histogram),
    [scf.charge_evals] and [scf.poisson_solves] in [obs] (default
    {!Obs.global}), which is also handed to the NEGF observables; the
    Poisson layer underneath reports to {!Obs.global}.  All no-ops
    while the registry is disabled; the {!trace} field is collected
    regardless.  See docs/OBS.md. *)
