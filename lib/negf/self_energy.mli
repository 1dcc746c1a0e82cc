(** Contact self-energies for the NEGF solvers. *)

val wideband : gamma:float -> Complex.t
(** Wide-band-limit metal contact: energy-independent [Σ = -i Γ / 2].
    This is the Schottky-contact model of the paper once combined with the
    mid-gap Fermi-level pinning boundary condition (barrier = Eg/2). *)

val dimer_surface :
  ?eta:float -> t1:float -> t2:float -> onsite:float -> float -> Complex.t
(** [dimer_surface ~t1 ~t2 ~onsite e] is the retarded surface Green's
    function of a semi-infinite dimer chain (alternating hoppings [t1],
    [t2], uniform [onsite]) evaluated at energy [e], as seen by a device
    attached through a [t2] bond; multiply by [t2^2] for the self-energy.
    Computed in closed form: the decimation fixed point satisfies a
    quadratic whose retarded root (negative imaginary part, bounded in
    the gap) is selected with imaginary broadening [eta] (default
    1e-5 eV) — no iteration, so no tolerance or iteration cap applies. *)

val sancho_rubio :
  ?eta:float ->
  ?tol:float ->
  ?max_iter:int ->
  h00:Cmatrix.t ->
  h01:Cmatrix.t ->
  float ->
  Cmatrix.t
(** Surface Green's function of a semi-infinite periodic block chain
    ([h00] on-cell, [h01] coupling towards the device) via the
    Sancho–Rubio decimation on {!Cmatrix} (one inverse and six
    multiplies per iteration); the lead self-energy is
    [h01† · g_s · h01].  Convergence when the decimated coupling's
    largest entry drops below [tol]; raises
    [Robust_error.Error (Iterative_no_convergence _)] after [max_iter]
    iterations.  Reports [self_energy.sancho_calls] /
    [self_energy.sancho_iterations] and a per-call timer into
    {!Obs.global} (docs/OBS.md). *)
