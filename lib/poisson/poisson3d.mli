(** 3D finite-difference Poisson solver on a uniform box grid.

    This is the validation-grade counterpart of the paper's 3D FEM solver:
    it is used in the test suite and for computing impurity potential
    profiles (screened point charges between grounded gate planes), not in
    the inner self-consistent loop (see the substitution log in DESIGN.md). *)

type t

val make :
  nx:int ->
  ny:int ->
  nz:int ->
  spacing:float ->
  eps_r:(float -> float -> float -> float) ->
  t
(** Uniform grid of [nx*ny*nz] nodes with the given spacing (m); Dirichlet
    u = boundary value on all six faces. *)

type charge = { ix : int; iy : int; iz : int; coulombs : float }
(** A point charge assigned to one grid node. *)

val solve :
  ?tol:float -> ?boundary:float -> t -> charges:charge list -> float array array array
(** Node potentials [u.(ix).(iy).(iz)] in volts ([u = -V] mid-gap
    convention, so a negative charge produces a positive [u] bump).
    Conjugate-gradient solution, retried once and then handed to SOR
    when cg misses its iteration cap; raises
    [Robust_error.Error (Iterative_no_convergence _)] if SOR misses its
    cap too.  Instrumented: bumps [poisson3d.solves],
    [poisson3d.cg_iterations] and the [poisson3d.solve] timer in
    {!Obs.global} (see docs/OBS.md). *)

val line_profile :
  float array array array -> iy:int -> iz:int -> float array
(** Extract [u.(ix).(iy).(iz)] along x. *)
