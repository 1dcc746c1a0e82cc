(** Sparse matrices in compressed-sparse-row form, with iterative solvers.

    Used for the 3D Poisson validation solver and as an alternative backend
    for the 2D finite-volume systems. *)

type t = private {
  n : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

module Builder : sig
  type sparse := t
  type t

  val create : int -> t
  (** [create n] starts an empty [n] × [n] matrix. *)

  val add : t -> int -> int -> float -> unit
  (** Accumulate a coefficient (duplicates sum). *)

  val finalize : t -> sparse
end

val mul_vec : t -> float array -> float array

val diagonal : t -> float array
(** Diagonal entries (0. where absent). *)

val cg :
  ?max_iter:int ->
  ?tol:float ->
  ?x0:float array ->
  t ->
  float array ->
  float array * int
(** Jacobi-preconditioned conjugate gradient for symmetric positive-definite
    systems. Returns the solution and iterations used; raises
    [Robust_error.Error (Iterative_no_convergence _)] (solver ["cg"],
    the iterations performed and the relative residual reached) if the
    tolerance (relative residual, default [1e-10]) is not reached in
    [max_iter] (default [4 * n]) iterations, so callers recover (retry,
    switch solver) without string matching.  The [sparse.cg] fault site
    raises the same error before iterating.  Instrumented: bumps the
    [sparse.cg.*] counters and iteration histogram in {!Obs.global}
    (see docs/OBS.md). *)

val sor :
  ?omega:float ->
  ?max_iter:int ->
  ?tol:float ->
  ?x0:float array ->
  t ->
  float array ->
  float array * int
(** Successive over-relaxation (default [omega = 1.7]); same failure
    contract as {!cg}, with solver ["sor"] ([sparse.sor.*] counters).
    Intended for diagnostics and tests. *)
