(** Thomas-algorithm solvers for tridiagonal systems (real and complex).

    The system is [lower.(i) * x.(i-1) + diag.(i) * x.(i) + upper.(i) *
    x.(i+1) = rhs.(i)] with [lower.(0)] and [upper.(n-1)] ignored. *)

val solve :
  lower:float array ->
  diag:float array ->
  upper:float array ->
  rhs:float array ->
  float array
(** Raises [Robust_error.Error (Singular _)] on a zero pivot (the
    algorithm does not pivot; the matrices we solve are diagonally
    dominant). *)

val solve_complex :
  lower:Complex.t array ->
  diag:Complex.t array ->
  upper:Complex.t array ->
  rhs:Complex.t array ->
  Complex.t array
