(** Dense real matrices (row-major), with LU factorization.

    Sized for the small systems appearing in circuit Jacobians and least
    squares; Poisson systems use {!Banded} or {!Sparse} instead. *)

type t = private { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must be non-empty and of equal length. *)

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] accumulates [v] into [m.(i,j)] (stamping). *)

val transpose : t -> t

val mul : t -> t -> t

val mul_vec : t -> float array -> float array

val sub : t -> t -> t

type lu
(** LU factorization with partial pivoting. *)

val lu_factor : t -> lu
(** Raises [Robust_error.Error (Singular _)] (solver
    ["Matrix.lu_factor"]) on (numerically) singular input. The input
    matrix is not modified. *)

val lu_solve : lu -> float array -> float array

val lu_factor_in_place : int -> float array -> int array -> unit
(** [lu_factor_in_place n a piv] is {!lu_factor} without allocation: it
    overwrites the row-major [n x n] array [a] with its LU factors and
    [piv] with the row permutation (row [i] of the factors is row
    [piv.(i)] of the input).  Same pivoting and the same singular error
    as {!lu_factor}, which calls it on a copy. *)

val lu_solve_in_place : int -> float array -> float array -> unit
(** [lu_solve_in_place n a x] solves with the factors [a] of
    {!lu_factor_in_place}.  On entry [x.(i)] must hold [b.(piv.(i))]; on
    exit [x] is the solution.  {!lu_solve} calls it on the permuted copy
    of [b]. *)

val solve : t -> float array -> float array
(** One-shot [lu_solve (lu_factor a) b]. *)

val max_abs : t -> float
