(** Direct solver for banded linear systems (no pivoting).

    Designed for the finite-volume Poisson matrices, which are symmetric and
    strictly diagonally dominant, so elimination without pivoting is stable.
    Storage is the standard band layout: [band.(i).(kl + j - i)] holds
    [A(i,j)] for [|i - j| <= bandwidth]. *)

type t
(** A factorized banded system ready for repeated solves. *)

val create : n:int -> bandwidth:int -> t
(** Fresh zero matrix with [n] unknowns and half-bandwidth [bandwidth]. *)

val set : t -> int -> int -> float -> unit
(** [set t i j v] writes [A(i,j) = v]. Raises [Invalid_argument] outside the
    band. Must be called before [factorize]. *)

val add_to : t -> int -> int -> float -> unit
(** Accumulating variant of {!set} (stamping). *)

val get : t -> int -> int -> float
(** Reads [A(i,j)]; elements outside the band read as [0.]. *)

val factorize : t -> unit
(** In-place LU without pivoting; raises [Failure] on a tiny pivot. After
    factorization [set]/[add_to] must not be used. *)

val solve : t -> float array -> float array
(** Solve with a previously {!factorize}d matrix. *)

val forward_in_place : t -> float array -> unit
(** [forward_in_place t x] overwrites the right-hand side [x] with its
    forward substitute (the unit-lower-triangular half of {!solve}). *)

val solve_tail : t -> float array -> from:int -> unit
(** [solve_tail t x ~from] finishes a solve in place from row [from]:
    rows below [from] of [x] must hold the forward substitute of a
    right-hand side [b] (see {!forward_in_place}) and rows from [from]
    on must hold [b] itself.  On return rows [from .. n-1] hold the
    solution, bit for bit what {!solve} returns for those rows; rows
    below [from] are left as they were.  A right-hand side that differs
    from a previously swept one only at and after row [from] thus
    re-solves in the cost of the rows from [from] on. *)

val solve_fresh : t -> float array -> float array
(** Copy, factorize and solve — keeps [t] reusable for re-assembly. *)
