(** Dense complex matrices (row-major, split real/imaginary storage) with LU
    solve and inverse.

    Used by the NEGF block recursive Green's function and by the Bloch
    Hamiltonian diagonalization.  Split storage avoids boxing [Complex.t]
    in hot loops. *)

type t = private { rows : int; cols : int; re : float array; im : float array }

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> Complex.t) -> t

val identity : int -> t

val dims : t -> int * int

val get : t -> int -> int -> Complex.t

val of_real : Matrix.t -> t

val scale : Complex.t -> t -> t

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t

val adjoint : t -> t
(** Conjugate transpose. *)

val inverse : t -> t
(** Gauss–Jordan with partial pivoting; raises
    [Robust_error.Error (Singular _)] (solver ["Cmatrix.solve"]) when
    singular. *)

val solve : t -> Complex.t array -> Complex.t array

val diag : t -> Complex.t array

val trace : t -> Complex.t

val max_abs : t -> float

val frobenius_diff : t -> t -> float
(** Frobenius norm of the difference; matrices must share dimensions. *)
