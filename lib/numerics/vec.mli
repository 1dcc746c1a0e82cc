(** Dense float-vector helpers used across the numerical stack. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b] inclusive.
    Requires [n >= 2] unless [n = 1], in which case the result is [[|a|]]. *)

val dot : float array -> float array -> float
(** Euclidean inner product. Lengths must agree. *)

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val scale : float -> float array -> float array

val add : float array -> float array -> float array

val sub : float array -> float array -> float array

val norm2 : float array -> float
(** Euclidean norm. *)

val norm_inf : float array -> float
(** Max-abs norm; [0.] for the empty vector. *)

val max_abs_diff : float array -> float array -> float
(** [max_abs_diff x y] is [norm_inf (sub x y)] without allocation. *)

val sum : float array -> float

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on the empty vector. *)

val minimum : float array -> float
(** Smallest element; raises [Invalid_argument] on the empty vector. *)

val maximum : float array -> float
(** Largest element; raises [Invalid_argument] on the empty vector. *)

val argmin : float array -> int
(** Index of the smallest element (first occurrence). *)

val argmax : float array -> int
(** Index of the largest element (first occurrence). *)
