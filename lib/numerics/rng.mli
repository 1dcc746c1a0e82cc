(** Deterministic, seedable pseudo-random number generator (splitmix64).

    All stochastic studies in the repository (Monte Carlo variation analysis,
    property-based fuzzing helpers) use this generator so that every result is
    reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator stream from [t], advancing
    [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t a b] is uniform in [\[a, b)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val normal : t -> float
(** Standard normal deviate (Box–Muller, one value per call). *)

val gaussian : t -> mean:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)
