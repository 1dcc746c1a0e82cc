(** Fixed-point accelerators for the NEGF ↔ Poisson self-consistent loop.

    Given the fixed-point map [g] (here: potential -> potential implied by
    the NEGF charge), each [step] consumes the pair (input [x], output
    [g x]) and proposes the next input. *)

type t

val linear : alpha:float -> t
(** Plain under-relaxation: [x' = x + alpha * (g x - x)]. *)

val anderson : ?history:int -> ?alpha:float -> unit -> t
(** Anderson acceleration (type-II) with the given history depth (default 4)
    and fallback damping [alpha] (default 0.3) applied to the extrapolated
    residual. *)

val step : t -> x:float array -> gx:float array -> float array
(** Next iterate. The same [t] must be reused across iterations of one SCF
    solve; create a fresh one per solve. *)

val reset : t -> unit
(** Drop accumulated history (e.g. when restarting at a new bias point). *)
