(** Small linear least squares via the normal equations. *)

val solve : Matrix.t -> float array -> float array
(** [solve a b] minimizes ||a x - b||2 for an overdetermined [a] via the
    normal equations; adequate for the small, well-conditioned systems
    of Anderson mixing ({!Mixing}), its one caller. *)
