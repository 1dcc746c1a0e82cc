(** Fig 7: latch butterfly curves — nominal, single-GNR-affected and
    all-GNRs-affected worst cases; the eye collapse and the >5X static
    power increase. *)

type result = {
  nominal : Variation.latch_study;
  single : Variation.latch_study;
  all : Variation.latch_study;
  static_power_ratio : float;  (** worst-case / nominal (paper: >5X) *)
}

val run : unit -> result
(** At operating point B. *)

val print : Format.formatter -> result -> unit
