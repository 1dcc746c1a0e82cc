(** Tables 2, 3 and 4: inverter delay, static/dynamic power and SNM under
    width variations, charge impurities, and their combination, in the
    paper's "one-of-four, all-four" percent format. *)

type which = Width | Impurity | Combined

type result = { which : which; table : Variation.table }

val run : which -> result
(** At operating point B. *)

val print : Format.formatter -> result -> unit
