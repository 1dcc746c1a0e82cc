(** The paper's tables and figures, and one entry point that reproduces
    and prints any of them: the one [gnrfet_cli experiment] runs. *)

type id =
  | Fig2a
  | Fig2b
  | Fig3b
  | Table1
  | Fig4
  | Fig5
  | Table2
  | Table3
  | Table4
  | Fig6
  | Fig7

val all : id list
(** Every experiment, in paper order. *)

val name : id -> string

val run : Format.formatter -> id list -> unit
(** Compute the listed experiments and print their reports, in list
    order.  Table 1's operating points come from the Fig 3(b) surface,
    which one call computes at most once. *)
