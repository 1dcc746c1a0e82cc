(** Run every table/figure reproduction and print the full report — the
    entry point used by [bin/repro.exe] and [gnrfet_cli experiment]. *)

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

val name : id -> string

val of_name : string -> id option

val run_and_print : Format.formatter -> id -> unit
(** Compute one experiment and print its report (the Fig 3(b) surface is
    shared with Table 1 within one call to {!run_all}). *)

val run_all : Format.formatter -> unit
(** The full reproduction, in paper order. *)
