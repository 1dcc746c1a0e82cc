(** Small formatting helpers shared by the experiment reproductions. *)

val heading : Format.formatter -> string -> unit
(** Underlined section heading. *)

val series :
  Format.formatter -> name:string -> xs:float array -> ys:float array -> unit
(** Print a two-column numeric series. *)

val si : float -> string
(** Engineering notation with an SI prefix (e.g. ["3.42 G"]). *)
