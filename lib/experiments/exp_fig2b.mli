(** Fig 2(b): threshold-voltage extraction at low VD, with and without a
    gate work-function offset — the offset shifts VT by an equal amount. *)

type result = {
  vt_no_offset : float;  (** V (paper: ≈ 0.3 V) *)
  vt_with_offset : float;  (** V with 0.2 V offset (paper: ≈ 0.1 V) *)
  offset : float;
  curve_no_offset : float array * float array;  (** (VG, ID) at VD=0.05 *)
  curve_with_offset : float array * float array;
}

val run : unit -> result

val print : Format.formatter -> result -> unit
