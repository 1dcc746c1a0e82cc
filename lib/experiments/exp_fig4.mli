(** Fig 4: I–V characteristics at VD = 0.5 V for GNR widths
    N ∈ \{9, 12, 15, 18\} — the band-gap (leakage) and capacitance trends
    behind the width-variation study. *)

type width_curve = {
  n : int;
  gap : float;  (** eV *)
  vg : float array;
  id : float array;
  ion : float;  (** A at VG = 0.75 *)
  ioff : float;  (** minimum current, A *)
  on_off : float;
  cg_on : float;  (** intrinsic gate capacitance in the on state, F *)
}

type result = { curves : width_curve list }

val run : unit -> result

val print : Format.formatter -> result -> unit
