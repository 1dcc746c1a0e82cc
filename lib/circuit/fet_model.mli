(** Abstract large-signal FET model consumed by the circuit engine.

    A model answers for the *intrinsic* device between its gate, drain and
    source terminals; extrinsic parasitics (contact resistances, junction
    capacitances) are added as explicit circuit elements by the cell
    builders, following Fig 3(a) of the paper. *)

type t = {
  name : string;
  id : vgs:float -> vds:float -> float;
      (** static drain current (A), defined for both signs of [vds] *)
  cgs : vgs:float -> vds:float -> float;
      (** intrinsic gate–source capacitance (F), non-negative *)
  cgd : vgs:float -> vds:float -> float;
      (** intrinsic gate–drain capacitance (F), non-negative *)
}

val parallel : string -> t list -> t
(** Terminal-wise parallel composition: currents and capacitances add.
    Used for the 4-GNR array channel, where each GNR may carry its own
    variation or defect. *)
