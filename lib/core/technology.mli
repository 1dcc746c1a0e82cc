(** The GNRFET-versus-scaled-CMOS comparison of Table 1.

    GNRFETs are evaluated at the three operating points of Fig 3(b)
    (A: minimum-EDP at 3 GHz; B: 3 GHz with an SNM floor; C: same EDP as B
    at a higher threshold); each CMOS node at VDD ∈ {0.8, 0.6, 0.4} V. *)

type row = {
  label : string;
  vdd : float;
  vt : float;
  frequency : float;  (** 15-stage FO4 RO frequency, Hz *)
  edp : float;  (** J·s *)
  snm : float;  (** V *)
}

val gnrfet_operating_points : Explore.surface -> row list
(** Points A, B and C, read off a VDD–VT surface (Fig 3(b)'s). *)

val cmos_rows : unit -> row list
(** The nine scaled-CMOS rows (3 nodes × 3 supplies), measured with the
    same inverter-characterization methodology as the GNRFET rows. *)
