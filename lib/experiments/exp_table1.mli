(** Table 1: delay, EDP and SNM of the 15-stage FO4 ring oscillator for
    GNRFETs (operating points A/B/C) versus scaled CMOS at 22/32/45 nm and
    VDD ∈ \{0.8, 0.6, 0.4\} V. *)

type result = {
  gnrfet : Technology.row list;
  cmos : Technology.row list;
  edp_improvement_range : (float * float) option;
      (** min and max CMOS-optimum-to-GNRFET-B EDP ratio (paper: 40–168X);
          [None] when the reference operating point is missing or no ratio
          is finite, so NaN never flows into downstream EDP comparisons *)
}

val run : Explore.surface -> result
(** GNRFET rows read off the Fig 3(b) VDD–VT surface. *)

val print : Format.formatter -> result -> unit
