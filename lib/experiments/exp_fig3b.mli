(** Fig 3(b): EDP, frequency and SNM contours of the 15-stage FO4 ring
    oscillator over the (VT, VDD) plane, and the operating points A/B/C. *)

type result = {
  surface : Explore.surface;
  min_edp : Explore.operating_point;
  point_a : Explore.operating_point option;
  point_b : Explore.operating_point option;
  point_c : Explore.operating_point option;
  freq_3ghz_contour : Contour.polyline list;
  snm_contours : (float * Contour.polyline list) list;
}

val run : unit -> result
(** 13 grid points per axis. *)

val print : Format.formatter -> result -> unit
