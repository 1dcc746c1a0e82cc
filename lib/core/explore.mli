(** Technology exploration over the (VDD, VT) plane — Section 3.1 and
    Fig 3(b) of the paper.

    The threshold voltage axis is realized through the gate work-function
    offset, which rigidly shifts the I–V curve (Fig 2(b)); VT(offset) =
    VT(0) − offset.  For each grid point the 15-stage FO4 ring-oscillator
    frequency, the EDP and the inverter SNM are computed from the
    characterized inverter. *)

type point = {
  vdd : float;
  vt : float;
  frequency : float;  (** 15-stage RO frequency, Hz *)
  edp : float;  (** J·s (plot as ln(aJ·ps) to match Fig 3(b)) *)
  snm : float;  (** inverter static noise margin, V *)
}

type surface = {
  vdds : float array;
  vts : float array;
  points : point array array;  (** [points.(i_vdd).(j_vt)] *)
}

val pair_at : Iv_table.t -> vt:float -> Cells.pair
(** Complementary 4-GNR device pair with the threshold placed at [vt]. *)

val surface :
  ?stages:int ->
  ?vdds:float array ->
  ?vts:float array ->
  Iv_table.t ->
  surface
(** Sweep the plane (defaults: VDD 0.1–0.7 in 13 steps, VT 0–0.3 in 13
    steps, 15 stages). *)

val edp_ln_aj_ps : point -> float
(** ln(EDP / (aJ·ps)) — the contour value plotted in Fig 3(b). *)

type objective = Frequency | Edp | Snm_margin

val field : surface -> objective -> float array array

val contours :
  surface -> objective -> level:float -> Contour.polyline list
(** Iso-contours of a metric over the plane (x = VT, y = VDD as in the
    paper's figure). *)

type operating_point = { vdd : float; vt : float; value : float }

val min_edp : surface -> operating_point
(** Unconstrained EDP minimum over the grid. *)

val min_edp_at_frequency : surface -> ghz:float -> operating_point option
(** Point A: minimum EDP on (an interpolated neighbourhood of) the given
    frequency contour. *)

val min_edp_at_frequency_and_snm :
  surface -> ghz:float -> snm:float -> operating_point option
(** Point B: minimum EDP subject to both the frequency and SNM targets. *)

val same_edp_higher_vt :
  surface -> like:operating_point -> operating_point option
(** Point C: the highest-VT grid point with (approximately) the same EDP
    and SNM as [like], illustrating the potential-divider penalty. *)
