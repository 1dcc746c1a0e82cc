(** Variability and defect studies on inverters and latches
    (Sections 4–5, Tables 2–4, Fig 7).

    Every metric is evaluated at the technology-exploration operating
    point (VDD = 0.4 V, VT = 0.13 V by default), with the gate
    work-function offset fixed by the *nominal* device — variations then
    shift the effective thresholds implicitly, exactly as in the paper.
    Each table entry carries the two scenarios: one GNR of the 4-GNR array
    affected, and all four affected. *)

type op_point = { vdd : float; vt : float }

val point_b : op_point
(** VDD = 0.4 V, VT = 0.13 V (Section 3.1's chosen trade-off point). *)

type spec = { gnr_index : int; charge : float }
(** A per-GNR anomaly: width index and impurity charge (in |q|). *)

val nominal_spec : spec

type entry = {
  p_spec : spec;  (** anomaly of the p-type FET's GNR(s) *)
  n_spec : spec;  (** anomaly of the n-type FET's GNR(s) *)
  one : Metrics.inverter_metrics;  (** 1-of-4 GNRs affected *)
  all : Metrics.inverter_metrics;  (** 4-of-4 GNRs affected *)
}

type table = {
  op : op_point;
  nominal : Metrics.inverter_metrics;
  rows : spec list;  (** p-FET anomaly per row *)
  cols : spec list;  (** n-FET anomaly per column *)
  entries : entry array array;
}

val pair_for :
  op:op_point -> n_spec:spec -> p_spec:spec -> all_four:bool -> unit -> Cells.pair
(** Device pair with the anomaly applied to one or all four GNRs of each
    FET. *)

val metrics_for :
  op:op_point -> n_spec:spec -> p_spec:spec -> all_four:bool -> Metrics.inverter_metrics
(** [Metrics.inverter_metrics] of {!pair_for} at [op.vdd], memoized on
    the whole configuration for the life of the process: Tables 2–4 and
    the Fig 6 Monte Carlo share characterizations through it. *)

val inverter_table : ?op:op_point -> rows:spec list -> cols:spec list -> unit -> table
(** Generic engine behind Tables 2–4. *)

val width_table : ?op:op_point -> unit -> table
(** Table 2: N ∈ \{9, 12, 15, 18\} on both FETs. *)

val impurity_table : ?op:op_point -> unit -> table
(** Table 3: charge ∈ \{+2q, +q, 0, −q, −2q\} (p rows) × \{−2q … +2q\}
    (n cols) on N = 12 GNRs, ordered as printed in the paper. *)

val combined_table : ?op:op_point -> unit -> table
(** Table 4: simultaneous width (9/18) and impurity (±q) anomalies. *)

val pct : nominal:float -> float -> float
(** Percentage change. *)

type latch_study = {
  label : string;
  butterfly : (float * float) list * (float * float) list;
  snm : float;
  static_power : float;  (** total latch leakage at its stable state, W *)
}

val latch :
  ?op:op_point -> n_spec:spec -> p_spec:spec -> all_four:bool -> unit -> latch_study
(** Cross-coupled-inverter latch with both inverters equally affected
    (the paper's Fig 7 setup). *)

val latch_worst_case : ?op:op_point -> all_four:bool -> unit -> latch_study
(** The paper's worst case: n-FETs at N = 9 with +q, p-FETs at N = 18
    with −q. *)

type write_result = {
  flipped : bool;  (** did the latch change state *)
  settle : float;  (** time from pulse start until the state settled, s *)
}

val latch_write :
  ?op:op_point ->
  n_spec:spec ->
  p_spec:spec ->
  all_four:bool ->
  pulse_width:float ->
  unit ->
  write_result
(** Dynamic write experiment: the latch sits in its (a low, b high) state
    and a VDD pulse of the given width drives node [a] through 20 kΩ
    (an access-device stand-in).  Returns
    whether the cell flipped — degraded cells need longer pulses, the
    dynamic face of the noise-margin loss of Fig 7. *)

val minimum_write_pulse :
  ?op:op_point ->
  n_spec:spec ->
  p_spec:spec ->
  all_four:bool ->
  unit ->
  float
(** Bisected minimum pulse width (s) that still flips the cell. *)
