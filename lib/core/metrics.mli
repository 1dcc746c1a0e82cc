(** Circuit figures of merit used throughout Sections 3–5 of the paper. *)

type inverter_metrics = {
  tp_lh : float;  (** output low→high propagation delay, s *)
  tp_hl : float;  (** output high→low propagation delay, s *)
  tp : float;  (** average of the two, s *)
  p_static : float;  (** average leakage power over the two input states, W *)
  e_switch : float;  (** supply energy of one full LH+HL output cycle, J *)
  snm : float;  (** static noise margin (butterfly against itself), V *)
}

val input_cap : Cells.pair -> vdd:float -> float
(** Gate load of one inverter input at mid-bias (F): [cgs + cgd] of both
    FETs at [vgs = vds = vdd / 2] plus the extrinsic junction
    capacitances.  The unit load of {!time_scale} and the fanout-load
    correction weight of the Fig 6 Monte Carlo. *)

val time_scale : Cells.pair -> fanout:int -> vdd:float -> float
(** Crude RC estimate of the cell's switching timescale (s); used to size
    transient windows (exposed for the latch-dynamics study). *)

val inverter_metrics : pair:Cells.pair -> vdd:float -> unit -> inverter_metrics
(** Characterize a FO4-loaded inverter (four copies of [pair] as the
    load): static powers from DC operating points, delays and switching
    energy from a two-edge transient (with a self-calibrated time step),
    SNM from the static VTC.  Raises [Robust_error.Error (Unrecovered _)]
    (stage ["Metrics.inverter_metrics"]) when four transients at
    growing time scales show no output transition. *)

val ro_frequency : inverter_metrics -> stages:int -> float
(** Ring-oscillator frequency implied by the average stage delay,
    [1 / (2 * stages * tp)]. *)

val dynamic_power : inverter_metrics -> frequency:float -> float
(** Average dynamic power when switching at the given rate, [e_switch *
    frequency]. *)

val edp : inverter_metrics -> stages:int -> float
(** Energy–delay product figure used for the technology exploration
    (Section 3.1): total oscillator power times period squared
    (equivalently, energy per period times period), in J·s. *)

type ring_metrics = {
  frequency : float;  (** Hz *)
  p_total : float;  (** average supply power while oscillating, W *)
  p_static_ring : float;  (** stage-summed DC leakage estimate, W *)
  p_dynamic : float;  (** [p_total - p_static_ring], W *)
}

val ring_metrics :
  ?dummy_loads:int -> ?cycles:float -> stages:Cells.pair array -> vdd:float -> unit -> ring_metrics option
(** Full transient measurement of the ring oscillator (frequency from tap
    crossings, power from the supply current).  The transient is started
    from the perturbed metastable DC point; [None] if the ring fails to
    oscillate within the simulated window. *)
