(** Cell builders for the paper's representative circuits: FO4 inverters,
    15-stage ring oscillators, and latches, with the extrinsic parasitic
    network of Fig 3(a). *)

type pair = {
  nfet : Fet_model.t;
  pfet : Fet_model.t;
  ext : Gnr_model.extrinsic;
}
(** A complementary device pair plus its extrinsic parasitics.  Use
    [ext = { rs = 0.; rd = 0.; cgs_e = 0.; cgd_e = 0. }] (or
    {!no_parasitics}) for ideal/CMOS devices. *)

val no_parasitics : Gnr_model.extrinsic

val add_inverter :
  Netlist.t -> pair:pair -> vdd_node:Netlist.node -> input:Netlist.node -> output:Netlist.node -> unit
(** Stamp one inverter: contact resistances create internal drain/source
    nodes when non-zero; extrinsic junction capacitances connect the gate
    to the external source/drain terminals. *)

val add_gate_load :
  Netlist.t -> pair:pair -> vdd_node:Netlist.node -> input:Netlist.node -> unit
(** Stamp the *input load* of an inverter only: the bias-dependent gate
    capacitances of both FETs (drain and source tied, so no channel
    current) plus the extrinsic junction capacitances.  Used for fanout
    dummies so a FO4 ring oscillator stays compact. *)

val add_nand2 :
  Netlist.t ->
  pair:pair ->
  vdd_node:Netlist.node ->
  a:Netlist.node ->
  b:Netlist.node ->
  output:Netlist.node ->
  unit
(** Two-input NAND: series n-FET stack, parallel p-FETs, each device with
    its own contact parasitics. *)

val add_nor2 :
  Netlist.t ->
  pair:pair ->
  vdd_node:Netlist.node ->
  a:Netlist.node ->
  b:Netlist.node ->
  output:Netlist.node ->
  unit
(** Two-input NOR: parallel n-FETs, series p-FET stack. *)

type inverter_bench = {
  net : Netlist.t;
  vdd_node : Netlist.node;
  input : Netlist.node;  (** DUT input (driver output) *)
  output : Netlist.node;  (** DUT output *)
  source : Netlist.node;  (** raw driven source before the driver stage *)
}

val inverter_fo4 :
  pair:pair -> ?fanout:int -> vdd:float -> wave:(float -> float) -> unit -> inverter_bench
(** Testbench: source → driver inverter → DUT inverter loaded with
    [fanout] (default 4) gate-load replicas of the DUT pair. [wave]
    drives the source node. *)

type ring = {
  net : Netlist.t;
  vdd_node : Netlist.node;
  taps : Netlist.node array;  (** stage outputs, in ring order *)
}

val ring_oscillator :
  stages:pair array -> ?dummy_loads:int -> vdd:float -> unit -> ring
(** Odd-length ring; each stage additionally drives [dummy_loads]
    (default 3) gate loads of its own pair, making a fanout-of-four.
    The DC solution of an odd ring is its (unstable) metastable point, so
    transient measurements must start from a perturbed state — see
    {!Metrics.ring_metrics}. *)

val vtc : pair:pair -> vdd:float -> ?n:int -> unit -> Snm.vtc
(** Static voltage-transfer curve of the inverter (DC sweep with solution
    continuation); [n] (default 101) input samples. *)
