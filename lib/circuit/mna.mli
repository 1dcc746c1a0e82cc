(** Nonlinear nodal analysis: Newton DC operating points and trapezoidal
    transient simulation over a {!Netlist}.

    Instrumented into {!Obs.global}: [mna.dc_solves] and the
    [mna.solve_dc] timer, [mna.newton_iterations] (summed across homotopy
    rungs), the [mna.transient] timer, [mna.transient_steps] and
    [mna.transient_retries] (steps that fell back to [dt / 4]
    substeps).  See docs/OBS.md. *)

type state = float array
(** Node voltages indexed by node id (entry 0 is ground, always 0). *)

val solve_dc : ?x0:state -> ?time:float -> Netlist.t -> state
(** Newton solution of the static KCL equations with the sources evaluated
    at [time] (default 0).  Falls back to gmin stepping when plain Newton
    fails; raises [Robust_error.Error (Newton_failure {analysis = "dc"; _})]
    if every escalation rung fails (see docs/ROBUST.md). *)

type waveform = { times : float array; voltages : float array array }
(** [voltages.(k)] is the node-voltage vector at [times.(k)]. *)

val transient :
  ?x0:state ->
  Netlist.t ->
  t_stop:float ->
  dt:float ->
  waveform
(** Trapezoidal integration from the DC point at t=0 (or [x0]) to
    [t_stop] with nominal step [dt].  If a step's Newton fails the step is
    retried as four substeps of [dt / 4] internally, recursing one level
    deeper ([dt / 16]) on a failed substep and finally retrying the
    failing substep with a small stabilizing gmin; a step that fails the
    whole ladder raises [Robust_error.Error (Newton_failure {analysis =
    "transient"; time})] (see docs/ROBUST.md).  Capacitances of FET
    models are evaluated at the start-of-step voltages (standard
    table-model practice; see DESIGN.md). *)

val node_trace : waveform -> Netlist.node -> float array

val waveform_to_csv : ?nodes:Netlist.node list -> waveform -> string
(** CSV dump of a transient ("t,v0,v1,..." rows), optionally restricted to
    the listed nodes (header names follow node ids). *)

val dc_current : Netlist.t -> state -> Netlist.node -> float
(** Static current delivered into the circuit by the source driving
    [node], evaluated from a (converged) node-voltage vector. *)

val source_current :
  Netlist.t -> waveform -> Netlist.node -> float array
(** Current delivered by the voltage source driving [node] at each time
    point (positive out of the source into the circuit), reconstructed
    from the converged voltages: the static current plus the capacitive
    displacement current of the elements incident on the node. *)
