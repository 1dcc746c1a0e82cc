(** Escalation-ladder recovery for SCF bias points.

    A point that {!Scf.solve} cannot converge — or that dies in a raised
    solver failure (singular pivot, non-converged iteration, injected
    fault) — is retried up a fixed ladder of
    increasingly conservative configurations:

    + {b Anderson} — the exact plain [Scf.solve] call (bit-for-bit
      identical to calling [Scf.solve] directly when it converges, so
      wrapping a sweep in [solve_robust] changes nothing on healthy
      inputs);
    + {b Damped restart} — Anderson restarted with heavy damping
      (alpha 0.2), warm-started from the best iterate so far;
    + {b Slow linear} — plain under-relaxation at alpha 0.1 with 3x the
      iteration budget: slow, but immune to the Anderson oscillation
      modes;
    + {b Neighbor continuation} — only when the caller supplies
      [?neighbor] (the converged potential of the nearest
      previously-converged bias point): restart the slow-linear rung
      from that profile, the bias-continuation move that table sweeps
      rely on.

    Ladder traffic is counted in [robust.scf.retries] (attempts after
    the first), [robust.scf.escalations] (points that needed any
    retry), [robust.scf.recovered] and [robust.scf.unrecovered].
    See docs/ROBUST.md. *)

type rung = Anderson | Damped_restart | Linear_slow | Neighbor_continuation

type attempt = {
  rung : rung;
  status : Scf.status option;  (** [None] when the attempt raised *)
  iterations : int;
  residual : float;  (** [infinity] when the attempt raised *)
  error : string option;  (** the raised exception, printed *)
}

type outcome = {
  solution : Scf.solution option;
      (** best (lowest-residual) solution across attempts; [None] only
          when every attempt raised *)
  attempts : attempt list;  (** chronological, at least one *)
  recovered : bool;
      (** converged on a rung after the first (plain-call convergence is
          not "recovery") *)
}

val solve_robust :
  ?tol:float ->
  ?max_iter:int ->
  ?init:float array ->
  ?neighbor:float array ->
  Params.t ->
  vg:float ->
  vd:float ->
  outcome
(** Run the ladder at (VG, VD).  [init]/[tol]/[max_iter] default
    exactly as in {!Scf.solve} (the first rung {e is} that call, with
    the optional knobs forwarded as given).  Raised failures
    ([Robust_error.Error] carrying [Singular],
    [Iterative_no_convergence] or [Injected_fault]) are recorded per
    attempt and trigger the next rung; [Invalid_argument] (caller bugs)
    propagates. *)
