(** Monte Carlo study of the 15-stage ring oscillator under simultaneous
    width variation and charge impurities (Fig 6 of the paper).

    Widths N ∈ \{9, 12, 15\} and charges ∈ \{−q, 0, +q\} are drawn from a
    discretized normal distribution (mean N = 12 / charge 0; the ±σ points
    map to the outer values), independently for the n- and p-FET of every
    stage.  Stage delays, leakages and switching energies come from the
    pre-characterized inverter variants; the ring frequency is
    1 / (2 Σ tp_i) with a first-order fanout-load correction (see
    DESIGN.md). *)

type sample = {
  frequency : float;  (** Hz *)
  p_dynamic : float;  (** W *)
  p_static : float;  (** W *)
}

type result = {
  nominal : sample;  (** all stages nominal *)
  samples : sample array;
      (** surviving samples, in draw order (length [samples -
          quarantined]) *)
  quarantined : int;
      (** samples dropped because their evaluation failed with a typed
          solver error, an injected fault or a solver [Failure]; also
          counted in the [robust.mc.quarantined] obs counter.  0 on
          healthy runs.  See docs/ROBUST.md. *)
}

val quarantineable : exn -> bool
(** True for the exceptions a statistical study survives by dropping
    the sample: [Robust_error.Error] (singular solves, non-converged
    iterations and injected faults among them) and [Failure].  Shared
    by {!run_with} and the campaign engine (lib/campaign) so the two
    quarantine policies stay identical; anything else (out-of-memory,
    programming errors) propagates. *)

val run : ?samples:int -> ?seed:int -> unit -> result
(** A 15-stage ring at operating point B; defaults 2000 samples, seed
    42.  Each outer value is drawn with probability 0.1587 (the mass
    beyond ±1σ of a normal, as implied by the paper's "N = 9/15 and ±q
    set to σ").
    Failed samples are quarantined, not propagated (see {!result});
    a failing {e nominal} evaluation still raises. *)

val run_with :
  evaluate:((int * int) array -> sample) ->
  stages:int ->
  samples:int ->
  seed:int ->
  sigma_probability:float ->
  nominal_ids:int * int ->
  unit ->
  result
(** The sampling/quarantine loop behind {!run}, parameterized over the
    per-sample evaluator (stage variant ids, n-FET and p-FET packed as
    [3*width_idx + charge_idx]) so the quarantine policy can be tested
    without transient characterizations.  The random draw for a sample
    happens before its evaluation: surviving samples see the same draw
    sequence as a fault-free run. *)

val histograms : result -> Stats.histogram * Stats.histogram * Stats.histogram
(** (frequency in GHz, dynamic power in µW, static power in µW) — the
    three panels of Fig 6, 30 bins each. *)
