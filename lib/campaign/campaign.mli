(** Crash-safe resumable device campaigns (docs/CAMPAIGN.md).

    A campaign expands a typed {!spec} — device axes (GNR width,
    impurity charge, contact broadening) × operating points (VDD, VT) ×
    a sample count — into deterministically seeded samples
    (splitmix64 on (seed, index), like {!Fault}), evaluates each
    sample's inverter figures of merit (delay, EDP, SNM) from its
    device table, quarantines unrecoverable samples through the same
    predicate as {!Montecarlo} ({!Montecarlo.quarantineable}), and
    accumulates streaming analytics ({!Stream_stats}) so memory stays
    O(1) in the sample count.

    {b Durability.}  With a [journal] path, every sample is appended to
    a CRC-32C write-ahead journal ({!Journal}) and fsync'd at
    checkpoint boundaries before the next sample starts.  After a
    crash, [resume] replays the journal's valid prefix into the
    accumulators (exact recorded float64 bits, in index order), drops a
    torn tail with a typed reason, and continues from the first
    unrecorded sample — the final report is bit-identical to an
    uninterrupted run's (the CI chaos leg SIGKILLs a campaign at a
    seeded checkpoint boundary and byte-diffs the two reports).

    {b Determinism.}  Samples are evaluated strictly in index order;
    parallelism lives in the energy loops below {!Table_cache.get}
    (which the daemon runs on the requesting thread), never across
    samples. *)

type spec = {
  name : string;
  samples : int;  (** > 0 *)
  seed : int;  (** seeds the per-sample splitmix64 streams *)
  stages : int;  (** ring-oscillator stages for delay/EDP (paper: 15) *)
  widths : int list;  (** A-GNR index axis (9/12/15/18) *)
  charges : float list;  (** impurity charge axis, units of |q| *)
  gammas : float list;  (** contact broadening axis, eV *)
  ops : (float * float) list;  (** (VDD, VT) operating-point axis, V *)
  grid : Iv_table.grid_spec option;  (** table bias grid (None = default) *)
}

val validate : spec -> (spec, string) result

val spec_of_json : Sjson.t -> (spec, string) result
(** Strict decode (unknown fields rejected).  Defaults: [seed] 1,
    [stages] 15, [widths] [[12]], [charges] [[0]], [gammas] [[1]];
    [name], [samples] and [ops] are required.  Grammar in
    docs/CAMPAIGN.md. *)

val spec_to_json : spec -> Sjson.t
(** Canonical encoding (fixed field order, all defaults explicit) —
    the byte string whose CRC-32C is {!spec_hash}. *)

val spec_hash : spec -> int
(** CRC-32C of the canonical spec JSON; stored in the journal header so
    [resume] refuses a journal written for a different spec
    ([Torn_spec_mismatch]). *)

type sample = {
  s_index : int;
  s_width : int;
  s_charge : float;
  s_gamma : float;
  s_vdd : float;
  s_vt : float;
}

val sample_at : spec -> int -> sample
(** The deterministic expansion: sample [i]'s axis draws.  Pure —
    depends only on [(spec.seed, i)] and the axis lists. *)

val params_of_sample : sample -> Params.t
(** Device parameters of a sample (width, contact broadening, impurity
    charge; VT is realized downstream through {!Explore.pair_at}'s gate
    shift, VDD at circuit level). *)

(** {2 Executors} *)

type executor = Params.t -> Iv_table.grid_spec option -> Iv_table.t
(** How a sample's device table is obtained.  May raise typed solver
    errors (quarantining the sample) or typed client errors. *)

val serve_executor : fallback:bool -> Serve_client.t -> unit -> executor
(** Fetch tables from the serve daemon via {!Serve_client.call} (so
    busy rejections are retried honoring [retry_after_ms]).  Daemon-side
    solver errors re-raise as [Robust_error] and quarantine the sample
    like a local failure.  With [~fallback:true], a typed {e client}
    failure (timeout, disconnect, breaker open, busy through the whole
    retry budget) degrades to a local {!Table_cache.get}, counted in
    [campaign.serve_fallbacks], so a dead or saturated daemon costs
    time, never samples; with [~fallback:false] it re-raises. *)

(** {2 Reports} *)

type report = {
  r_spec : spec;
  r_total : int;
  r_completed : int;
  r_quarantined : (int * string) list;
      (** (sample index, rendered typed reason), ascending *)
  r_delay : Stream_stats.snapshot;  (** inverter tp, s *)
  r_edp : Stream_stats.snapshot;  (** J·s *)
  r_snm : Stream_stats.snapshot;  (** V *)
}

val report_to_json : report -> Sjson.t
(** Deterministic content only (no timings, no cache counters): an
    uninterrupted run and a crash-plus-resume run of the same spec
    render byte-identical JSON. *)

val write_report : path:string -> report -> unit
(** Atomic write (tmp + rename), one line plus trailing newline. *)

(** {2 Engine} *)

type run_outcome = {
  report : report;
  resumed : int;
      (** samples restored from the journal rather than re-evaluated *)
  evaluated : int;  (** samples evaluated by this process *)
  torn : Robust_error.torn_reason option;
      (** recoverable tail damage dropped during resume, if any *)
  duplicates : int;  (** duplicate journal records skipped *)
}

type sample_metrics = { delay : float; edp : float; snm : float }
(** What one surviving sample contributes: inverter tp (s), EDP (J·s),
    SNM (V). *)

val run_with :
  ?journal:string ->
  ?resume:bool ->
  ?checkpoint_every:int ->
  ?kill_after:int ->
  evaluate:(sample -> sample_metrics) ->
  spec ->
  run_outcome
(** The engine behind {!run}, parameterized over the per-sample
    evaluator so checkpoint/resume/quarantine semantics are testable
    without SCF solves (mirrors {!Montecarlo.run_with}).  An evaluator
    exception matching {!Montecarlo.quarantineable} quarantines the
    sample; anything else aborts the run (after closing the journal,
    whose synced prefix then resumes). *)

val run :
  ?executor:executor ->
  ?journal:string ->
  ?resume:bool ->
  ?checkpoint_every:int ->
  ?kill_after:int ->
  spec ->
  run_outcome
(** Run (or, with [resume:true], resume) a campaign.  [journal] enables
    the write-ahead checkpoint journal; [checkpoint_every] (default 1)
    is the fsync cadence in samples — everything synced survives a
    crash, at most [checkpoint_every] samples are re-evaluated on
    resume.  [kill_after:n] is the chaos hook: the process SIGKILLs
    itself at the first checkpoint boundary after evaluating [n]
    samples (CI uses it to die deterministically between records).
    [executor] defaults to {!Table_cache.get}.  Obs accounting:
    [campaign.samples] (evaluated here), [campaign.quarantined],
    [campaign.replayed], [campaign.journal.records],
    [campaign.journal.duplicates], [campaign.journal.torn.<label>],
    timer [campaign.checkpoint].
    Raises [Invalid_argument] on an invalid spec or [resume] without
    [journal]; [Robust_error.Error (Checkpoint_torn _)] on a fatally
    damaged journal. *)

(** {2 Status} *)

type status = {
  st_spec_hash : int;  (** hash stored in the journal header *)
  st_recorded : int;  (** contiguous samples in the valid prefix *)
  st_completed : int;
  st_quarantined : int;
  st_duplicates : int;
  st_torn : Robust_error.torn_reason option;
  st_total : int option;  (** when the spec is provided *)
}

val status : journal:string -> ?spec:spec -> unit -> status
(** Inspect a journal without running anything.  With [spec], also
    verifies the hash (fatal mismatch raises like {!run}). *)
