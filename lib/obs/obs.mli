(** gnrfet_obs — zero-dependency observability layer for the solver stack.

    Monotonic counters, cumulative wall-clock timers, power-of-two
    histograms and nestable spans, registered by name in a registry that
    can be snapshotted to a deterministic report or reset between runs.

    {b Cost model.}  Every metric handle carries the [enabled] flag of
    its registry: when the registry is disabled each operation is a
    single branch — no allocation, no clock read, no atomic traffic —
    so instrumentation can stay in solver code permanently.  When
    enabled, counters and histograms are a single [Atomic] RMW and
    timers add one [Unix.gettimeofday] pair per timed region.  Hot
    per-energy loops must only touch counters (amortised per chunk);
    spans and timers belong at per-grid or per-solve granularity.

    {b Registries.}  [global] is the process-wide registry used by the
    static instrumentation in the numerics/NEGF/Poisson/circuit layers.
    The solver entry points ([Observables] → [Scf.solve] →
    [Iv_table.generate] → [Table_cache.get_many], the serve daemon and
    the campaign engine) take the registry as [?obs] (default [global])
    and pass it down, so a caller can collect an isolated snapshot
    (docs/API.md).  The default enabled state of
    [global] comes from the [GNRFET_OBS] environment variable: unset,
    ["0"], ["false"] or ["off"] mean disabled (the test-suite default);
    anything else means enabled.  The CLI turns it on explicitly
    unless [GNRFET_OBS=0].

    {b Determinism.}  Counter and histogram contents are deterministic
    functions of the work performed; timer values are wall-clock and
    vary run to run.  Snapshots list every section sorted by metric
    name, so the report {e structure} is deterministic and two runs of
    the same workload produce identical counter sections.

    See docs/OBS.md for the metric inventory and the JSON schema. *)

type t
(** A metric registry. *)

val global : t
(** The process-wide registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh, empty registry (default [enabled:false]); used by tests and
    by callers that want isolated accounting. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Toggling affects subsequent operations only; metric values are
    retained across toggles. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); exposed so low layers can
    time without their own unix dependency. *)

module Counter : sig
  type obs := t

  type t
  (** A named monotonic counter ([Atomic] int). *)

  val make : ?obs:obs -> string -> t
  (** Find-or-create by name in the registry (default {!global}): two
      [make] calls with one name share one cell. *)

  val incr : t -> unit
  (** No-op while the owning registry is disabled (a single branch). *)

  val add : t -> int -> unit
  (** [add c n] with [n >= 0]; negative deltas are ignored so counters
      stay monotonic.  No-op while disabled. *)

  val value : t -> int

  val name : t -> string
end

module Timer : sig
  type obs := t

  type t
  (** A named cumulative wall-clock timer (call count + total time). *)

  val make : ?obs:obs -> string -> t

  val start : t -> float
  (** Returns {!now} when the registry is enabled, [0.] otherwise (so a
      disabled hot path never reads the clock). *)

  val stop : t -> float -> unit
  (** [stop t t0] records [now () -. t0] against [t] when enabled and
      [t0 > 0.]; otherwise a no-op.  Pair with the {!start} result. *)

  val record : t -> float -> unit
  (** Record an externally measured duration (seconds, clamped at 0). *)

  val calls : t -> int

  val total_s : t -> float
end

module Histogram : sig
  type obs := t

  type t
  (** Power-of-two-bucket histogram of non-negative integers (iteration
      counts, sizes): value [v] lands in the bucket whose exclusive
      upper bound is the smallest power of two above [v]. *)

  val make : ?obs:obs -> string -> t

  val observe : t -> int -> unit
  (** No-op while disabled; negative values clamp to 0. *)

  val count : t -> int

  val sum : t -> int

  val max_value : t -> int
end

module Span : sig
  type obs := t

  exception Mismatch of string
  (** Raised when a span exit does not match the innermost open span on
      the current thread — structurally impossible through {!run}, kept
      as a checked invariant for the property suite. *)

  val run : ?obs:obs -> string -> (unit -> 'a) -> 'a
  (** [run name f] opens a span, runs [f], and closes the span whether
      [f] returns or raises; the elapsed time aggregates into the timer
      named [name].  Spans nest {e per thread} (not merely per domain:
      systhreads sharing a domain — the serve daemon's connection
      threads — each get their own stack, so concurrent spans never
      interleave): the exit always matches the innermost open span.
      When the registry is disabled this is exactly [f ()]. *)

  val depth : t -> int
  (** Open spans on the calling thread (0 outside any span). *)

  val stack : t -> string list
  (** Names of the open spans on the calling thread, innermost first. *)
end

(** {2 Snapshots} *)

type timer_stat = { t_calls : int; total_ms : float }

type hist_stat = {
  h_count : int;  (** observations *)
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
      (** (exclusive upper bound, count), nonzero buckets only,
          ascending *)
}

type snapshot = {
  snap_enabled : bool;
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_timers : (string * timer_stat) list;  (** sorted by name *)
  snap_histograms : (string * hist_stat) list;  (** sorted by name *)
}

val snapshot : ?obs:t -> unit -> snapshot
(** Consistent-enough copy of the registry (each cell is read once,
    atomically; no cross-metric transaction). *)

val counter_value : ?obs:t -> string -> int
(** Current value of a counter by name; 0 when unregistered. *)

val reset : ?obs:t -> unit -> unit
(** Zero every metric, keeping registrations (names survive, values
    restart from 0).  Open span stacks are not touched. *)

val to_json : ?indent:string -> snapshot -> string
(** Deterministic JSON: sections and entries sorted by name.  [indent]
    prefixes every line (for embedding in an enclosing document).
    Schema ["gnrfet-obs-v1"], documented in docs/OBS.md. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable table (the [obs-report] CLI output). *)
