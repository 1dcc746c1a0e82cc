(** Typed failure taxonomy for the solver stack.

    Every recoverable solver failure is one of these constructors,
    raised as {!Error} (through {!raise_}), so recovery policy (the SCF
    ladder, quarantines) names one exception and matches on structure
    instead of scraping [Failure] strings, and unrecovered failures
    surface with enough context to reproduce them (solver, iteration
    count, residual).  See docs/ROBUST.md. *)

type corrupt_reason =
  | Bad_magic  (** the file does not start with the [GNRTBL] magic *)
  | Bad_version of { found : int }
      (** a [gnrtbl] file from a format version this reader does not
          speak (docs/FORMAT.md) *)
  | Crc_mismatch of { section : string }
      (** the named section ([“header”], [“vg”], [“vd”], [“current”],
          [“charge”], [“failed_points”]) failed its CRC-32C check *)
  | Truncated of { expected : int; got : int }
      (** the file is shorter (or longer) than the layout demands;
          [expected] is the byte count the header — or, below the
          minimum header size, the format — requires *)
  | Undecodable of { detail : string }
      (** not attributable to a precise section: raised for injected
          read faults (the [table_cache.read] fault site) *)
(** Why an on-disk table was rejected, precise enough that every
    corruption-matrix mutation class maps to a distinct constructor
    (docs/FORMAT.md lists the validation order that guarantees it). *)

val corrupt_label : corrupt_reason -> string
(** Constructor name in snake case ([“bad_magic”], …) — the suffix of
    the per-reason quarantine counters
    [table_cache.corrupt.<label>]. *)

val corrupt_reason_to_string : corrupt_reason -> string
(** One-line human-readable rendering. *)

type torn_reason =
  | Torn_bad_header of { detail : string }
      (** the fixed-size journal header is unreadable: wrong magic,
          unsupported version, header CRC mismatch, or the file is
          shorter than one header (fatal: nothing can be salvaged) *)
  | Torn_spec_mismatch of { expected : string; found : string }
      (** the journal was written for a different campaign spec (hashes
          in hex); resuming against it would mix incompatible samples
          (fatal) *)
  | Torn_truncated of { offset : int }
      (** the final record frame is shorter than its declared length —
          the classic torn append; the tail from [offset] is dropped and
          replay keeps everything before it (recoverable) *)
  | Torn_crc of { record : int; offset : int }
      (** record [record] (0-based) failed its CRC-32C check; the tail
          from [offset] is dropped (recoverable) *)
  | Torn_out_of_order of { record : int; expected : int; found : int }
      (** record [record] names sample [found] where the append-order
          contract demands [expected]; the tail is dropped
          (recoverable) *)
(** Why a campaign checkpoint journal stopped replaying
    (docs/CAMPAIGN.md).  Recoverable reasons drop the torn tail and
    resume from the last good record; fatal reasons raise
    {!Checkpoint_torn} because continuing could double-count or mix
    campaigns.  Every corruption-matrix mutation class maps to a
    distinct constructor. *)

val torn_label : torn_reason -> string
(** Constructor name in snake case ([“bad_header”], [“spec_mismatch”],
    [“truncated”], [“crc”], [“out_of_order”]) — the suffix of the
    per-reason counters [campaign.journal.torn.<label>]. *)

val torn_reason_to_string : torn_reason -> string
(** One-line human-readable rendering. *)

type t =
  | Singular of { solver : string; detail : string }
      (** A direct solve hit a pivot below [Tol.pivot] (or the
          complex-norm floor [Tol.pivot_norm2]): the system is singular
          to working precision.  [solver] is ["Matrix.lu_factor"],
          ["Tridiag.solve"], ["Tridiag.solve_complex"],
          ["Banded.factorize"] or ["Cmatrix.solve"]. *)
  | Iterative_no_convergence of {
      solver : string;  (** ["cg"], ["sor"] or ["Self_energy.sancho_rubio"] *)
      iterations : int;
      residual : float;
    }
      (** An iterative solve exhausted its iteration budget before
          reaching tolerance ([residual] is relative for cg/SOR, the
          decimated coupling's largest entry for Sancho–Rubio). *)
  | Newton_failure of { analysis : string; time : float }
      (** MNA Newton iteration failed after every escalation rung;
          [analysis] is ["dc"] or ["transient"], [time] the simulation
          time (0 for dc). *)
  | Cache_corrupt of { path : string; reason : corrupt_reason }
      (** An on-disk table failed validation; the file has been (or is
          being) quarantined — renamed to [<path>.corrupt].  [reason]
          is checksum-precise: see {!corrupt_reason}. *)
  | Injected_fault of { site : string; hit : int }
      (** Raised by [Fault.fail] when an armed campaign selects hit
          [hit] (1-based) of [site]. *)
  | Unrecovered of { stage : string; attempts : int; detail : string }
      (** [stage] gave up after [attempts] attempts; [detail] describes
          the last underlying failure.  The campaign's serve executor
          raises it (stage ["serve:<kind>"]) for a daemon-side solver
          error. *)
  | Client_timeout of { op : string; deadline_s : float }
      (** A serve-client request missed its per-request deadline; the
          connection is closed (a late response would desynchronize the
          line protocol) and the next call reconnects. *)
  | Client_disconnected of { op : string; detail : string }
      (** The daemon connection dropped (EOF, EPIPE/ECONNRESET, or the
          client's circuit breaker is open — [detail] says which)
          during [op]. *)
  | Checkpoint_torn of { path : string; reason : torn_reason }
      (** A campaign checkpoint journal could not be (fully) replayed.
          Raised only for fatal {!torn_reason}s; recoverable ones are
          returned as data by the replay (docs/CAMPAIGN.md). *)

exception Error of t

val to_string : t -> string
(** One-line human-readable rendering (also the [Error] printer). *)

val raise_ : t -> 'a
(** [raise_ e] = [raise (Error e)]. *)
