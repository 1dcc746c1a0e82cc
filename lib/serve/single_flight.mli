(** Single-flight deduplication: concurrent computations for the same
    key coalesce onto one in-flight call, and at most [capacity] keys
    compute at once.

    The first thread to request a key becomes its {e leader} and runs
    the computation on its own thread; every thread that requests the
    same key while the leader is still running blocks until the leader
    finishes and then shares its result (or re-raises its exception)
    without running the computation at all.  Once the leader finishes,
    the key leaves the in-flight map — the {e next} request for it
    starts a fresh computation, so a leader whose computation populates
    a cache before returning guarantees followers-turned-cache-hits with
    no window for duplicate work (docs/SERVE.md).

    The map is also the admission bound: a request for a key with no
    leader while [capacity] keys are in flight raises {!Full} instead of
    computing.  Followers never count against the bound.

    Thread-safe; the computation itself runs outside the internal lock,
    so unrelated keys never serialize each other. *)

type 'a t

exception Full
(** Raised by {!run} for a key with no leader while [capacity] keys
    are already being computed. *)

val create : capacity:int -> 'a t
(** [capacity < 0] raises [Invalid_argument].  [capacity = 0] admits no
    leader, so every {!run} raises {!Full}. *)

type 'a outcome = {
  value : 'a;
  coalesced : bool;
      (** [true] when this call shared a leader's result instead of
          computing *)
}

val run : 'a t -> string -> (unit -> 'a) -> 'a outcome
(** [run t key f] computes [f ()] as leader or waits for the current
    leader of [key].  If the leader's [f] raises, every coalesced
    waiter re-raises the same exception.  Raises {!Full} when [key] has
    no leader and the map is at capacity. *)

val in_flight : 'a t -> int
(** Number of keys currently being computed. *)
