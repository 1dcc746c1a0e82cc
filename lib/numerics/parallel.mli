(** Domain-based parallel primitives backed by a scoped worker pool.

    Workers are spawned lazily, growing to the largest parallelism a run
    has requested, and fed through a task queue, so within a scope the
    per-call overhead is a queue push rather than a
    [Domain.spawn]/[join] round-trip.  They live only as long as the
    outermost {!scoped} call, and every run is a scope of its own: when
    the last open scope closes the workers are stopped and joined, so
    no idle domain outlives the work it was spawned for.  Every domain
    that takes part in a run uses a 64k-word minor heap.  A caller
    waiting on its own batch executes queued tasks itself ("work
    helping"), so nested parallel calls issued from inside a worker make
    progress instead of deadlocking.

    {b Determinism contract.}  For the chunked primitives the chunk grid
    depends only on [n] and [chunk] — never on the worker count or on
    scheduling — and partial results are combined in ascending chunk
    order.  A [body] whose chunk result is a pure function of [(lo, hi)]
    (per-worker scratch reuse aside) therefore produces bit-for-bit
    identical reductions for every [GNRFET_DOMAINS] setting, including
    the sequential width-1 path, and for runs nested inside another
    run's tasks.  Each slot runs one contiguous
    run of chunks in ascending order, so what a slot's scratch carries
    from chunk to chunk depends on the width alone, and work counters
    that follow it repeat exactly.  See docs/PERF.md.

    {b Observability.}  The pool reports into {!Obs.global} (counters
    only, so scheduling and results are never perturbed):
    [parallel.runs] (pool-backed batches), [parallel.pool_tasks] /
    [parallel.worker.<i>.tasks] (tasks executed by pool workers, total
    and per worker), [parallel.helped_tasks] (tasks a waiting caller
    executed itself) and the [parallel.queue_wait] timer (time tasks
    sat queued before a domain picked them up).  All are no-ops while
    the registry is disabled; see docs/OBS.md. *)

val num_domains : unit -> int
(** Pool width, the one width setting of every run: the number of slots
    a run uses {e including the calling domain}, which runs slot 0
    itself, so a width of [w] keeps [w - 1] pool domains busy.  A run
    nested inside another run's task shares the same pool, so nesting
    never spawns more than [w - 1] domains.  Default [max 1 (recommended_domain_count ())],
    the core count — overridable with the [GNRFET_DOMAINS] environment
    variable (read on every call, so tests and benchmarks can toggle it
    at runtime; an empty or blank value counts as unset, an unparsable
    one as 1). *)

val scoped : (unit -> 'a) -> 'a
(** [scoped body] runs [body] with the pool's workers kept alive across
    every run inside it.  Scopes nest and may open concurrently on
    several threads; when the last open one closes, normally or by an
    exception, the workers are stopped and joined.  Wrap a sequence of
    many runs (an SCF solve, a table) so its workers are spawned once. *)

val live_domains : unit -> int
(** Pool domains spawned and not yet joined: 0 once the last open
    scope has closed. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], preserving order.  Runs as a plain
    [Array.map] on the calling domain when the width is 1 or the input
    has at most one element.  Exceptions raised by [f] are re-raised in
    the caller (lowest failing index first). *)

val map_reduce :
  ?chunk:int ->
  n:int ->
  worker:(int -> 'w) ->
  body:('w -> lo:int -> hi:int -> 'acc) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc ->
  'acc
(** [map_reduce ~n ~worker ~body ~combine init] splits [0, n) into
    contiguous chunks of [chunk] indices (default 16; the last may be
    shorter), evaluates [body w ~lo ~hi] once per chunk and left-folds
    the per-chunk partial results with [combine] in ascending chunk
    order, starting from [init].  The chunk grid must not depend on the
    worker count, or the determinism contract above would break: pass a
    [chunk] that is fixed by the problem, never one derived from
    {!num_domains}.

    [worker slot] builds per-slot scratch state (slot ids are dense in
    [0, slots)); it is handed to every chunk the slot processes, so
    preallocated workspaces are reused across chunks instead of being
    allocated per element.  Slot [s] of [w] processes the chunks
    [\[s·c/w, (s+1)·c/w)] of the [c] chunks, in ascending order.
    [combine] runs on the calling domain, which folds slot 0's partials
    as they come, while the other slots may still be running; it may
    mutate and return its first argument (each partial is consumed
    exactly once).  Exceptions raised by [worker], [body] or [combine]
    are re-raised in the caller once all slots have drained.  [n <= 0]
    returns [init]. *)
