(** Domain-based parallel primitives backed by a persistent worker pool.

    Workers are spawned once (lazily, growing to the largest parallelism
    any call has requested) and fed through a task queue, so per-call
    overhead is a queue push rather than a [Domain.spawn]/[join]
    round-trip.  The pool is shut down automatically [at_exit].  A caller
    waiting on its own batch executes queued tasks itself ("work
    helping"), so nested parallel calls issued from inside a worker make
    progress instead of deadlocking.

    {b Determinism contract.}  For the chunked primitives the chunk grid
    depends only on [n] and [chunk] — never on the worker count or on
    scheduling — and partial results are combined in ascending chunk
    order.  A [body] whose chunk result is a pure function of [(lo, hi)]
    (per-worker scratch reuse aside) therefore produces bit-for-bit
    identical reductions for every [GNRFET_DOMAINS] setting, including
    the sequential [domains = 1] path.  See docs/PERF.md.

    {b Observability.}  The pool reports into {!Obs.global} (counters
    only, so scheduling and results are never perturbed):
    [parallel.runs] (pool-backed batches), [parallel.pool_tasks] /
    [parallel.worker.<i>.tasks] (tasks executed by pool workers, total
    and per worker), [parallel.helped_tasks] (tasks a waiting caller
    executed itself) and the [parallel.queue_wait] timer (time tasks
    sat queued before a domain picked them up).  All are no-ops while
    the registry is disabled; see docs/OBS.md. *)

val num_domains : unit -> int
(** Pool width: the number of slots a run uses {e including the calling
    domain}, which runs slot 0 itself, so a width of [w] keeps [w - 1]
    pool domains busy.  Default [max 1 (recommended_domain_count () - 1)]
    — 1, i.e. sequential, on a 2-vCPU host (docs/PERF.md says why that
    default stays) — overridable with the [GNRFET_DOMAINS] environment
    variable (read on every call, so tests and benchmarks can toggle it
    at runtime). *)

val default_chunk : int
(** Chunk width used by {!map_reduce} and {!parallel_for} when [?chunk]
    is omitted.  Fixed (16): it must not depend on the worker count, or
    the determinism contract above would break. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], preserving order. Falls back to the sequential
    map when [domains <= 1] or the input is small. Exceptions raised by
    [f] are re-raised in the caller (lowest failing index first). *)

val map_reduce :
  ?domains:int ->
  ?chunk:int ->
  n:int ->
  worker:(int -> 'w) ->
  body:('w -> lo:int -> hi:int -> 'acc) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc ->
  'acc
(** [map_reduce ~n ~worker ~body ~combine init] splits [0, n) into
    contiguous chunks, evaluates [body w ~lo ~hi] once per chunk and
    left-folds the per-chunk partial results with [combine] in ascending
    chunk order, starting from [init].

    [worker slot] builds per-slot scratch state (slot ids are dense in
    [0, slots)); it is handed to every chunk the slot processes, so
    preallocated workspaces are reused across chunks instead of being
    allocated per element.  [combine] may mutate and return its first
    argument (each partial is consumed exactly once).  Exceptions raised
    by [worker] or [body] are re-raised in the caller once all slots have
    drained.  [n <= 0] returns [init]. *)

val parallel_for : ?domains:int -> ?chunk:int -> n:int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_for ~n body] runs [body ~lo ~hi] over a chunked partition
    of [0, n).  The chunks are disjoint, so bodies writing to disjoint
    index ranges of a shared array need no further synchronisation. *)
