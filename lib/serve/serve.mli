(** gnrfet_serve — concurrent table-serving daemon core.

    One server instance answers cached tables straight from
    {!Table_cache} (memory, then the on-disk layer that persists across
    restarts) and routes only misses through a {!Single_flight} map,
    which coalesces concurrent requests for the same table key onto one
    generation, and a bounded {!Work_queue} feeding a fixed pool of
    generation workers — so at most [workers] SCF sweeps run at once and
    everything beyond [queue_capacity] waiting jobs is rejected with a
    retry-after hint instead of piling up.  A cached table never queues
    and is never rejected (docs/SERVE.md).

    {!handle_line} is the transport-independent request evaluator;
    {!serve_stdio} (tests, CI) and {!serve_unix} (clients) are thin
    line-pumps around it.  [handle_line] is thread-safe: the Unix
    transport calls it from one thread per connection. *)

type config = {
  queue_capacity : int;
      (** waiting generation jobs before rejection (default 8) *)
  workers : int;  (** generation worker threads (default 2) *)
  retry_after_ms : int;
      (** hint attached to busy rejections (default 250) *)
  ctx : Ctx.t;
      (** execution context for generations; [ctx.obs] also receives the
          server's own [serve.*] metrics.  The bias grid is not part of
          it: each request names its own (docs/SERVE.md). *)
}

val default_config : config
(** Defaults above with [ctx = Ctx.default]. *)

type t

val create : ?config:config -> unit -> t
(** Starts the worker threads immediately.  Also ignores SIGPIPE
    process-wide so a client that disconnects mid-response surfaces as
    a counted write failure ([serve.client_disconnects], docs/OBS.md)
    on that connection's thread instead of killing the process. *)

val handle_line : t -> string -> string
(** Evaluate one request line into one response line (no trailing
    newline).  Never raises: parse failures become [bad_request]
    responses, queue-full becomes [busy], typed solver failures
    serialize via {!Serve_protocol.error_of_robust}, anything else
    becomes [internal]. *)

val stopping : t -> bool
(** True once a [shutdown] request has been evaluated. *)

val stop : t -> unit
(** Close the work queue and join the workers.  Idempotent; called by
    the serve loops on exit. *)

val serve_stdio : t -> in_channel -> out_channel -> unit
(** Pump request lines until EOF or a [shutdown] op, answering each on
    its own line (responses in request order).  Flushes after every
    response; stops the server before returning. *)

val serve_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (unlinking a stale one), accept
    connections until a [shutdown] op arrives on any of them, one thread
    per connection.  Removes the socket file and stops the server before
    returning. *)
