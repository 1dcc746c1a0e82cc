(** gnrfet_serve — concurrent table-serving daemon core.

    One server instance answers cached tables straight from
    {!Table_cache} (memory, then the on-disk layer that persists across
    restarts) and routes only misses through a {!Single_flight} map,
    which runs a miss's generation on the thread that asked for it,
    coalesces concurrent requests for the same table key onto that one
    generation, and admits at most [max_generations] keys at once.  A
    miss beyond the bound is rejected with a retry-after hint at once,
    and the client does the waiting.  A cached table is never rejected
    (docs/SERVE.md).

    {!handle_line} is the transport-independent request evaluator;
    {!serve_stdio} (tests, CI) and {!serve_unix} (clients) are thin
    line-pumps around it.  [handle_line] is thread-safe: the Unix
    transport calls it from one thread per connection. *)

type config = {
  max_generations : int;
      (** tables generated at once before a miss is answered [busy]
          (default 2); 0 serves cached tables only *)
  obs : Obs.t;
      (** metric registry for the server's own [serve.*] metrics and for
          the table lookups and generations it runs (default
          {!Obs.global}).  The bias grid is not part of the config: each
          request names its own (docs/SERVE.md). *)
}

val default_config : config
(** Defaults above with [obs = Obs.global]. *)

type t

val create : ?config:config -> unit -> t
(** [max_generations < 0] raises [Invalid_argument].  Also ignores
    SIGPIPE process-wide so a client that disconnects mid-response
    surfaces as a counted write failure ([serve.client_disconnects],
    docs/OBS.md) on that connection's thread instead of killing the
    process. *)

val handle_line : t -> string -> string
(** Evaluate one request line into one response line (no trailing
    newline).  Never raises: parse failures become [bad_request]
    responses, a miss beyond [max_generations] becomes [busy] with
    [retry_after_ms] 250, typed solver failures serialize via
    {!Serve_protocol.error_of_robust}, anything else becomes
    [internal]. *)

val stopping : t -> bool
(** True once a [shutdown] request has been evaluated or {!stop} has
    been called. *)

val stop : t -> unit
(** Mark the server as stopping.  Idempotent; called by the serve loops
    on exit. *)

val serve_stdio : t -> in_channel -> out_channel -> unit
(** Pump request lines until EOF or a [shutdown] op, answering each on
    its own line (responses in request order).  Flushes after every
    response; stops the server before returning. *)

val serve_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (unlinking a stale one), accept
    connections until a [shutdown] op arrives on any of them, one thread
    per connection.  Removes the socket file and stops the server before
    returning. *)
