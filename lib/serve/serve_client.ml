(* Hardened client for the daemon's Unix-socket transport
   (docs/SERVE.md, retry policy in docs/CAMPAIGN.md).

   Raw-descriptor I/O (no channels) so a per-request deadline can be
   enforced with [Unix.select]; every failure is one of the typed
   [Robust_error] client constructors instead of [Failure], and every
   failure path closes the descriptor — a poisoned connection (missed
   deadline, desynchronized protocol) is never reused. *)

type config = {
  request_timeout_s : float;
  max_attempts : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  jitter_seed : int;
  sleep_ms : int -> unit;
}

let default_config =
  {
    request_timeout_s = 30.;
    max_attempts = 4;
    backoff_base_ms = 50;
    backoff_max_ms = 2000;
    breaker_threshold = 3;
    breaker_cooldown_s = 5.;
    jitter_seed = 1;
    sleep_ms = (fun ms -> Thread.delay (float_of_int ms /. 1000.));
  }

type t = {
  path : string;
  cfg : config;
  mutable fd : Unix.file_descr option;
  chunk : Bytes.t;  (* the read buffer, one per client *)
  mutable lo : int;  (* chunk.[lo, hi) was read past the last line *)
  mutable hi : int;
  mutable scanned : int;  (* chunk.[lo, scanned) holds no newline *)
  partial : Buffer.t;  (* head of a line longer than [chunk] *)
  mutable failures : int;  (* consecutive connection-level failures *)
  mutable open_until : float;  (* breaker: fail fast until this time *)
  mutable rng : int64;  (* deterministic jitter stream *)
}

let c_timeouts = Obs.Counter.make "serve_client.timeouts"

let c_disconnects = Obs.Counter.make "serve_client.disconnects"

let c_reconnects = Obs.Counter.make "serve_client.reconnects"

let c_retries = Obs.Counter.make "serve_client.retries"

let c_breaker_opens = Obs.Counter.make "serve_client.breaker_opens"

let c_breaker_fastfail = Obs.Counter.make "serve_client.breaker_fastfail"

(* A SIGPIPE on a dead socket must surface as EPIPE (a typed
   disconnect), not kill the process.  Idempotent; no-op where the
   signal does not exist. *)
let ignore_sigpipe =
  lazy
    (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
    | () -> ()
    | exception (Invalid_argument _ | Sys_error _) -> ())

let op_name (req : Serve_protocol.request) =
  match req.Serve_protocol.op with
  | Serve_protocol.Ping -> "ping"
  | Serve_protocol.Stats -> "stats"
  | Serve_protocol.Table _ -> "table"
  | Serve_protocol.Iv _ -> "iv"
  | Serve_protocol.Shutdown -> "shutdown"

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
    (match Unix.close fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ());
    raise e);
  fd

let connect ?(config = default_config) ~path () =
  Lazy.force ignore_sigpipe;
  let fd = connect_fd path in
  {
    path;
    cfg = config;
    fd = Some fd;
    chunk = Bytes.create 65536;
    lo = 0;
    hi = 0;
    scanned = 0;
    partial = Buffer.create 256;
    failures = 0;
    open_until = 0.;
    rng = Int64.of_int (config.jitter_seed lxor 0x6A5D);
  }

let reset_buffer t =
  t.lo <- 0;
  t.hi <- 0;
  t.scanned <- 0;
  Buffer.clear t.partial

let mark_dead t =
  (match t.fd with
  | Some fd ->
    (match Unix.close fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  reset_buffer t

let close t = mark_dead t

let disconnected ~op detail =
  Obs.Counter.incr c_disconnects;
  Robust_error.raise_ (Robust_error.Client_disconnected { op; detail })

(* Reconnect lazily: [request] on a client whose descriptor died (or
   was closed) dials again instead of failing forever. *)
let ensure_fd t ~op =
  match t.fd with
  | Some fd -> fd
  | None ->
    (match connect_fd t.path with
    | fd ->
      Obs.Counter.incr c_reconnects;
      reset_buffer t;
      t.fd <- Some fd;
      fd
    | exception Unix.Unix_error (e, _, _) ->
      disconnected ~op ("reconnect failed: " ^ Unix.error_message e))

let write_all t fd ~op line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go pos =
    if pos < len then begin
      match Unix.write_substring fd s pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
        mark_dead t;
        disconnected ~op "write failed (peer closed)"
    end
  in
  go 0

let rec find_newline b i hi =
  if i >= hi then i
  else if Bytes.unsafe_get b i = '\n' then i
  else find_newline b (i + 1) hi

(* Extract the first full line read so far, leaving the rest; only the
   bytes no earlier call scanned are searched for the newline. *)
let take_line t =
  let i = find_newline t.chunk t.scanned t.hi in
  if i = t.hi then begin
    t.scanned <- i;
    None
  end
  else begin
    let line =
      if Buffer.length t.partial = 0 then Bytes.sub_string t.chunk t.lo (i - t.lo)
      else begin
        Buffer.add_subbytes t.partial t.chunk t.lo (i - t.lo);
        let line = Buffer.contents t.partial in
        Buffer.clear t.partial;
        line
      end
    in
    t.lo <- i + 1;
    t.scanned <- i + 1;
    Some line
  end

(* Make room in [t.chunk] for the next read: when every byte was
   consumed, or the unfinished line reaches the end of the chunk, move
   what is left into [t.partial] and read from the start again. *)
let make_room t =
  if t.lo = t.hi || t.hi = Bytes.length t.chunk then begin
    Buffer.add_subbytes t.partial t.chunk t.lo (t.hi - t.lo);
    t.lo <- 0;
    t.hi <- 0;
    t.scanned <- 0
  end

let read_line_deadline t fd ~op ~deadline =
  let rec go () =
    match take_line t with
    | Some line -> line
    | None ->
      let remaining = deadline -. Obs.now () in
      if remaining <= 0. then begin
        (* The response may still arrive later and would desynchronize
           the line protocol: poison the connection. *)
        mark_dead t;
        Obs.Counter.incr c_timeouts;
        Robust_error.raise_
          (Robust_error.Client_timeout
             { op; deadline_s = t.cfg.request_timeout_s })
      end
      else begin
        let readable, _, _ = Unix.select [ fd ] [] [] remaining in
        if readable = [] then go ()
        else begin
          make_room t;
          match Unix.read fd t.chunk t.hi (Bytes.length t.chunk - t.hi) with
          | 0 ->
            mark_dead t;
            disconnected ~op "connection closed by daemon"
          | n ->
            t.hi <- t.hi + n;
            go ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
            mark_dead t;
            disconnected ~op "read failed (connection reset)"
        end
      end
  in
  go ()

let request t req =
  let op = op_name req in
  let fd = ensure_fd t ~op in
  let deadline = Obs.now () +. t.cfg.request_timeout_s in
  write_all t fd ~op (Serve_protocol.request_to_line req);
  let line = read_line_deadline t fd ~op ~deadline in
  match Serve_protocol.parse_response line with
  | Ok r -> r
  | Error e ->
    (* Unparseable response: the stream offset is unknowable now. *)
    mark_dead t;
    disconnected ~op ("bad response: " ^ e)

(* ------------------------------------------------------------------ *)
(* Retry policy (docs/CAMPAIGN.md)                                     *)

let next_jitter t ~base_ms =
  t.rng <- Fault.splitmix64 t.rng;
  if base_ms <= 0 then 0
  else
    Int64.to_int
      (Int64.rem
         (Int64.shift_right_logical t.rng 1)
         (Int64.of_int (max 1 (base_ms / 4))))

let backoff_ms t ~attempt =
  let shift = min (attempt - 1) 16 in
  min t.cfg.backoff_max_ms (t.cfg.backoff_base_ms * (1 lsl shift))

let breaker_open t = Obs.now () < t.open_until

let record_failure t =
  t.failures <- t.failures + 1;
  if t.failures >= t.cfg.breaker_threshold then begin
    t.open_until <- Obs.now () +. t.cfg.breaker_cooldown_s;
    Obs.Counter.incr c_breaker_opens
  end

let call t req =
  let op = op_name req in
  if breaker_open t then begin
    Obs.Counter.incr c_breaker_fastfail;
    Robust_error.raise_
      (Robust_error.Client_disconnected { op; detail = "circuit breaker open" })
  end;
  let sleep ms = if ms > 0 then t.cfg.sleep_ms ms in
  let rec attempt k =
    match request t req with
    | {
        Serve_protocol.result =
          Error { Serve_protocol.kind = "busy"; retry_after_ms; _ };
        _;
      } as r ->
      if k >= t.cfg.max_attempts then r
      else begin
        (* Honor the daemon's own hint when it gives one; otherwise
           back off exponentially.  Either way add deterministic
           jitter so a fleet of clients does not reconverge. *)
        let base_ms =
          match retry_after_ms with
          | Some ms -> ms
          | None -> backoff_ms t ~attempt:k
        in
        Obs.Counter.incr c_retries;
        sleep (base_ms + next_jitter t ~base_ms);
        attempt (k + 1)
      end
    | r ->
      t.failures <- 0;
      r
    | exception Robust_error.Error (Robust_error.Client_disconnected _ as err)
      ->
      record_failure t;
      if k >= t.cfg.max_attempts || breaker_open t then Robust_error.raise_ err
      else begin
        let base_ms = backoff_ms t ~attempt:k in
        Obs.Counter.incr c_retries;
        sleep (base_ms + next_jitter t ~base_ms);
        attempt (k + 1)
      end
    | exception (Robust_error.Error (Robust_error.Client_timeout _) as e) ->
      (* A deadline miss already cost a full timeout window; retrying
         multiplies the caller's latency with little hope (the daemon
         is wedged, not briefly busy).  Count it and let the caller's
         fallback take over. *)
      record_failure t;
      raise e
  in
  attempt 1
