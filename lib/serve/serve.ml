type config = {
  lru_capacity : int;
  queue_capacity : int;
  workers : int;
  retry_after_ms : int;
  ctx : Ctx.t;
}

let default_config =
  {
    lru_capacity = 32;
    queue_capacity = 8;
    workers = 2;
    retry_after_ms = 250;
    ctx = Ctx.default;
  }

type metrics = {
  c_requests : Obs.Counter.t;
  c_bad : Obs.Counter.t;
  c_lru_hits : Obs.Counter.t;
  c_coalesced : Obs.Counter.t;
  c_rejected : Obs.Counter.t;
  c_jobs : Obs.Counter.t;
  c_errors : Obs.Counter.t;
  c_evictions : Obs.Counter.t;
  c_disconnects : Obs.Counter.t;
  h_queue_depth : Obs.Histogram.t;
}

type t = {
  config : config;
  lru_mu : Mutex.t;  (* guards [lru] (Lru.t is not thread-safe) *)
  lru : Iv_table.t Lru.t;
  sf : Iv_table.t Single_flight.t;
  queue : (unit -> unit) Work_queue.t;
  workers : Thread.t list;
  m : metrics;
  state_mu : Mutex.t;  (* guards [stopping_flag] and [stopped] *)
  mutable stopping_flag : bool;
  mutable stopped : bool;
}

exception Busy

let create ?(config = default_config) () =
  (* A client that vanishes mid-response must surface as EPIPE on the
     write (counted below), not as a process-killing SIGPIPE.  No-op
     where the signal does not exist. *)
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let obs = config.ctx.Ctx.obs in
  (* Pre-register the table-cache tier counters so a [stats] snapshot
     reports them (as 0) even before the first lookup, instead of
     omitting the row. *)
  List.iter
    (fun name -> ignore (Obs.Counter.make ~obs name : Obs.Counter.t))
    [
      "table_cache.mmap_hits";
      "table_cache.disk_hits";
      "table_cache.memory_hits";
      "table_cache.misses";
    ];
  let m =
    {
      c_requests = Obs.Counter.make ~obs "serve.requests";
      c_bad = Obs.Counter.make ~obs "serve.bad_requests";
      c_lru_hits = Obs.Counter.make ~obs "serve.lru_hits";
      c_coalesced = Obs.Counter.make ~obs "serve.coalesced_hits";
      c_rejected = Obs.Counter.make ~obs "serve.rejected";
      c_jobs = Obs.Counter.make ~obs "serve.jobs";
      c_errors = Obs.Counter.make ~obs "serve.errors";
      c_evictions = Obs.Counter.make ~obs "serve.lru_evictions";
      c_disconnects = Obs.Counter.make ~obs "serve.client_disconnects";
      h_queue_depth = Obs.Histogram.make ~obs "serve.queue_depth";
    }
  in
  let queue = Work_queue.create ~capacity:config.queue_capacity in
  let worker () =
    let rec loop () =
      match Work_queue.pop queue with
      | Some job ->
        job ();
        loop ()
      | None -> ()
    in
    loop ()
  in
  let workers =
    List.init (max 1 config.workers) (fun _ -> Thread.create worker ())
  in
  {
    config;
    lru_mu = Mutex.create ();
    lru = Lru.create ~capacity:config.lru_capacity;
    sf = Single_flight.create ();
    queue;
    workers;
    m;
    state_mu = Mutex.create ();
    stopping_flag = false;
    stopped = false;
  }

let stopping t = Mutex.protect t.state_mu (fun () -> t.stopping_flag)

let stop t =
  let join =
    Mutex.protect t.state_mu (fun () ->
        t.stopping_flag <- true;
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if join then begin
    Work_queue.close t.queue;
    List.iter Thread.join t.workers
  end

(* ------------------------------------------------------------------ *)
(* Table acquisition: LRU -> single-flight -> work queue -> workers    *)

type promise = {
  p_mu : Mutex.t;
  p_done : Condition.t;
  mutable p_res : (Iv_table.t, exn) result option;
}

let await p =
  Mutex.protect p.p_mu (fun () ->
      let rec go () =
        match p.p_res with
        | Some r -> r
        | None ->
          Condition.wait p.p_done p.p_mu;
          go ()
      in
      go ())

let fulfill p r =
  Mutex.protect p.p_mu (fun () ->
      p.p_res <- Some r;
      Condition.broadcast p.p_done)

(* Leader path of the single-flight: enqueue a generation job and wait.
   Runs on the connection thread; the Table_cache.get runs on a worker so
   the bounded queue + worker pool cap concurrent SCF sweeps. *)
let generate_via_queue t ~ctx ~grid p =
  let promise =
    { p_mu = Mutex.create (); p_done = Condition.create (); p_res = None }
  in
  let job () =
    Obs.Counter.incr t.m.c_jobs;
    let r =
      match
        Obs.Span.run ~obs:ctx.Ctx.obs "serve.generate" (fun () ->
            Table_cache.get ?grid ~ctx p)
      with
      | table -> Ok table
      | exception e -> Error e
    in
    fulfill promise r
  in
  Obs.Histogram.observe t.m.h_queue_depth (Work_queue.length t.queue);
  if not (Work_queue.try_push t.queue job) then raise Busy;
  match await promise with Ok table -> table | Error e -> raise e

let table_for t ~grid p =
  let ctx = t.config.ctx in
  let key = Table_cache.key ?grid p in
  let cached =
    Mutex.protect t.lru_mu (fun () -> Lru.find t.lru key)
  in
  match cached with
  | Some table ->
    Obs.Counter.incr t.m.c_lru_hits;
    table
  | None ->
    let outcome =
      Single_flight.run t.sf key (fun () -> generate_via_queue t ~ctx ~grid p)
    in
    if outcome.Single_flight.coalesced then
      Obs.Counter.incr t.m.c_coalesced
    else
      Mutex.protect t.lru_mu (fun () ->
          match Lru.add t.lru key outcome.Single_flight.value with
          | Some _evicted -> Obs.Counter.incr t.m.c_evictions
          | None -> ());
    outcome.Single_flight.value

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)

let stats_json t =
  let snap = Obs.snapshot ~obs:t.config.ctx.Ctx.obs () in
  Sjson.Obj
    [
      ("enabled", Sjson.Bool snap.Obs.snap_enabled);
      ( "counters",
        Sjson.Obj
          (List.map
             (fun (name, v) -> (name, Sjson.Num (float_of_int v)))
             snap.Obs.snap_counters) );
      ("queue_length", Sjson.Num (float_of_int (Work_queue.length t.queue)));
      ("in_flight", Sjson.Num (float_of_int (Single_flight.in_flight t.sf)));
      ( "lru_length",
        Sjson.Num
          (float_of_int (Mutex.protect t.lru_mu (fun () -> Lru.length t.lru)))
      );
    ]

let eval t (op : Serve_protocol.op) =
  match op with
  | Serve_protocol.Ping -> Sjson.Obj [ ("pong", Sjson.Bool true) ]
  | Serve_protocol.Stats -> stats_json t
  | Serve_protocol.Shutdown ->
    Mutex.protect t.state_mu (fun () -> t.stopping_flag <- true);
    Sjson.Obj [ ("stopping", Sjson.Bool true) ]
  | Serve_protocol.Table { params; grid } ->
    Serve_protocol.table_to_json (table_for t ~grid params)
  | Serve_protocol.Iv { params; grid; vg; vd } ->
    let table = table_for t ~grid params in
    Sjson.Obj
      [
        ("key", Sjson.Str table.Iv_table.key);
        ("vg", Sjson.Num vg);
        ("vd", Sjson.Num vd);
        ("current", Sjson.Num (Iv_table.current_at table ~vg ~vd));
        ("charge", Sjson.Num (Iv_table.charge_at table ~vg ~vd));
      ]

let handle_line t line =
  Obs.Counter.incr t.m.c_requests;
  match Serve_protocol.parse_request line with
  | Error detail ->
    Obs.Counter.incr t.m.c_bad;
    (* Best-effort id recovery so the client can still correlate. *)
    let id =
      match Sjson.parse line with
      | Ok (Sjson.Obj fields) ->
        Option.bind (List.assoc_opt "id" fields) Sjson.to_int
      | _ -> None
    in
    Serve_protocol.error_line ~id
      { Serve_protocol.kind = "bad_request"; detail; retry_after_ms = None }
  | Ok { Serve_protocol.id; op } ->
    if stopping t && op <> Serve_protocol.Shutdown then
      Serve_protocol.error_line ~id
        {
          Serve_protocol.kind = "shutting_down";
          detail = "server is shutting down";
          retry_after_ms = None;
        }
    else (
      match
        Obs.Span.run ~obs:t.config.ctx.Ctx.obs "serve.request" (fun () ->
            eval t op)
      with
      | result -> Serve_protocol.ok_line ~id result
      | exception Busy ->
        Obs.Counter.incr t.m.c_rejected;
        Serve_protocol.error_line ~id
          {
            Serve_protocol.kind = "busy";
            detail = "generation queue is full; retry later";
            retry_after_ms = Some t.config.retry_after_ms;
          }
      | exception Robust_error.Error e ->
        Obs.Counter.incr t.m.c_errors;
        Serve_protocol.error_line ~id (Serve_protocol.error_of_robust e)
      | exception e ->
        Obs.Counter.incr t.m.c_errors;
        Serve_protocol.error_line ~id
          {
            Serve_protocol.kind = "internal";
            detail = Printexc.to_string e;
            retry_after_ms = None;
          })

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)

let serve_stdio t ic oc =
  let rec loop () =
    match input_line ic with
    | line ->
      let line = String.trim line in
      if line <> "" then begin
        output_string oc (handle_line t line);
        output_char oc '\n';
        flush oc
      end;
      if not (stopping t) then loop ()
    | exception End_of_file -> ()
  in
  loop ();
  stop t

let serve_unix t ~path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  let conn_mu = Mutex.create () in
  let conns = ref [] in
  let handle_conn fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* A peer that disconnects while we write (EPIPE/ECONNRESET,
       surfacing as Sys_error through the channel layer now that
       SIGPIPE is ignored) is routine client behavior, not a server
       fault: count it and end this connection's loop instead of
       letting the exception kill the thread. *)
    let write_response line =
      match
        output_string oc line;
        output_char oc '\n';
        flush oc
      with
      | () -> true
      | exception (Sys_error _ | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _))
        ->
        Obs.Counter.incr t.m.c_disconnects;
        false
    in
    let rec loop () =
      match input_line ic with
      | line ->
        let line = String.trim line in
        let alive = if line <> "" then write_response (handle_line t line) else true in
        if not alive then ()
        else if stopping t then
          (* Wake the accept loop so the whole server winds down. *)
          (match Unix.shutdown listen_fd Unix.SHUTDOWN_RECEIVE with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        else loop ()
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
    in
    loop ();
    (* Closing the channel closes fd; a racing peer close is fine. *)
    match close_in ic with
    | () -> ()
    | exception Sys_error _ -> ()
  in
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | fd, _ ->
      let th = Thread.create handle_conn fd in
      Mutex.protect conn_mu (fun () -> conns := th :: !conns);
      if stopping t then () else accept_loop ()
    | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ECONNABORTED), _, _)
      ->
      if stopping t then () else accept_loop ()
  in
  accept_loop ();
  List.iter Thread.join (Mutex.protect conn_mu (fun () -> !conns));
  (match Unix.close listen_fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  stop t
