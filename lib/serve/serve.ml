type config = { max_generations : int; obs : Obs.t }

let default_config = { max_generations = 2; obs = Obs.global }

(* Hint attached to every busy rejection. *)
let retry_after_ms = 250

type metrics = {
  c_requests : Obs.Counter.t;
  c_bad : Obs.Counter.t;
  c_coalesced : Obs.Counter.t;
  c_rejected : Obs.Counter.t;
  c_jobs : Obs.Counter.t;
  c_errors : Obs.Counter.t;
  c_disconnects : Obs.Counter.t;
}

type t = {
  config : config;
  sf : Iv_table.t Single_flight.t;
  m : metrics;
  stopping_flag : bool Atomic.t;
}

let create ?(config = default_config) () =
  let sf = Single_flight.create ~capacity:config.max_generations in
  (* A client that vanishes mid-response must surface as EPIPE on the
     write (counted below), not as a process-killing SIGPIPE.  No-op
     where the signal does not exist. *)
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let obs = config.obs in
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
      c_coalesced = Obs.Counter.make ~obs "serve.coalesced_hits";
      c_rejected = Obs.Counter.make ~obs "serve.rejected";
      c_jobs = Obs.Counter.make ~obs "serve.jobs";
      c_errors = Obs.Counter.make ~obs "serve.errors";
      c_disconnects = Obs.Counter.make ~obs "serve.client_disconnects";
    }
  in
  { config; sf; m; stopping_flag = Atomic.make false }

let stopping t = Atomic.get t.stopping_flag

let stop t = Atomic.set t.stopping_flag true

(* ------------------------------------------------------------------ *)
(* Table acquisition: Table_cache, then single-flight                 *)

(* A cached table (Table_cache memory or disk) is answered straight
   away, so it cannot be rejected.  Only a miss goes through the
   single-flight map, which runs the generation on this thread as the
   key's leader, or raises Single_flight.Full when max_generations keys
   are already generating.  The leader's own lookup inside
   Table_cache.get still finds a table that another leader for the same
   key stored after this thread's lookup missed. *)
let table_for t ~grid p =
  let obs = t.config.obs in
  match Table_cache.lookup ?grid ~obs p with
  | Some table -> table
  | None ->
    let outcome =
      Single_flight.run t.sf (Table_cache.key ?grid p) (fun () ->
          Obs.Counter.incr t.m.c_jobs;
          Obs.Span.run ~obs "serve.generate" (fun () ->
              Table_cache.get ?grid ~obs p))
    in
    if outcome.Single_flight.coalesced then Obs.Counter.incr t.m.c_coalesced;
    outcome.Single_flight.value

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)

let stats_json t =
  let snap = Obs.snapshot ~obs:t.config.obs () in
  Sjson.Obj
    [
      ("enabled", Sjson.Bool snap.Obs.snap_enabled);
      ( "counters",
        Sjson.Obj
          (List.map
             (fun (name, v) -> (name, Sjson.Num (float_of_int v)))
             snap.Obs.snap_counters) );
      ("in_flight", Sjson.Num (float_of_int (Single_flight.in_flight t.sf)));
    ]

let eval t (op : Serve_protocol.op) =
  match op with
  | Serve_protocol.Ping -> Sjson.Obj [ ("pong", Sjson.Bool true) ]
  | Serve_protocol.Stats -> stats_json t
  | Serve_protocol.Shutdown ->
    stop t;
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
        Obs.Span.run ~obs:t.config.obs "serve.request" (fun () ->
            eval t op)
      with
      | result -> Serve_protocol.ok_line ~id result
      | exception Single_flight.Full ->
        Obs.Counter.incr t.m.c_rejected;
        Serve_protocol.error_line ~id
          {
            Serve_protocol.kind = "busy";
            detail = "no generation slot is free; retry later";
            retry_after_ms = Some retry_after_ms;
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
