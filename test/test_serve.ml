(* PR 5 tentpole: the table-serving daemon — JSON codec, LRU,
   single-flight coalescing, bounded-queue backpressure, and the two
   transports.  The concurrency tests pin the acceptance criterion:
   N concurrent requests for one uncached table cost exactly one
   generation (docs/SERVE.md). *)

open Support

let tiny = tiny_device ()

(* A deliberately minimal grid: serve tests pay for real SCF solves. *)
let micro_grid =
  { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }

let with_temp_cache f =
  let dir = Filename.temp_file "gnrfet_serve" "" in
  Sys.remove dir;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GNRFET_TABLE_DIR" "_tables";
      Table_cache.clear_memory ();
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Table_cache.clear_memory ();
      f ())

(* --- Sjson ----------------------------------------------------------- *)

let test_sjson_roundtrip () =
  let roundtrip s =
    match Sjson.parse s with
    | Ok j -> Sjson.to_string j
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check string) "object" {|{"a":1,"b":[true,false,null]}|}
    (roundtrip {| { "a" : 1, "b" : [ true, false, null ] } |});
  Alcotest.(check string) "string escapes" {|{"s":"a\"b\\c\n"}|}
    (roundtrip {|{"s":"a\"b\\c\n"}|});
  Alcotest.(check string) "unicode escape" {|{"s":"é"}|}
    (roundtrip {|{"s":"é"}|});
  Alcotest.(check string) "surrogate pair" "\"\xf0\x9f\x98\x80\""
    (roundtrip {|"😀"|});
  (* Floats must survive a print/parse cycle bit-for-bit. *)
  List.iter
    (fun f ->
      let s = Sjson.to_string (Sjson.Num f) in
      match Sjson.parse s with
      | Ok (Sjson.Num f') ->
        Alcotest.(check bool) (Printf.sprintf "float %s" s) true (f = f')
      | _ -> Alcotest.failf "float %s did not reparse" s)
    [ 0.; 1.5e-9; -0.3; 0.1 +. 0.2; 6.02e23; Float.min_float ];
  List.iter
    (fun bad ->
      match Sjson.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} x"; "nul"; "\"unterminated"; "01" ]

(* --- Lru ------------------------------------------------------------- *)

let test_lru () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check bool) "no eviction" true (Lru.add l "a" 1 = None);
  ignore (Lru.add l "b" 2);
  (* Touch "a" so "b" is the LRU entry. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  Alcotest.(check (option string)) "adding c evicts b" (Some "b")
    (Lru.add l "c" 3);
  Alcotest.(check (option int)) "b gone" None (Lru.find l "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find l "a");
  Alcotest.(check int) "length" 2 (Lru.length l);
  (* Replacing a present key is not an eviction. *)
  Alcotest.(check (option string)) "replace a" None (Lru.add l "a" 10);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find l "a");
  let z = Lru.create ~capacity:0 in
  Alcotest.(check (option string)) "capacity 0 stores nothing" None
    (Lru.add z "k" 1);
  Alcotest.(check (option int)) "capacity 0 never hits" None (Lru.find z "k");
  check_raises_invalid "negative capacity" (fun () ->
      Lru.create ~capacity:(-1))

(* --- Work_queue ------------------------------------------------------ *)

let test_work_queue () =
  let q = Work_queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Work_queue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Work_queue.try_push q 2);
  Alcotest.(check bool) "push 3 rejected (full)" false (Work_queue.try_push q 3);
  Alcotest.(check (option int)) "pop fifo" (Some 1) (Work_queue.pop q);
  Alcotest.(check bool) "room again" true (Work_queue.try_push q 3);
  Work_queue.close q;
  Work_queue.close q;
  Alcotest.(check bool) "push after close" false (Work_queue.try_push q 4);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Work_queue.pop q);
  Alcotest.(check (option int)) "drains after close (2)" (Some 3)
    (Work_queue.pop q);
  Alcotest.(check (option int)) "empty+closed" None (Work_queue.pop q)

(* --- Single_flight --------------------------------------------------- *)

let test_single_flight_coalesces () =
  let sf = Single_flight.create () in
  let calls = Atomic.make 0 in
  let release = Mutex.create () in
  Mutex.lock release;
  let outcomes = Array.make 8 None in
  let worker i () =
    let o =
      Single_flight.run sf "k" (fun () ->
          Atomic.incr calls;
          (* Hold every follower until the main thread releases us. *)
          Mutex.lock release;
          Mutex.unlock release;
          42)
    in
    outcomes.(i) <- Some o
  in
  let threads = Array.init 8 (fun i -> Thread.create (worker i) ()) in
  (* Wait until the leader is inside the computation, then let it go. *)
  while Single_flight.in_flight sf = 0 do
    Thread.yield ()
  done;
  Thread.delay 0.05;
  Mutex.unlock release;
  Array.iter Thread.join threads;
  Alcotest.(check int) "computed once" 1 (Atomic.get calls);
  let coalesced =
    Array.to_list outcomes
    |> List.filter_map Fun.id
    |> List.filter (fun o -> o.Single_flight.coalesced)
    |> List.length
  in
  Alcotest.(check int) "seven coalesced" 7 coalesced;
  Array.iter
    (fun o -> Alcotest.(check int) "value" 42 (Option.get o).Single_flight.value)
    outcomes;
  Alcotest.(check int) "map drained" 0 (Single_flight.in_flight sf);
  (* A later call recomputes. *)
  ignore (Single_flight.run sf "k" (fun () -> Atomic.incr calls; 0));
  Alcotest.(check int) "fresh call recomputes" 2 (Atomic.get calls)

let test_single_flight_exception () =
  let sf = Single_flight.create () in
  match Single_flight.run sf "boom" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the leader's exception"
  | exception Failure m ->
    Alcotest.(check string) "leader exception" "boom" m;
    Alcotest.(check int) "key removed after failure" 0
      (Single_flight.in_flight sf)

(* --- protocol -------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      { Serve_protocol.id = Some 1; op = Serve_protocol.Ping };
      { Serve_protocol.id = None; op = Serve_protocol.Stats };
      { Serve_protocol.id = Some 2; op = Serve_protocol.Shutdown };
      {
        Serve_protocol.id = Some 3;
        op = Serve_protocol.Table { params = tiny; grid = Some micro_grid };
      };
      {
        Serve_protocol.id = Some 4;
        op =
          Serve_protocol.Iv
            {
              params = Params.with_impurity_charge tiny (-1.);
              grid = None;
              vg = 0.35;
              vd = 0.25;
            };
      };
    ]
  in
  List.iter
    (fun r ->
      let line = Serve_protocol.request_to_line r in
      match Serve_protocol.parse_request line with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" line)
          true (r = r')
      | Error e -> Alcotest.failf "roundtrip %s: %s" line e)
    reqs;
  (* Params roundtrip preserves the cache identity (the serve key). *)
  let p = Params.with_impurity_charge (tiny_device ~gnr_index:9 ()) 1. in
  (match Serve_protocol.params_of_json (Serve_protocol.params_to_json p) with
  | Ok p' ->
    Alcotest.(check string) "cache key survives the wire"
      (Params.cache_key p) (Params.cache_key p')
  | Error e -> Alcotest.failf "params roundtrip: %s" e);
  List.iter
    (fun bad ->
      match Serve_protocol.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      {|{"op":"nope"}|};
      {|{"op":"table","params":{"typo_field":1}}|};
      {|{"op":"table","grid":{"n_vg":1}}|};
      {|{"op":"iv","vg":0.1}|};
      {|{"op":"iv","vg":0.1,"vd":-0.2}|};
      {|{"op":"ping","extra":1}|};
      {|[1,2]|};
      "not json";
    ]

let test_response_roundtrip () =
  let ok = Serve_protocol.ok_line ~id:(Some 7) (Sjson.Num 1.5) in
  (match Serve_protocol.parse_response ok with
  | Ok { Serve_protocol.r_id = Some 7; result = Ok (Sjson.Num 1.5) } -> ()
  | _ -> Alcotest.failf "ok response mangled: %s" ok);
  let busy =
    {
      Serve_protocol.kind = "busy";
      detail = "queue full";
      retry_after_ms = Some 250;
    }
  in
  (match Serve_protocol.parse_response (Serve_protocol.error_line ~id:None busy) with
  | Ok { Serve_protocol.r_id = None; result = Error e } ->
    Alcotest.(check bool) "busy error roundtrip" true (e = busy)
  | _ -> Alcotest.fail "error response mangled");
  let e =
    Serve_protocol.error_of_robust
      (Robust_error.Scf_stalled
         { vg = 0.1; vd = 0.2; iterations = 7; residual = 1e-2 })
  in
  Alcotest.(check string) "robust kind" "scf_stalled" e.Serve_protocol.kind;
  Alcotest.(check bool) "robust detail nonempty" true
    (String.length e.Serve_protocol.detail > 0)

(* --- server ---------------------------------------------------------- *)

let make_server ?(lru = 32) ?(queue = 8) ?(workers = 2) () =
  let obs = Obs.create ~enabled:true () in
  let config =
    {
      Serve.default_config with
      Serve.lru_capacity = lru;
      queue_capacity = queue;
      workers;
      ctx = Ctx.make ~obs ();
    }
  in
  (Serve.create ~config (), obs)

let table_line ?(id = 1) ?(params = tiny) ?(grid = micro_grid) () =
  Serve_protocol.request_to_line
    {
      Serve_protocol.id = Some id;
      op = Serve_protocol.Table { params; grid = Some grid };
    }

(* The coalescing acceptance test needs the leader's generation to
   outlast the followers' start-up.  Followers compete with the
   generating worker for the runtime lock, and in a loaded suite (idle
   pool domains, a large major heap) the last one can take tens of
   milliseconds to arrive; at six bias points a generation can finish
   first.  36 points keep the window several times wider. *)
let coalescing_grid = { micro_grid with Iv_table.n_vg = 9; n_vd = 4 }

let expect_ok line =
  match Serve_protocol.parse_response line with
  | Ok { Serve_protocol.result = Ok r; _ } -> r
  | Ok { Serve_protocol.result = Error e; _ } ->
    Alcotest.failf "expected ok, got error %s: %s" e.Serve_protocol.kind
      e.Serve_protocol.detail
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

let test_serve_single_flight_acceptance () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache @@ fun () ->
  let server, obs = make_server () in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  let n = 8 in
  let line = table_line ~grid:coalescing_grid () in
  let responses = Array.make n "" in
  let go = Mutex.create () in
  Mutex.lock go;
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            (* Start barrier: all clients fire together, well inside the
               leader's multi-SCF generation window. *)
            Mutex.lock go;
            Mutex.unlock go;
            responses.(i) <- Serve.handle_line server line)
          ())
  in
  Mutex.unlock go;
  Array.iter Thread.join threads;
  let first = expect_ok responses.(0) in
  Array.iter
    (fun r ->
      Alcotest.(check string) "all responses identical" responses.(0) r;
      ignore (expect_ok r))
    responses;
  (match first with
  | Sjson.Obj fields -> (
    Alcotest.(check bool) "result carries the table key" true
      (List.mem_assoc "key" fields);
    (* The daemon has no grid of its own: the request's grid is used. *)
    match Option.bind (List.assoc_opt "vg" fields) Sjson.to_list with
    | Some vg ->
      Alcotest.(check int) "vg follows the request grid" coalescing_grid.Iv_table.n_vg
        (List.length vg)
    | None -> Alcotest.fail "table result has no vg array")
  | _ -> Alcotest.fail "table result is not an object");
  (* The acceptance criterion: one generation, everyone else coalesced. *)
  Alcotest.(check int) "table_cache.generates" 1
    (Obs.counter_value ~obs "table_cache.generates");
  Alcotest.(check int) "serve.coalesced_hits" (n - 1)
    (Obs.counter_value ~obs "serve.coalesced_hits");
  Alcotest.(check int) "serve.requests" n
    (Obs.counter_value ~obs "serve.requests");
  Alcotest.(check int) "no rejections" 0
    (Obs.counter_value ~obs "serve.rejected");
  (* A request after the dust settles is a pure LRU hit. *)
  ignore (expect_ok (Serve.handle_line server line));
  Alcotest.(check int) "serve.lru_hits" 1
    (Obs.counter_value ~obs "serve.lru_hits");
  Alcotest.(check int) "still one generation" 1
    (Obs.counter_value ~obs "table_cache.generates")

let test_serve_lru_eviction () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache @@ fun () ->
  let server, obs = make_server ~lru:1 () in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  let p_a = tiny and p_b = tiny_device ~gnr_index:9 () in
  ignore (expect_ok (Serve.handle_line server (table_line ~params:p_a ())));
  ignore (expect_ok (Serve.handle_line server (table_line ~params:p_b ())));
  Alcotest.(check int) "adding B evicted A" 1
    (Obs.counter_value ~obs "serve.lru_evictions");
  (* A again: not an LRU hit any more, but Table_cache's memory layer
     still has it — no third generation. *)
  ignore (expect_ok (Serve.handle_line server (table_line ~params:p_a ())));
  Alcotest.(check int) "no LRU hit after eviction" 0
    (Obs.counter_value ~obs "serve.lru_hits");
  Alcotest.(check int) "two generations total" 2
    (Obs.counter_value ~obs "table_cache.generates")

let test_serve_backpressure () =
  with_temp_cache @@ fun () ->
  (* Zero queue slots: every generation attempt is rejected up front, so
     the test is deterministic (no timing on worker progress). *)
  let server, obs = make_server ~queue:0 () in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  match Serve_protocol.parse_response (Serve.handle_line server (table_line ())) with
  | Ok { Serve_protocol.result = Error e; _ } ->
    Alcotest.(check string) "busy" "busy" e.Serve_protocol.kind;
    Alcotest.(check (option int)) "retry hint" (Some 250)
      e.Serve_protocol.retry_after_ms;
    Alcotest.(check int) "counted" 1 (Obs.counter_value ~obs "serve.rejected");
    Alcotest.(check int) "nothing generated" 0
      (Obs.counter_value ~obs "table_cache.generates")
  | _ -> Alcotest.fail "expected a busy rejection"

let test_serve_stats_reports_table_cache () =
  (* A fresh server's stats snapshot must already carry the table-cache
     hit-path counters (at 0) — table_cache.mmap_hits included, the
     copy of disk_hits that perfbench and stats readers consume. *)
  let server, _obs = make_server () in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  let line =
    Serve_protocol.request_to_line
      { Serve_protocol.id = Some 1; op = Serve_protocol.Stats }
  in
  match expect_ok (Serve.handle_line server line) with
  | Sjson.Obj fields -> (
    match List.assoc_opt "counters" fields with
    | Some (Sjson.Obj counters) ->
      List.iter
        (fun name ->
          Alcotest.(check bool) ("stats reports " ^ name) true
            (match List.assoc_opt name counters with
            | Some (Sjson.Num 0.) -> true
            | _ -> false))
        [
          "table_cache.mmap_hits"; "table_cache.disk_hits";
          "table_cache.memory_hits"; "table_cache.misses";
        ]
    | _ -> Alcotest.fail "stats payload has no counters object")
  | _ -> Alcotest.fail "stats payload is not an object"

let test_serve_bad_request_and_ping () =
  let server, obs = make_server () in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  (match
     Serve_protocol.parse_response
       (Serve.handle_line server {|{"id":9,"op":"frobnicate"}|})
   with
  | Ok { Serve_protocol.r_id = Some 9; result = Error e } ->
    Alcotest.(check string) "bad_request" "bad_request" e.Serve_protocol.kind
  | _ -> Alcotest.fail "expected bad_request with the recovered id");
  (match
     Serve_protocol.parse_response
       (Serve.handle_line server {|{"id":10,"op":"ping"}|})
   with
  | Ok { Serve_protocol.r_id = Some 10; result = Ok (Sjson.Obj [ ("pong", Sjson.Bool true) ]) }
    -> ()
  | _ -> Alcotest.fail "expected pong");
  Alcotest.(check int) "bad counted" 1
    (Obs.counter_value ~obs "serve.bad_requests")

let test_serve_stdio_transport () =
  let server, _obs = make_server () in
  let in_path = Filename.temp_file "serve_in" ".jsonl" in
  let out_path = Filename.temp_file "serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      Out_channel.with_open_text in_path (fun oc ->
          output_string oc
            "{\"id\":1,\"op\":\"ping\"}\n\n{\"id\":2,\"op\":\"stats\"}\n{\"id\":3,\"op\":\"shutdown\"}\n{\"id\":4,\"op\":\"ping\"}\n");
      In_channel.with_open_text in_path (fun ic ->
          Out_channel.with_open_text out_path (fun oc ->
              Serve.serve_stdio server ic oc));
      Alcotest.(check bool) "server stopped" true (Serve.stopping server);
      let lines =
        In_channel.with_open_text out_path In_channel.input_lines
      in
      (* Blank input line skipped; the loop stops right at shutdown, so
         request 4 is never answered. *)
      Alcotest.(check int) "three responses" 3 (List.length lines);
      List.iteri
        (fun i line ->
          match Serve_protocol.parse_response line with
          | Ok { Serve_protocol.r_id = Some id; result = Ok _ } ->
            Alcotest.(check int) "in request order" (i + 1) id
          | _ -> Alcotest.failf "response %d mangled: %s" i line)
        lines)

let test_serve_unix_transport () =
  let server, _obs = make_server () in
  let path = Filename.temp_file "gnrfet" ".sock" in
  Sys.remove path;
  let th = Thread.create (fun () -> Serve.serve_unix server ~path) () in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec connect () =
    match Serve_client.connect ~path () with
    | c -> c
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server socket never came up";
      Thread.delay 0.01;
      connect ()
  in
  let client = connect () in
  (match
     Serve_client.request client { Serve_protocol.id = Some 1; op = Serve_protocol.Ping }
   with
  | { Serve_protocol.r_id = Some 1; result = Ok _ } -> ()
  | _ -> Alcotest.fail "ping over the socket failed");
  (match
     Serve_client.request client
       { Serve_protocol.id = Some 2; op = Serve_protocol.Shutdown }
   with
  | { Serve_protocol.result = Ok _; _ } -> ()
  | _ -> Alcotest.fail "shutdown over the socket failed");
  Serve_client.close client;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let suite =
  [
    Alcotest.test_case "sjson roundtrip + rejects" `Quick test_sjson_roundtrip;
    Alcotest.test_case "lru" `Quick test_lru;
    Alcotest.test_case "work queue" `Quick test_work_queue;
    Alcotest.test_case "single-flight coalesces" `Quick
      test_single_flight_coalesces;
    Alcotest.test_case "single-flight exception" `Quick
      test_single_flight_exception;
    Alcotest.test_case "request roundtrip + rejects" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "response roundtrip + robust errors" `Quick
      test_response_roundtrip;
    Alcotest.test_case "8 concurrent clients, 1 generation" `Quick
      test_serve_single_flight_acceptance;
    Alcotest.test_case "lru eviction" `Quick test_serve_lru_eviction;
    Alcotest.test_case "backpressure rejection" `Quick test_serve_backpressure;
    Alcotest.test_case "stats reports table-cache counters" `Quick
      test_serve_stats_reports_table_cache;
    Alcotest.test_case "bad request + ping" `Quick
      test_serve_bad_request_and_ping;
    Alcotest.test_case "stdio transport" `Quick test_serve_stdio_transport;
    Alcotest.test_case "unix-socket transport" `Quick
      test_serve_unix_transport;
  ]
