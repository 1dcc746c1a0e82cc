(* The table-serving daemon: JSON codec, single-flight coalescing, the
   admission bound on generations and the two transports.  The server
   tests pin the contracts of docs/SERVE.md: N concurrent requests for
   one uncached table cost exactly one generation, a cached table is
   answered even when no generation may start, and a miss beyond the
   bound is answered busy while a generation runs. *)

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
    [ ""; "{"; "[1,]"; "{\"a\":1} x"; "nul"; "\"unterminated"; "01" ];
  (* Printed bytes, pinned: escapes at the start, middle and end, every
     control byte, and plain runs around an escape.  Each one parses
     back. *)
  let check_printed label s expected =
    let printed = Sjson.to_string (Sjson.Str s) in
    Alcotest.(check string) ("print " ^ label) expected printed;
    match Sjson.parse printed with
    | Ok (Sjson.Str s') -> Alcotest.(check string) ("reparse " ^ label) s s'
    | _ -> Alcotest.failf "reparse %s: not a string" label
  in
  check_printed "start" "\nstart" {|"\nstart"|};
  check_printed "middle" "mid\tdle" {|"mid\tdle"|};
  check_printed "end" "end\\" {|"end\\"|};
  check_printed "quotes" "\"both\"" {|"\"both\""|};
  check_printed "controls" (String.init 32 Char.chr ^ "\"\\")
    ({|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r|}
   ^ {|\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018|}
   ^ {|\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\"|});
  check_printed "no escape above 0x1f" "caf\xc3\xa9 \x7f/" "\"caf\xc3\xa9 \x7f/\"";
  let p = String.make 100 'p' and q = String.make 100 'q' in
  check_printed "runs around an escape" (p ^ "\r" ^ q) ("\"" ^ p ^ {|\r|} ^ q ^ "\"");
  (* 40 KB of every byte a string carries unescaped. *)
  let plain =
    String.init 40_000 (fun i ->
        let c = 0x20 + (i mod 0xE0) in
        Char.chr (if c = 0x22 || c = 0x5C then c + 1 else c))
  in
  check_printed "40 KB plain" plain ("\"" ^ plain ^ "\"");
  check_printed "40 KB, newline, 40 KB" (plain ^ "\n" ^ plain)
    ("\"" ^ plain ^ {|\n|} ^ plain ^ "\"");
  (* Parse errors after a plain run of 120 bytes: the message and the
     byte offset it names are pinned. *)
  let run = String.make 120 'r' in
  List.iter
    (fun (input, expected) ->
      match Sjson.parse input with
      | Ok _ -> Alcotest.failf "accepted %s" expected
      | Error e -> Alcotest.(check string) expected expected e)
    [
      ("\"" ^ run ^ "\x01\"", "byte 121: raw control character in string");
      ("{\"s\":\"" ^ run ^ {|\q"}|}, {|byte 128: invalid escape '\q'|});
      ("[\"" ^ run ^ {|\ud800x"]|}, "byte 128: lone high surrogate");
      ("\"" ^ run ^ {|\udc00"|}, "byte 127: lone low surrogate");
      ("\"" ^ run ^ {|\ud800\u0041"|}, "byte 133: invalid low surrogate");
      ("\"" ^ run ^ {|\u12g4"|}, {|byte 123: invalid \u escape|});
      ("\"" ^ run, "byte 121: unterminated string");
      ("\"" ^ run ^ "\\", "byte 122: unterminated escape");
      ({|"\n|} ^ run ^ "\x1f\"", "byte 123: raw control character in string");
      ({|"\t|} ^ run, "byte 123: unterminated string");
    ]

(* --- Single_flight --------------------------------------------------- *)

let test_single_flight_coalesces () =
  (* Room for one leader: the seven followers do not count against it. *)
  let sf = Single_flight.create ~capacity:1 in
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
  Alcotest.check_raises "another key is over capacity" Single_flight.Full
    (fun () -> ignore (Single_flight.run sf "other" (fun () -> 0)));
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
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Single_flight.create: negative capacity") (fun () ->
      ignore (Single_flight.create ~capacity:(-1) : int Single_flight.t));
  let sf = Single_flight.create ~capacity:1 in
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
      (Robust_error.Singular
         { solver = "Matrix.lu_factor"; detail = "zero pivot" })
  in
  Alcotest.(check string) "robust kind" "singular" e.Serve_protocol.kind;
  Alcotest.(check bool) "robust detail nonempty" true
    (String.length e.Serve_protocol.detail > 0)

(* --- server ---------------------------------------------------------- *)

(* Run [f] on a fresh server with zeroed, enabled metrics. *)
let with_server ?max_generations f =
  with_obs @@ fun () -> f (Serve.create ?max_generations ())

let table_line ?(id = 1) ?(params = tiny) ?(grid = micro_grid) () =
  Serve_protocol.request_to_line
    {
      Serve_protocol.id = Some id;
      op = Serve_protocol.Table { params; grid = Some grid };
    }

(* The coalescing acceptance test needs the leader's generation to
   outlast the followers' start-up.  Followers compete with the
   generating leader for the runtime lock: each blocking call a follower
   makes before it joins the single-flight map (the start barrier, and
   the disk probe of its Table_cache lookup) can leave it waiting for a
   50 ms runtime-lock tick while the leader computes, longer in a loaded
   suite (idle pool domains, a large major heap), so the seven followers
   can take up to about 0.7 s to join.  Once earlier tests have warmed
   the process, 36 points take about 90 ms, which late followers missed
   in full-suite runs; 360 points take about 2 s. *)
let coalescing_grid = { micro_grid with Iv_table.n_vg = 36; n_vd = 10 }

let expect_ok line =
  match Serve_protocol.parse_response line with
  | Ok { Serve_protocol.result = Ok r; _ } -> r
  | Ok { Serve_protocol.result = Error e; _ } ->
    Alcotest.failf "expected ok, got error %s: %s" e.Serve_protocol.kind
      e.Serve_protocol.detail
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

(* Cached tables are never rejected: with no generation allowed at all,
   a table staged on disk is still answered (a disk hit), and a second
   request for it is a memory hit.  Neither starts a generation. *)
let test_serve_cached_tables_never_queue () =
  skip_if_fault_armed [ "table_cache.read" ];
  with_temp_cache @@ fun () ->
  let key = Table_cache.key ~grid:micro_grid tiny in
  Sys.mkdir (Table_cache.cache_dir ()) 0o755;
  Tbl_format.write ~path:(Table_cache.gnrtbl_path key) ~cache_key:key
    (synthetic_table ~key ());
  with_server ~max_generations:0 @@ fun server ->
  let count = Obs.counter_value in
  ignore (expect_ok (Serve.handle_line server (table_line ())));
  Alcotest.(check int) "disk hit" 1 (count "table_cache.disk_hits");
  Alcotest.(check int) "no job" 0 (count "serve.jobs");
  Alcotest.(check int) "no rejection" 0 (count "serve.rejected");
  ignore (expect_ok (Serve.handle_line server (table_line ~id:2 ())));
  Alcotest.(check int) "memory hit" 1 (count "table_cache.memory_hits");
  Alcotest.(check int) "still no job" 0 (count "serve.jobs");
  Alcotest.(check int) "not generated again" 0 (count "table_cache.generates")

let test_serve_single_flight_acceptance () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache @@ fun () ->
  with_server @@ fun server ->
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
  (* The daemon has no grid of its own: the request's grid is used. *)
  (match Serve_protocol.table_of_json first with
  | Ok t ->
    Alcotest.(check int) "vg follows the request grid"
      coalescing_grid.Iv_table.n_vg (Array.length t.Iv_table.vg)
  | Error e -> Alcotest.failf "table result does not decode: %s" e);
  (* The acceptance criterion: one generation, everyone else coalesced. *)
  Alcotest.(check int) "table_cache.generates" 1
    (Obs.counter_value "table_cache.generates");
  Alcotest.(check int) "serve.coalesced_hits" (n - 1)
    (Obs.counter_value "serve.coalesced_hits");
  Alcotest.(check int) "serve.requests" n
    (Obs.counter_value "serve.requests");
  Alcotest.(check int) "no rejections" 0
    (Obs.counter_value "serve.rejected");
  (* A request after the dust settles is a Table_cache memory hit that
     starts no generation. *)
  let memory_hits = Obs.counter_value "table_cache.memory_hits" in
  ignore (expect_ok (Serve.handle_line server line));
  Alcotest.(check int) "one more memory hit" (memory_hits + 1)
    (Obs.counter_value "table_cache.memory_hits");
  Alcotest.(check int) "still one job" 1 (Obs.counter_value "serve.jobs");
  Alcotest.(check int) "still one generation" 1
    (Obs.counter_value "table_cache.generates")

(* A table crosses the wire as its gnrtbl bytes: special floats and
   failed points arrive bit for bit, and a damaged payload is an [Error]
   that names what is wrong with it. *)
let test_serve_table_wire_bits () =
  skip_if_fault_armed [ "table_cache.read" ];
  with_temp_cache @@ fun () ->
  let key = Table_cache.key ~grid:micro_grid tiny in
  let staged = synthetic_table ~key () in
  let nan_payload = Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL in
  staged.Iv_table.current.(0).(0) <- nan_payload;
  staged.Iv_table.current.(1).(2) <- infinity;
  staged.Iv_table.charge.(2).(3) <- neg_infinity;
  staged.Iv_table.charge.(3).(1) <- -0.;
  staged.Iv_table.current.(4).(5) <- Float.succ 0.;
  let staged = { staged with Iv_table.failed_points = [ (0, 0); (4, 5) ] } in
  Sys.mkdir (Table_cache.cache_dir ()) 0o755;
  Tbl_format.write ~path:(Table_cache.gnrtbl_path key) ~cache_key:key staged;
  with_server ~max_generations:0 @@ fun server ->
  let result = expect_ok (Serve.handle_line server (table_line ())) in
  let bits = Array.map Int64.bits_of_float in
  let check_plane name expected actual =
    Alcotest.(check int) (name ^ " rows") (Array.length expected)
      (Array.length actual);
    Array.iteri
      (fun i row ->
        Alcotest.(check (array int64))
          (Printf.sprintf "%s row %d" name i)
          (bits row) (bits actual.(i)))
      expected
  in
  (match Serve_protocol.table_of_json result with
  | Ok t ->
    Alcotest.(check string) "key" staged.Iv_table.key t.Iv_table.key;
    Alcotest.(check (array int64)) "vg" (bits staged.Iv_table.vg)
      (bits t.Iv_table.vg);
    Alcotest.(check (array int64)) "vd" (bits staged.Iv_table.vd)
      (bits t.Iv_table.vd);
    check_plane "current" staged.Iv_table.current t.Iv_table.current;
    check_plane "charge" staged.Iv_table.charge t.Iv_table.charge;
    Alcotest.(check (list (pair int int))) "failed points"
      staged.Iv_table.failed_points t.Iv_table.failed_points
  | Error e -> Alcotest.failf "table did not decode: %s" e);
  let hex =
    match Option.bind (Sjson.member "gnrtbl" result) Sjson.to_str with
    | Some h -> h
    | None -> Alcotest.fail "table result has no gnrtbl string"
  in
  let with_payload h =
    Sjson.Obj [ ("key", Sjson.Str key); ("gnrtbl", Sjson.Str h) ]
  in
  let expect_error label j expected =
    match Serve_protocol.table_of_json j with
    | Ok _ -> Alcotest.failf "%s: decoded" label
    | Error e -> Alcotest.(check string) label expected e
  in
  (* One hex digit inside the current plane's data, flipped. *)
  let lay =
    Tbl_format.Layout.make ~cache_key:key ~table_key:key
      ~n_vg:(Array.length staged.Iv_table.vg)
      ~n_vd:(Array.length staged.Iv_table.vd) ~n_failed:2
  in
  let flipped = Bytes.of_string hex in
  let at = 2 * (lay.Tbl_format.Layout.col_off.(2) + 8) in
  Bytes.set flipped at (if hex.[at] = '0' then '1' else '0');
  expect_error "flipped digit" (with_payload (Bytes.to_string flipped))
    {|table.gnrtbl: crc_mismatch (CRC-32C mismatch in section "current")|};
  expect_error "odd length"
    (with_payload (String.sub hex 0 (String.length hex - 1)))
    "table.gnrtbl: odd-length hex payload";
  expect_error "non-hex byte"
    (with_payload (String.mapi (fun i c -> if i = 7 then 'x' else c) hex))
    "table.gnrtbl: byte 7 is not a lowercase hex digit";
  expect_error "uppercase digit at an odd index"
    (with_payload (String.mapi (fun i c -> if i = 9 then 'D' else c) hex))
    "table.gnrtbl: byte 9 is not a lowercase hex digit";
  expect_error "0xff byte"
    (with_payload (String.mapi (fun i c -> if i = 30 then '\xff' else c) hex))
    "table.gnrtbl: byte 30 is not a lowercase hex digit";
  expect_error "no gnrtbl field"
    (Sjson.Obj [ ("key", Sjson.Str key) ])
    {|table: missing string "gnrtbl"|}

let test_serve_backpressure () =
  with_temp_cache @@ fun () ->
  (* No generation allowed: every miss is rejected up front, so the
     test is deterministic (no timing on generation progress). *)
  with_server ~max_generations:0 @@ fun server ->
  match Serve_protocol.parse_response (Serve.handle_line server (table_line ())) with
  | Ok { Serve_protocol.result = Error e; _ } ->
    Alcotest.(check string) "busy" "busy" e.Serve_protocol.kind;
    Alcotest.(check (option int)) "retry hint" (Some 250)
      e.Serve_protocol.retry_after_ms;
    Alcotest.(check int) "counted" 1 (Obs.counter_value "serve.rejected");
    Alcotest.(check int) "nothing generated" 0
      (Obs.counter_value "table_cache.generates")
  | _ -> Alcotest.fail "expected a busy rejection"

(* The bound while a generation runs: with room for one generation, a
   miss for another table is answered busy at once, and once the
   running generation is done the same request generates. *)
let test_serve_admission_bound () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache @@ fun () ->
  with_server ~max_generations:1 @@ fun server ->
  let count = Obs.counter_value in
  let slow = ref "" in
  let th =
    Thread.create
      (fun () ->
        slow := Serve.handle_line server (table_line ~grid:coalescing_grid ()))
      ()
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while count "serve.jobs" = 0 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "the first generation never started";
    Thread.delay 0.01
  done;
  (match
     Serve_protocol.parse_response (Serve.handle_line server (table_line ~id:2 ()))
   with
  | Ok { Serve_protocol.result = Error e; _ } ->
    Alcotest.(check string) "busy" "busy" e.Serve_protocol.kind;
    Alcotest.(check (option int)) "retry hint" (Some 250)
      e.Serve_protocol.retry_after_ms
  | _ -> Alcotest.fail "expected a busy rejection while the bound is taken");
  Thread.join th;
  ignore (expect_ok !slow);
  ignore (expect_ok (Serve.handle_line server (table_line ~id:3 ())));
  Alcotest.(check int) "two generations" 2 (count "serve.jobs");
  Alcotest.(check int) "one rejection" 1 (count "serve.rejected")

let test_serve_stats_reports_table_cache () =
  (* A fresh server's stats snapshot must already carry the table-cache
     hit-path counters (at 0) — table_cache.mmap_hits included, the
     copy of disk_hits that perfbench and stats readers consume. *)
  with_server @@ fun server ->
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
  with_server @@ fun server ->
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
    (Obs.counter_value "serve.bad_requests")

let test_serve_stdio_transport () =
  with_server @@ fun server ->
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
  with_server @@ fun server ->
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
    Alcotest.test_case "admission bound" `Quick test_serve_admission_bound;
    Alcotest.test_case "single-flight coalesces" `Quick
      test_single_flight_coalesces;
    Alcotest.test_case "single-flight exception" `Quick
      test_single_flight_exception;
    Alcotest.test_case "request roundtrip + rejects" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "response roundtrip + robust errors" `Quick
      test_response_roundtrip;
    Alcotest.test_case "cached tables never queue" `Quick
      test_serve_cached_tables_never_queue;
    Alcotest.test_case "8 concurrent clients, 1 generation" `Quick
      test_serve_single_flight_acceptance;
    Alcotest.test_case "backpressure rejection" `Quick test_serve_backpressure;
    Alcotest.test_case "stats reports table-cache counters" `Quick
      test_serve_stats_reports_table_cache;
    Alcotest.test_case "bad request + ping" `Quick
      test_serve_bad_request_and_ping;
    Alcotest.test_case "stdio transport" `Quick test_serve_stdio_transport;
    Alcotest.test_case "unix-socket transport" `Quick
      test_serve_unix_transport;
    Alcotest.test_case "table crosses the wire bit for bit" `Quick
      test_serve_table_wire_bits;
  ]
