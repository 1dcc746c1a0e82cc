(* serve-mix: a closed loop with min(2, nproc) client connections
   against the `gnrfet_cli serve` daemon over a Unix socket, 9 `iv`
   requests to 1 `table` request.

   Set-up stages 48 N = 12 device tables at the default 53 × 17 grid
   with the public gnrtbl writer, starts the daemon with its default
   configuration (32-table LRU) and warms the 16-table hot set.  The 32
   cold tables do not fit beside it.  Per-key request counts are fixed;
   the seed only orders the requests and picks the iv bias points.  The
   table contents are a smooth closed-form I–V: serving cost does not
   depend on the numbers, and no SCF runs anywhere in this workload.

   The traffic is synthetic, not recorded: the 9 : 1 mix is the
   benchmark's specified request mix, and the hot/cold sizes and the
   hot weight below are arbitrary, picked only so that the hot set fits
   the LRU and the cold set does not.  No client in the repository sends
   this mix (the campaign serve executor sends only `table` requests),
   so serve-mix figures are not a model of campaign traffic. *)

open Pb_util

let n_hot = 16

let n_cold = 32

(* Requests per key per block: hot keys get 6 times the traffic of cold
   keys (an arbitrary weight, not measured), and every key gets 9 iv
   requests per table request. *)
let hot_weight = 6

let device i =
  let q = [| 0.; 1.; -1.; 2. |].(i mod 4) in
  { (Variants.impurity q) with Params.gate_offset = 0.01 *. float_of_int (i / 4) }

let synthetic_table i =
  let p = device i in
  let g = Iv_table.default_grid in
  let vg = Vec.linspace g.vg_min g.vg_max g.n_vg and vd = Vec.linspace 0. g.vd_max g.n_vd in
  let vt = 0.35 -. p.Params.gate_offset +. (0.02 *. float_of_int (i mod 4)) in
  let softplus x = if x > 30. then x else log1p (exp x) in
  let on v = softplus ((v -. vt) /. 0.04) in
  {
    Iv_table.key = Table_cache.key p;
    vg;
    vd;
    current = Array.map (fun v -> Array.map (fun d -> 2e-7 *. on v *. tanh (d /. 0.08)) vd) vg;
    charge = Array.map (fun v -> Array.map (fun d -> -1e-19 *. on v *. (1. -. (0.3 *. d))) vd) vg;
    failed_points = [];
  }

type kind = Iv of float * float | Table

type request = { rid : int; key : int; kind : kind }

type state = {
  tables : Iv_table.t array;
  daemon : int;
  socket : string;
  warm : Serve_client.t;
}

let connect socket = Serve_client.connect ~path:socket ()

let call_ok client op =
  match (Serve_client.call client { Serve_protocol.id = None; op }).Serve_protocol.result with
  | Ok json -> json
  | Error e -> failwith ("serve-mix: " ^ e.Serve_protocol.kind ^ ": " ^ e.Serve_protocol.detail)

let stats client =
  match Sjson.member "counters" (call_ok client Serve_protocol.Stats) with
  | Some (Sjson.Obj kv) -> List.map (fun (k, v) -> (k, Option.value ~default:0 (Sjson.to_int v))) kv
  | _ -> []

let setup ~cli ~table_dir =
  let tables = Array.init (n_hot + n_cold) synthetic_table in
  (try Sys.mkdir table_dir 0o755 with Sys_error _ -> ());
  Array.iter
    (fun (t : Iv_table.t) -> Tbl_format.write ~path:(Table_cache.gnrtbl_path t.key) ~cache_key:t.key t)
    tables;
  let socket = "serve.sock" in
  let daemon =
    Unix.create_process cli [| cli; "serve"; "--socket"; socket |] Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = now () +. 60. in
  let rec dial () =
    match connect socket with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      (* Poll finely: this wait is part of setup_s. *)
      Unix.sleepf 0.002;
      dial ()
  in
  let warm = dial () in
  for i = 0 to n_hot - 1 do
    ignore (call_ok warm (Serve_protocol.Table { params = device i; grid = None }) : Sjson.t)
  done;
  { tables; daemon; socket; warm }

let stop_daemon st =
  (try ignore (call_ok st.warm Serve_protocol.Shutdown : Sjson.t) with _ -> ());
  Serve_client.close st.warm;
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] st.daemon with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      reap ()
    | 0, _ ->
      Unix.kill st.daemon Sys.sigkill;
      ignore (Unix.waitpid [] st.daemon)
    | _ -> ()
  in
  reap ()

(* One block: every key's fixed request multiset, in seeded order. *)
let block ~rng ~first_rid =
  let g = Iv_table.default_grid in
  let per_key key = if key < n_hot then hot_weight else 1 in
  let slots =
    List.concat_map
      (fun key -> List.init (per_key key * 10) (fun n -> (key, n mod 10 = 9)))
      (List.init (n_hot + n_cold) Fun.id)
  in
  Array.mapi
    (fun k (key, is_table) ->
      let kind =
        if is_table then Table
        else Iv (Rng.uniform rng g.vg_min g.vg_max, Rng.uniform rng 0. g.vd_max)
      in
      { rid = first_rid + k; key; kind })
    (shuffle rng (Array.of_list slots))

let block_size = ((n_hot * hot_weight) + n_cold) * 10

let op_of r =
  let params = device r.key in
  match r.kind with
  | Iv (vg, vd) -> Serve_protocol.Iv { params; grid = None; vg; vd }
  | Table -> Serve_protocol.Table { params; grid = None }

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_table (a : Iv_table.t) (b : Iv_table.t) =
  let row x y = Array.length x = Array.length y && Array.for_all2 bits_equal x y in
  let mat x y = Array.length x = Array.length y && Array.for_all2 row x y in
  a.key = b.key && row a.vg b.vg && row a.vd b.vd && mat a.current b.current
  && mat a.charge b.charge && a.failed_points = b.failed_points

(* One client connection working through its share of the requests. *)
let client_loop st client reqs ~answers ~ok ~lat =
  Array.iter
    (fun r ->
      let t0 = now () in
      let resp =
        Pb_trace.run ~rid:r.rid "serve_client.call" (fun () ->
            Serve_client.call client { Serve_protocol.id = Some r.rid; op = op_of r })
      in
      lat.(r.rid) <- (now () -. t0) *. 1e3;
      match (resp.Serve_protocol.result, r.kind) with
      | Ok json, Iv _ -> (
        match
          (Option.bind (Sjson.member "current" json) Sjson.to_float,
           Option.bind (Sjson.member "charge" json) Sjson.to_float)
        with
        | Some c, Some q ->
          answers.(r.rid) <- (c, q);
          ok.(r.rid) <- true
        | _ -> ())
      | Ok json, Table ->
        let decoded =
          Pb_trace.run ~rid:r.rid "serve_protocol.table_of_json" (fun () ->
              Serve_protocol.table_of_json json)
        in
        ok.(r.rid) <- (match decoded with Ok t -> same_table t st.tables.(r.key) | Error _ -> false)
      | Error _, _ -> ())
    reqs

(* Replays the measured request lines against an in-process server and
   times the pieces the client cannot see (traced run only). *)
let replay st reqs =
  let server = Serve.create () in
  Array.iter
    (fun r ->
      let line = Serve_protocol.request_to_line { Serve_protocol.id = Some r.rid; op = op_of r } in
      ignore (Pb_trace.run ~rid:r.rid "serve.handle_line" (fun () -> Serve.handle_line server line) : string);
      match r.kind with
      | Table ->
        ignore
          (Pb_trace.run ~rid:r.rid "serve_protocol.table_to_json" (fun () ->
               Serve_protocol.table_to_json st.tables.(r.key))
            : Sjson.t)
      | Iv _ -> ())
    reqs;
  Serve.stop server

let run st ~seed ~seconds ~connections ~traced =
  let rng = Rng.create seed in
  let blocks = rounds ~seconds ~round_s:0.625 in
  let reqs = Array.concat (List.init blocks (fun b -> block ~rng ~first_rid:(b * block_size))) in
  let n = Array.length reqs in
  let answers = Array.make n (0., 0.) and ok = Array.make n false and lat = Array.make n 0. in
  (* Connection c takes requests c, c + connections, c + 2 connections, … *)
  let share c = Array.of_list (List.filter (fun r -> r.rid mod connections = c) (Array.to_list reqs)) in
  let clients = List.init connections (fun _ -> connect st.socket) in
  let before_daemon = stats st.warm and before = Obs.snapshot () in
  let t0 = now () in
  let threads =
    List.mapi
      (fun c client -> Thread.create (fun () -> client_loop st client (share c) ~answers ~ok ~lat) ())
      clients
  in
  List.iter Thread.join threads;
  let elapsed_s = now () -. t0 in
  List.iter Serve_client.close clients;
  let after_daemon = stats st.warm and after = Obs.snapshot () in
  let peak_rss_mb = vm_hwm_mb (string_of_int st.daemon) in
  stop_daemon st;
  (* Every iv answer must equal local interpolation of the staged table
     bit for bit. *)
  let buf = Buffer.create (n * 16) in
  let failed = ref 0 in
  Array.iter
    (fun r ->
      let good =
        ok.(r.rid)
        &&
        match r.kind with
        | Table -> true
        | Iv (vg, vd) ->
          let t = st.tables.(r.key) in
          let c, q =
            Pb_trace.run ~rid:r.rid "iv_table.interp" (fun () ->
                (Iv_table.current_at t ~vg ~vd, Iv_table.charge_at t ~vg ~vd))
          in
          let c', q' = answers.(r.rid) in
          add_float buf c';
          add_float buf q';
          bits_equal c c' && bits_equal q q'
      in
      if not good then incr failed)
    reqs;
  let pick kind =
    Array.of_list
      (List.filter_map
         (fun r -> match (r.kind, kind) with Iv _, `Iv | Table, `Table -> Some lat.(r.rid) | _ -> None)
         (Array.to_list reqs))
  in
  let iv_lat = pick `Iv and table_lat = pick `Table in
  let work =
    [ ("requests.iv", Array.length iv_lat); ("requests.table", Array.length table_lat) ]
  in
  let layers =
    if not traced then []
    else begin
      replay st reqs;
      let dd name =
        float_of_int
          (Option.value ~default:0 (List.assoc_opt name after_daemon)
          - Option.value ~default:0 (List.assoc_opt name before_daemon))
      in
      let client_ms = Pb_trace.total_ms "serve_client.call" in
      let handle_ms = Pb_trace.total_ms "serve.handle_line" in
      [
        ("serve.handle_line.ms", handle_ms);
        ("serve.transport.ms", client_ms -. handle_ms);
        ("serve_protocol.table_to_json.ms", Pb_trace.total_ms "serve_protocol.table_to_json");
        ("serve_protocol.table_of_json.ms", Pb_trace.total_ms "serve_protocol.table_of_json");
        ("iv_table.interp.ms", Pb_trace.total_ms "iv_table.interp");
        ("serve.lru_hits", dd "serve.lru_hits");
        ("serve.lru_evictions", dd "serve.lru_evictions");
        ("serve.jobs", dd "serve.jobs");
        ("serve.rejected", dd "serve.rejected");
        ("serve.lru_hit_ratio", dd "serve.lru_hits" /. float_of_int n);
        ("serve_client.retries", float_of_int (counter_delta ~before ~after "serve_client.retries"));
        ("table_cache.memory_hits", dd "table_cache.memory_hits");
        ("table_cache.disk_hits", dd "table_cache.disk_hits");
        ("table_cache.mmap_hits", dd "table_cache.mmap_hits");
      ]
      @ parallel_layers ~before ~after
    end
  in
  {
    attempted = n;
    failed = !failed;
    elapsed_s;
    peak_rss_mb;
    errors = [];
    outputs = [];
    digest = digest buf;
    latency = [ ("iv", iv_lat); ("table", table_lat) ];
    work;
    layers;
  }
