(* Helpers shared by the perfbench workloads: clocks, seeded shuffles,
   process statistics, output digests, the registry deltas and gnrtbl
   timings the traced run reports, and the result record. *)

let now = Unix.gettimeofday

(* Fisher–Yates permutation driven by the workload seed. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Work scales with --seconds in whole rounds, never with wall time, so
   one seed and one --seconds always do the same work. *)
let rounds ~seconds ~round_s = max 1 (int_of_float (Float.round (seconds /. round_s)))

(* Peak resident set (VmHWM) of a process, MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> 0.
    in
    scan ()

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Order-sensitive digest of float bit patterns: the obs-on/obs-off
   contract compares these byte for byte. *)
let add_float buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* Registry deltas around the measured phase. *)
let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.snap_counters)

let timer_ms snap name =
  match List.assoc_opt name snap.Obs.snap_timers with
  | Some t -> t.Obs.total_ms
  | None -> 0.

let counter_delta ~before ~after name = counter after name - counter before name

let timer_delta ~before ~after name = timer_ms after name -. timer_ms before name

let parallel_layers ~before ~after =
  [
    ("parallel.runs", float_of_int (counter_delta ~before ~after "parallel.runs"));
    ("parallel.pool_tasks", float_of_int (counter_delta ~before ~after "parallel.pool_tasks"));
    ("parallel.queue_wait.ms", timer_delta ~before ~after "parallel.queue_wait");
  ]

(* Time the public gnrtbl writer and mapped reader on generated tables;
   the round trip must reproduce the table exactly. *)
let time_tbl_format ~dir tables =
  let write_ms = ref 0. and read_ms = ref 0. and errors = ref [] in
  List.iteri
    (fun i (name, (t : Iv_table.t)) ->
      let path = Filename.concat dir (Printf.sprintf "roundtrip-%d.gnrtbl" i) in
      let t0 = now () in
      Tbl_format.write ~path ~cache_key:t.key t;
      let t1 = now () in
      let back = Tbl_format.to_table (Tbl_format.read ~path) in
      let t2 = now () in
      write_ms := !write_ms +. ((t1 -. t0) *. 1e3);
      read_ms := !read_ms +. ((t2 -. t1) *. 1e3);
      if back <> t then errors := Printf.sprintf "%s: gnrtbl round trip differs" name :: !errors;
      Sys.remove path)
    tables;
  ([ ("tbl_format.write.ms", !write_ms); ("tbl_format.read.ms", !read_ms) ], !errors)

(* The result record the driver script reads from the last stdout line. *)
type result = {
  attempted : int;
  failed : int;
  elapsed_s : float;  (** the whole measured phase *)
  peak_rss_mb : float;
  errors : string list;  (** failed output checks, human-readable *)
  outputs : (string * Sjson.t) list;  (** values checked against reference.json *)
  digest : string;
  latency : (string * float array) list;  (** per-kind latency samples, ms *)
  work : (string * int) list;  (** deterministic work counters (seed balance) *)
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
}

let num x = Sjson.Num x

let result_json ~workload ~seed r =
  let lat =
    List.map
      (fun (kind, xs) ->
        ( kind,
          Sjson.Obj
            [
              ("n", num (float_of_int (Array.length xs)));
              ("p50", num (Stats.percentile xs 50.));
              ("p90", num (Stats.percentile xs 90.));
            ] ))
      r.latency
  in
  Sjson.Obj
    [
      ("workload", Sjson.Str workload);
      ("seed", num (float_of_int seed));
      ("attempted", num (float_of_int r.attempted));
      ("failed", num (float_of_int r.failed));
      ("elapsed_s", num r.elapsed_s);
      ("throughput", num (float_of_int r.attempted /. r.elapsed_s));
      ("peak_rss_mb", num r.peak_rss_mb);
      ("errors", Sjson.List (List.map (fun e -> Sjson.Str e) r.errors));
      ("outputs", Sjson.Obj r.outputs);
      ("digest", Sjson.Str r.digest);
      ("latency", Sjson.Obj lat);
      ("work", Sjson.Obj (List.map (fun (k, v) -> (k, num (float_of_int v))) r.work));
      ("layers", Sjson.Obj (List.map (fun (k, v) -> (k, num v)) r.layers));
      ( "env",
        Sjson.Obj
          [
            ("pool_width", num (float_of_int (Parallel.num_domains ())));
            ("obs", Sjson.Bool (Obs.enabled Obs.global));
            ("cpu_s", num (cpu_seconds ()));
          ] );
    ]
