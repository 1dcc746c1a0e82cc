let cache_dir () =
  match Sys.getenv_opt "GNRFET_TABLE_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None -> "_tables"

let memory : (string, Iv_table.t) Hashtbl.t = Hashtbl.create 32

let memory_mutex = Mutex.create ()

let clear_memory () =
  Mutex.protect memory_mutex (fun () -> Hashtbl.reset memory)

(* The "v2|" prefix versions the *logical* key contents (PR 4 added
   [failed_points]); the on-disk byte layout is versioned separately by
   the gnrtbl header (Tbl_format.version), so a gnrtbl layout bump
   retires files via Bad_version instead of a key change. *)
let key ?(grid = Iv_table.default_grid) p =
  "v2|" ^ Params.cache_key p ^ "|" ^ Iv_table.grid_key grid

(* Tables are stored as [<digest>.gnrtbl] (Tbl_format, docs/FORMAT.md). *)
let gnrtbl_path key =
  Filename.concat (cache_dir ()) (Digest.to_hex (Digest.string key) ^ ".gnrtbl")

(* Fault-injection site (docs/ROBUST.md): an armed campaign fails the
   read as a corrupt file, exercising the quarantine path. *)
let fault_read = Fault.site "table_cache.read"

let c_memory_hits = Obs.Counter.make "table_cache.memory_hits"
let c_disk_hits = Obs.Counter.make "table_cache.disk_hits"
let c_mmap_hits = Obs.Counter.make "table_cache.mmap_hits"
let c_misses = Obs.Counter.make "table_cache.misses"
let c_generates = Obs.Counter.make "table_cache.generates"
let c_deduped = Obs.Counter.make "table_cache.deduped"
let c_store_failures = Obs.Counter.make "table_cache.store_failures"
let c_corrupt_quarantined = Obs.Counter.make "table_cache.corrupt_quarantined"
let c_quarantine_failed = Obs.Counter.make "table_cache.quarantine_failed"

type disk_outcome =
  | Table of Iv_table.t
  | Absent
  | Stale
  | Corrupt of Robust_error.corrupt_reason

(* A file that fails validation is renamed to [<name>.corrupt] so it
   cannot poison every future run (and stays inspectable).  The rename
   itself runs inside a degraded read path, so its failure (read-only
   cache directory) must never raise: it is counted in
   [table_cache.quarantine_failed] and the lookup still degrades to a
   miss. *)
let quarantine path reason =
  Obs.Counter.incr c_corrupt_quarantined;
  Obs.Counter.incr
    (Obs.Counter.make ("table_cache.corrupt." ^ Robust_error.corrupt_label reason));
  match Sys.rename path (path ^ ".corrupt") with
  | () -> ()
  | exception Sys_error _ -> Obs.Counter.incr c_quarantine_failed

let injected_reason site hit =
  Robust_error.Undecodable
    { detail = Printf.sprintf "injected fault (%s hit %d)" site hit }

(* gnrtbl read path: read and checksum-validate.  Tbl_format raises
   checksum-precise [Cache_corrupt] reasons; everything else this
   function can observe is absence or an unreadable file, both of which
   degrade to a plain miss. *)
let probe_key key =
  let path = gnrtbl_path key in
  if not (Sys.file_exists path) then Absent
  else
    match
      Fault.fail fault_read;
      Tbl_format.read ~path
    with
    | view ->
      if String.equal view.Tbl_format.v_cache_key key then
        Table view.Tbl_format.v_table
      else Stale
    | exception Robust_error.Error (Robust_error.Cache_corrupt { reason; _ }) ->
      quarantine path reason;
      Corrupt reason
    | exception Robust_error.Error (Robust_error.Injected_fault { site; hit })
      ->
      let reason = injected_reason site hit in
      quarantine path reason;
      Corrupt reason
    | exception Sys_error _ ->
      Absent (* raced deletion or unreadable: a plain miss, not corrupt *)

let probe_disk ?grid p = probe_key (key ?grid p)

(* Writes are atomic (tmp + rename) and best-effort — a cache store
   failure must never kill the computation that produced the table — but
   never silent: every failed store counts in [table_cache.store_failures]. *)
let store_file key table =
  let store_failed () = Obs.Counter.incr c_store_failures in
  let dir = cache_dir () in
  if not (Sys.file_exists dir) then begin
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error _ ->
      (* Lost a mkdir race, or the parent is unwritable; the latter
         surfaces as a store failure at open below. *)
      ()
  end;
  let path = gnrtbl_path key in
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let cleanup () =
    match Sys.remove tmp with () -> () | exception Sys_error _ -> ()
  in
  match open_out_bin tmp with
  | exception Sys_error _ -> store_failed ()
  | oc -> (
    match
      output_string oc (Tbl_format.encode ~cache_key:key table);
      close_out oc
    with
    | () -> (
      match Sys.rename tmp path with
      | () -> ()
      | exception Sys_error _ ->
        store_failed ();
        cleanup ())
    | exception (Sys_error _ | Failure _ | Invalid_argument _) ->
      close_out_noerr oc;
      store_failed ();
      cleanup ())

(* Hit/miss accounting (docs/OBS.md): every [lookup] resolves to exactly
   one of memory hit, disk hit or miss, and [generates] counts
   cache-initiated table generations.  [table_cache.mmap_hits] is a
   copy of [table_cache.disk_hits], kept because perfbench and daemon
   [stats] readers consume it. *)
let lookup ?grid p =
  let key = key ?grid p in
  match Mutex.protect memory_mutex (fun () -> Hashtbl.find_opt memory key) with
  | Some t ->
    Obs.Counter.incr c_memory_hits;
    Some t
  | None -> begin
    match probe_key key with
    | Table t ->
      Obs.Counter.incr c_disk_hits;
      Obs.Counter.incr c_mmap_hits;
      Mutex.protect memory_mutex (fun () -> Hashtbl.replace memory key t);
      Some t
    | Absent | Stale | Corrupt _ ->
      Obs.Counter.incr c_misses;
      None
  end

(* A cache-initiated generation: counted, kept in memory and persisted
   before it is returned. *)
let generate_and_store ?grid p =
  let key = key ?grid p in
  Obs.Counter.incr c_generates;
  let t = Iv_table.generate ?grid p in
  Mutex.protect memory_mutex (fun () -> Hashtbl.replace memory key t);
  store_file key t;
  t

let get ?grid p =
  match lookup ?grid p with
  | Some t -> t
  | None -> generate_and_store ?grid p

let get_many ?grid ps =
  let missing = List.filter (fun p -> Option.is_none (lookup ?grid p)) ps in
  (* A batch may name the same device twice (duplicate Params in the
     request list): generate each unique key exactly once, counting the
     dropped duplicates in [table_cache.deduped].  Output order is
     preserved by the final per-request [get] pass (duplicates resolve
     to memory hits). *)
  let missing =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun p ->
        let k = key ?grid p in
        if Hashtbl.mem seen k then begin
          Obs.Counter.incr c_deduped;
          false
        end
        else begin
          Hashtbl.add seen k ();
          true
        end)
      missing
  in
  (* Each table is persisted as soon as it is generated, so an
     interrupted batch keeps its completed work.  The devices fan out
     over the pool, and each device's energy runs nest in the same pool:
     one pool cannot oversubscribe the cores, and every table is
     bit-identical at every width (docs/PERF.md). *)
  ignore
    (Parallel.map (generate_and_store ?grid) (Array.of_list missing)
      : Iv_table.t array);
  List.map (fun p -> get ?grid p) ps
