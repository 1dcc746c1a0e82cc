(* Resumable device campaigns (docs/CAMPAIGN.md).

   A campaign is a typed spec — device axes (GNR width, impurity
   charge, contact broadening) x operating points (VDD, VT) x a sample
   count — expanded into deterministically seeded samples.  Each sample
   picks one value per axis from a splitmix64 stream keyed on
   (spec seed, sample index), so sample k is the same device at the
   same operating point on every run, every process, every resume.

   Samples are evaluated strictly in index order; the streaming
   accumulators (Stream_stats) therefore see a deterministic value
   sequence and the final report is a pure function of the spec —
   which is what lets the chaos CI leg demand bit-identical reports
   from an uninterrupted run and a SIGKILL-plus-resume run.
   Parallelism lives a level down (the energy loops under
   Table_cache.get, which the daemon runs on the requesting thread),
   not across samples. *)

let ( let* ) = Result.bind

type spec = {
  name : string;
  samples : int;
  seed : int;
  stages : int;
  widths : int list;
  charges : float list;
  gammas : float list;
  ops : (float * float) list;  (* (vdd, vt) *)
  grid : Iv_table.grid_spec option;
}

let validate spec =
  if spec.name = "" then Error "spec: name must be non-empty"
  else if spec.samples <= 0 then Error "spec: samples must be positive"
  else if spec.stages <= 0 then Error "spec: stages must be positive"
  else if spec.widths = [] then Error "spec: widths must be non-empty"
  else if spec.charges = [] then Error "spec: charges must be non-empty"
  else if spec.gammas = [] then Error "spec: gammas must be non-empty"
  else if spec.ops = [] then Error "spec: ops must be non-empty"
  else Ok spec

(* ------------------------------------------------------------------ *)
(* Spec codec (strict, canonical)                                      *)

let spec_keys =
  [
    "name"; "samples"; "seed"; "stages"; "widths"; "charges"; "gammas";
    "ops"; "grid";
  ]

let check_keys fields =
  List.fold_left
    (fun acc (k, _) ->
      let* () = acc in
      if List.mem k spec_keys then Ok ()
      else Error (Printf.sprintf "spec: unknown field %S" k))
    (Ok ()) fields

(* [item] names one element in the error ("a number", "an integer"). *)
let list_of conv ~item ~what j =
  match Sjson.to_list j with
  | None -> Error (Printf.sprintf "spec.%s: expected an array" what)
  | Some items ->
    let* rev =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          match conv j with
          | Some v -> Ok (v :: acc)
          | None -> Error (Printf.sprintf "spec.%s: expected %s" what item))
        (Ok []) items
    in
    Ok (List.rev rev)

let spec_of_json j =
  match j with
  | Sjson.Obj fields ->
    let* () = check_keys fields in
    let field k = List.assoc_opt k fields in
    let* name =
      match Option.bind (field "name") Sjson.to_str with
      | Some n -> Ok n
      | None -> Error "spec: missing string \"name\""
    in
    let int_field k default =
      match field k with
      | None -> Ok default
      | Some j ->
        (match Sjson.to_int j with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "spec.%s: expected an integer" k))
    in
    let* samples = int_field "samples" 0 in
    let* seed = int_field "seed" 1 in
    let* stages = int_field "stages" 15 in
    let* widths =
      match field "widths" with
      | None -> Ok [ 12 ]
      | Some j -> list_of Sjson.to_int ~item:"an integer" ~what:"widths" j
    in
    let list_field k default =
      match field k with
      | None -> Ok default
      | Some j -> list_of Sjson.to_float ~item:"a number" ~what:k j
    in
    let* charges = list_field "charges" [ 0. ] in
    let* gammas = list_field "gammas" [ 1. ] in
    let* ops =
      match field "ops" with
      | None -> Error "spec: missing \"ops\" ([[vdd, vt], ...])"
      | Some j ->
        (match Sjson.to_list j with
        | None -> Error "spec.ops: expected an array of [vdd, vt] pairs"
        | Some items ->
          let* rev =
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match Sjson.to_list item with
                | Some [ a; b ] ->
                  (match (Sjson.to_float a, Sjson.to_float b) with
                  | Some vdd, Some vt -> Ok ((vdd, vt) :: acc)
                  | _ -> Error "spec.ops: expected numeric [vdd, vt] pairs")
                | _ -> Error "spec.ops: expected [vdd, vt] pairs")
              (Ok []) items
          in
          Ok (List.rev rev))
    in
    let* grid =
      match field "grid" with
      | None | Some Sjson.Null -> Ok None
      | Some j ->
        let* g = Serve_protocol.grid_of_json j in
        Ok (Some g)
    in
    validate { name; samples; seed; stages; widths; charges; gammas; ops; grid }
  | _ -> Error "spec: expected a JSON object"

let spec_to_json spec =
  let nums xs = Sjson.List (List.map (fun v -> Sjson.Num v) xs) in
  let base =
    [
      ("name", Sjson.Str spec.name);
      ("samples", Sjson.Num (float_of_int spec.samples));
      ("seed", Sjson.Num (float_of_int spec.seed));
      ("stages", Sjson.Num (float_of_int spec.stages));
      ("widths", nums (List.map float_of_int spec.widths));
      ("charges", nums spec.charges);
      ("gammas", nums spec.gammas);
      ( "ops",
        Sjson.List
          (List.map
             (fun (vdd, vt) -> Sjson.List [ Sjson.Num vdd; Sjson.Num vt ])
             spec.ops) );
    ]
  in
  let grid =
    match spec.grid with
    | Some g -> [ ("grid", Serve_protocol.grid_to_json g) ]
    | None -> []
  in
  Sjson.Obj (base @ grid)

let spec_hash spec =
  let s = Sjson.to_string (spec_to_json spec) in
  Crc32.string s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Deterministic sample expansion                                      *)

type sample = {
  s_index : int;
  s_width : int;
  s_charge : float;
  s_gamma : float;
  s_vdd : float;
  s_vt : float;
}

let golden = 0x9E3779B97F4A7C15L

let pick k lst =
  let n = List.length lst in
  List.nth lst
    (Int64.to_int (Int64.rem (Int64.shift_right_logical k 1) (Int64.of_int n)))

let sample_at spec i =
  let k0 =
    Fault.splitmix64
      (Int64.logxor
         (Int64.of_int spec.seed)
         (Int64.mul golden (Int64.of_int (i + 1))))
  in
  let k1 = Fault.splitmix64 k0 in
  let k2 = Fault.splitmix64 k1 in
  let k3 = Fault.splitmix64 k2 in
  let vdd, vt = pick k3 spec.ops in
  {
    s_index = i;
    s_width = pick k0 spec.widths;
    s_charge = pick k1 spec.charges;
    s_gamma = pick k2 spec.gammas;
    s_vdd = vdd;
    s_vt = vt;
  }

let params_of_sample s =
  let p = Params.default ~gnr_index:s.s_width () in
  let p = { p with Params.contact_gamma = s.s_gamma } in
  if s.s_charge = 0. then p else Params.with_impurity_charge p s.s_charge

(* ------------------------------------------------------------------ *)
(* Executors: how a sample's device table is obtained                  *)

type executor = Params.t -> Iv_table.grid_spec option -> Iv_table.t

let c_fallbacks = Obs.Counter.make "campaign.serve_fallbacks"

let serve_executor ~fallback client () : executor =
 fun p grid ->
  let degrade e =
    if fallback then begin
      Obs.Counter.incr c_fallbacks;
      Table_cache.get ?grid p
    end
    else raise e
  in
  match
    Serve_client.call client
      { Serve_protocol.id = None; op = Serve_protocol.Table { params = p; grid } }
  with
  | { Serve_protocol.result = Ok j; _ } ->
    (match Serve_protocol.table_of_json j with
    | Ok t -> t
    | Error detail ->
      degrade
        (Robust_error.Error
           (Robust_error.Client_disconnected { op = "table"; detail })))
  | { Serve_protocol.result = Error { Serve_protocol.kind = "busy"; detail; _ }; _ }
    ->
    (* The client already retried through its backoff budget; a daemon
       that is still saturated degrades to local generation so the
       campaign loses no samples. *)
    degrade
      (Robust_error.Error
         (Robust_error.Client_disconnected { op = "table"; detail }))
  | { Serve_protocol.result = Error { Serve_protocol.kind; detail; _ }; _ } ->
    (* A typed solver failure on the daemon side fails this sample the
       same way a local solve would: through the quarantine. *)
    Robust_error.raise_
      (Robust_error.Unrecovered
         { stage = "serve:" ^ kind; attempts = 1; detail })
  | exception
      (Robust_error.Error
         (Robust_error.Client_timeout _ | Robust_error.Client_disconnected _)
       as e) ->
    degrade e

(* ------------------------------------------------------------------ *)
(* Per-sample evaluation                                               *)

let fault_sample = Fault.site "campaign.sample"

(* Inverter characterizations are transients and bias-point specific;
   distinct (device, operating point) combinations are few next to the
   sample count, so memoize them (a pure cache: hits change nothing). *)
type sample_metrics = { delay : float; edp : float; snm : float }

let metrics_cache : (string, sample_metrics) Hashtbl.t = Hashtbl.create 64

let metrics_mutex = Mutex.create ()

let evaluate_sample (exec : executor) spec s =
  Fault.fail fault_sample;
  let p = params_of_sample s in
  let table = exec p spec.grid in
  let key =
    Printf.sprintf "%s|%h|%h|%d" table.Iv_table.key s.s_vdd s.s_vt spec.stages
  in
  match Mutex.protect metrics_mutex (fun () -> Hashtbl.find_opt metrics_cache key) with
  | Some m -> m
  | None ->
    let pair = Explore.pair_at table ~vt:s.s_vt in
    let im = Metrics.inverter_metrics ~pair ~vdd:s.s_vdd () in
    let m =
      {
        delay = im.Metrics.tp;
        edp = Metrics.edp im ~stages:spec.stages;
        snm = im.Metrics.snm;
      }
    in
    Mutex.protect metrics_mutex (fun () ->
        Hashtbl.replace metrics_cache key m);
    m

let quarantine_reason = function
  | Robust_error.Error e -> Robust_error.to_string e
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type report = {
  r_spec : spec;
  r_total : int;
  r_completed : int;
  r_quarantined : (int * string) list;  (* (index, reason), ascending *)
  r_delay : Stream_stats.snapshot;
  r_edp : Stream_stats.snapshot;
  r_snm : Stream_stats.snapshot;
}

let report_to_json r =
  Sjson.Obj
    [
      ("schema", Sjson.Str "gnrfet-campaign-v1");
      ("spec", spec_to_json r.r_spec);
      ("spec_hash", Sjson.Str (Printf.sprintf "%08x" (spec_hash r.r_spec)));
      ("total", Sjson.Num (float_of_int r.r_total));
      ("completed", Sjson.Num (float_of_int r.r_completed));
      ( "quarantined",
        Sjson.List
          (List.map
             (fun (index, reason) ->
               Sjson.Obj
                 [
                   ("index", Sjson.Num (float_of_int index));
                   ("reason", Sjson.Str reason);
                 ])
             r.r_quarantined) );
      ( "metrics",
        Sjson.Obj
          [
            ("delay", Stream_stats.snapshot_to_json r.r_delay);
            ("edp", Stream_stats.snapshot_to_json r.r_edp);
            ("snm", Stream_stats.snapshot_to_json r.r_snm);
          ] );
    ]

let write_report ~path r =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc (Sjson.to_string (report_to_json r));
     output_char oc '\n'
   with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    raise e);
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

type run_outcome = {
  report : report;
  resumed : int;  (* samples restored from the journal, not re-evaluated *)
  evaluated : int;  (* samples evaluated by this process *)
  torn : Robust_error.torn_reason option;
  duplicates : int;
}

type accum = {
  a_delay : Stream_stats.t;
  a_edp : Stream_stats.t;
  a_snm : Stream_stats.t;
  mutable a_completed : int;
  mutable a_quarantined : (int * string) list;  (* descending, reversed later *)
}

let feed acc (e : Journal.entry) =
  match e with
  | Journal.Done { delay; edp; snm; _ } ->
    Stream_stats.add acc.a_delay delay;
    Stream_stats.add acc.a_edp edp;
    Stream_stats.add acc.a_snm snm;
    acc.a_completed <- acc.a_completed + 1
  | Journal.Quarantined { index; reason } ->
    acc.a_quarantined <- (index, reason) :: acc.a_quarantined

let c_samples = Obs.Counter.make "campaign.samples"
let c_quarantined = Obs.Counter.make "campaign.quarantined"
let c_replayed = Obs.Counter.make "campaign.replayed"
let c_records = Obs.Counter.make "campaign.journal.records"
let c_duplicates = Obs.Counter.make "campaign.journal.duplicates"
let t_checkpoint = Obs.Timer.make "campaign.checkpoint"

let run_with ?journal ?(resume = false) ?(checkpoint_every = 1) ?kill_after
    ~evaluate spec =
  (match validate spec with
  | Ok _ -> ()
  | Error msg -> invalid_arg msg);
  let hash = spec_hash spec in
  let acc =
    {
      a_delay = Stream_stats.create ();
      a_edp = Stream_stats.create ();
      a_snm = Stream_stats.create ();
      a_completed = 0;
      a_quarantined = [];
    }
  in
  (* Open (or create) the journal, replaying the valid prefix of an
     existing one into the accumulators. *)
  let start, writer, torn, duplicates =
    match journal with
    | None ->
      if resume then invalid_arg "campaign: resume requires a journal path";
      (0, None, None, 0)
    | Some path ->
      if resume then begin
        let r = Journal.replay ~path ~expect_hash:hash () in
        List.iter (feed acc) r.Journal.entries;
        Obs.Counter.add c_replayed r.Journal.next;
        Obs.Counter.add c_duplicates r.Journal.duplicates;
        (match r.Journal.torn with
        | Some reason ->
          Obs.Counter.incr
            (Obs.Counter.make
               ("campaign.journal.torn." ^ Robust_error.torn_label reason))
        | None -> ());
        let w = Journal.open_append ~path ~good_bytes:r.Journal.good_bytes in
        (r.Journal.next, Some w, r.Journal.torn, r.Journal.duplicates)
      end
      else (0, Some (Journal.create ~path ~spec_hash:hash), None, 0)
  in
  let evaluated = ref 0 in
  let unsynced = ref 0 in
  let checkpoint ~force w =
    if !unsynced > 0 && (force || !unsynced >= checkpoint_every) then begin
      let t0 = Obs.Timer.start t_checkpoint in
      Journal.sync w;
      Obs.Timer.stop t_checkpoint t0;
      unsynced := 0;
      (* Deterministic chaos hook (CI): die by SIGKILL exactly at a
         checkpoint boundary after [kill_after] records, so the torn
         state the resume leg sees is seeded, not racy. *)
      match kill_after with
      | Some n when !evaluated >= n -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close writer)
    (fun () ->
      for i = start to spec.samples - 1 do
        let s = sample_at spec i in
        let entry =
          match evaluate s with
          | m ->
            Journal.Done
              { index = i; delay = m.delay; edp = m.edp; snm = m.snm }
          | exception e when Montecarlo.quarantineable e ->
            Obs.Counter.incr c_quarantined;
            Journal.Quarantined { index = i; reason = quarantine_reason e }
        in
        feed acc entry;
        Obs.Counter.incr c_samples;
        incr evaluated;
        match writer with
        | Some w ->
          Journal.append w entry;
          Obs.Counter.incr c_records;
          incr unsynced;
          checkpoint ~force:(i = spec.samples - 1) w
        | None -> ()
      done);
  let report =
    {
      r_spec = spec;
      r_total = spec.samples;
      r_completed = acc.a_completed;
      r_quarantined = List.rev acc.a_quarantined;
      r_delay = Stream_stats.snapshot acc.a_delay;
      r_edp = Stream_stats.snapshot acc.a_edp;
      r_snm = Stream_stats.snapshot acc.a_snm;
    }
  in
  { report; resumed = start; evaluated = !evaluated; torn; duplicates }

let run ?(executor = fun p grid -> Table_cache.get ?grid p) ?journal ?resume
    ?checkpoint_every ?kill_after spec =
  run_with ?journal ?resume ?checkpoint_every ?kill_after
    ~evaluate:(evaluate_sample executor spec) spec

(* ------------------------------------------------------------------ *)
(* Status                                                              *)

type status = {
  st_spec_hash : int;
  st_recorded : int;
  st_completed : int;
  st_quarantined : int;
  st_duplicates : int;
  st_torn : Robust_error.torn_reason option;
  st_total : int option;
}

let status ~journal ?spec () =
  let expect_hash = Option.map spec_hash spec in
  let r = Journal.replay ~path:journal ?expect_hash () in
  let completed =
    List.fold_left
      (fun n e -> match e with Journal.Done _ -> n + 1 | _ -> n)
      0 r.Journal.entries
  in
  {
    st_spec_hash = Journal.spec_hash_of_file ~path:journal;
    st_recorded = r.Journal.next;
    st_completed = completed;
    st_quarantined = r.Journal.next - completed;
    st_duplicates = r.Journal.duplicates;
    st_torn = r.Journal.torn;
    st_total = Option.map (fun s -> s.samples) spec;
  }
