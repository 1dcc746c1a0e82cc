(* PR 9 tentpole: the resumable campaign engine — spec codec and
   deterministic sample expansion, the CRC-32C checkpoint journal with
   its seeded corruption matrix (truncated tail, flipped byte,
   duplicate record, spliced-out record, damaged header, stale spec
   hash), crash-resume bit-identity with no-double-count obs
   accounting, and the hardened serve client's retry policy against a
   scripted stub daemon (docs/CAMPAIGN.md). *)

open Support

(* --- helpers --------------------------------------------------------- *)

let with_tmp suffix f =
  let path = Filename.temp_file "gnrfet_campaign" suffix in
  Fun.protect
    ~finally:(fun () ->
      match Sys.remove path with () -> () | exception Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let spec : Campaign.spec =
  {
    name = "unit";
    samples = 12;
    seed = 7;
    stages = 15;
    widths = [ 9; 12; 15 ];
    charges = [ 0.; -1. ];
    gammas = [ 0.5; 1. ];
    ops = [ (0.4, 0.13); (0.5, 0.1) ];
    grid = None;
  }

(* A cheap deterministic evaluator with non-trivial float bits, so
   bit-identity checks below actually exercise the journal's exact
   float64 round-trip. *)
let fake (s : Campaign.sample) =
  let i = float_of_int (s.s_index + 1) in
  {
    Campaign.delay = 1e-12 *. (1. +. (i /. 3.));
    edp = 1e-27 *. i *. i /. 7.;
    snm = 0.05 +. (0.001 *. i);
  }

let flaky_reason =
  Robust_error.to_string
    (Robust_error.Unrecovered { stage = "test"; attempts = 2; detail = "synthetic" })

(* Like [fake], but samples 3 and 8 fail with a typed solver error and
   must end up quarantined, journaled, and replayed verbatim. *)
let flaky (s : Campaign.sample) =
  if s.s_index mod 5 = 3 then
    Robust_error.raise_
      (Robust_error.Unrecovered { stage = "test"; attempts = 2; detail = "synthetic" })
  else fake s

let report_str (o : Campaign.run_outcome) =
  Sjson.to_string (Campaign.report_to_json o.Campaign.report)

let counter obs name = Obs.counter_value ~obs name

(* --- spec codec ------------------------------------------------------ *)

let test_spec_codec () =
  (match Campaign.spec_of_json (Campaign.spec_to_json spec) with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (s = spec)
  | Error e -> Alcotest.failf "roundtrip rejected: %s" e);
  let parse s =
    match Sjson.parse s with
    | Ok j -> Campaign.spec_of_json j
    | Error e -> Alcotest.failf "json parse %S: %s" s e
  in
  (match parse {|{"name":"x","samples":4,"ops":[[0.4,0.13]]}|} with
  | Ok s ->
    Alcotest.(check int) "default seed" 1 s.Campaign.seed;
    Alcotest.(check int) "default stages" 15 s.Campaign.stages;
    Alcotest.(check bool) "default widths" true (s.Campaign.widths = [ 12 ])
  | Error e -> Alcotest.failf "minimal spec rejected: %s" e);
  List.iter
    (fun (label, src) ->
      match parse src with
      | Ok _ -> Alcotest.failf "%s: accepted" label
      | Error _ -> ())
    [
      ("unknown field", {|{"name":"x","samples":4,"ops":[[0.4,0.13]],"bogus":1}|});
      ("missing ops", {|{"name":"x","samples":4}|});
      ("zero samples", {|{"name":"x","samples":0,"ops":[[0.4,0.13]]}|});
      ("malformed op pair", {|{"name":"x","samples":4,"ops":[[0.4]]}|});
      ( "fractional widths",
        {|{"name":"x","samples":4,"ops":[[0.4,0.13]],"widths":[12.5,9.9]}|} );
      ("not an object", {|[1,2]|});
    ]

let test_spec_hash () =
  Alcotest.(check int) "stable" (Campaign.spec_hash spec) (Campaign.spec_hash spec);
  Alcotest.(check bool) "seed changes hash" true
    (Campaign.spec_hash spec <> Campaign.spec_hash { spec with Campaign.seed = 8 });
  Alcotest.(check bool) "name changes hash" true
    (Campaign.spec_hash spec <> Campaign.spec_hash { spec with Campaign.name = "y" })

let test_sample_expansion () =
  for i = 0 to spec.Campaign.samples - 1 do
    let a = Campaign.sample_at spec i and b = Campaign.sample_at spec i in
    Alcotest.(check bool) "pure" true (a = b);
    Alcotest.(check int) "index" i a.Campaign.s_index;
    Alcotest.(check bool) "width on axis" true
      (List.mem a.Campaign.s_width spec.Campaign.widths);
    Alcotest.(check bool) "charge on axis" true
      (List.mem a.Campaign.s_charge spec.Campaign.charges);
    Alcotest.(check bool) "gamma on axis" true
      (List.mem a.Campaign.s_gamma spec.Campaign.gammas);
    Alcotest.(check bool) "op on axis" true
      (List.mem (a.Campaign.s_vdd, a.Campaign.s_vt) spec.Campaign.ops)
  done;
  (* Over enough draws every axis value must appear: the expansion
     explores the axes, it does not collapse onto one corner. *)
  let seen = Hashtbl.create 16 in
  for i = 0 to 63 do
    let s = Campaign.sample_at spec i in
    Hashtbl.replace seen (`W s.Campaign.s_width) ();
    Hashtbl.replace seen (`C s.Campaign.s_charge) ();
    Hashtbl.replace seen (`G s.Campaign.s_gamma) ();
    Hashtbl.replace seen (`O (s.Campaign.s_vdd, s.Campaign.s_vt)) ()
  done;
  let n_axis =
    List.length spec.Campaign.widths
    + List.length spec.Campaign.charges
    + List.length spec.Campaign.gammas
    + List.length spec.Campaign.ops
  in
  Alcotest.(check int) "all axis values drawn" n_axis (Hashtbl.length seen)

(* --- stream stats ---------------------------------------------------- *)

let test_stream_stats () =
  let t = Stream_stats.create () in
  List.iter (Stream_stats.add t) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stream_stats.count t);
  approx ~eps:1e-12 "mean" 5. (Stream_stats.mean t);
  approx ~eps:1e-12 "min" 2. (Stream_stats.min_value t);
  approx ~eps:1e-12 "max" 9. (Stream_stats.max_value t);
  approx_rel ~rel:1e-12 "stddev" (sqrt (32. /. 7.)) (Stream_stats.stddev t);
  (* Percentiles are binade-interpolated estimates: demand the
     documented <= ~6-7% relative error on a wide distribution. *)
  let u = Stream_stats.create () in
  for i = 1 to 1000 do
    Stream_stats.add u (float_of_int i)
  done;
  List.iter
    (fun (p, expect) ->
      let got = Stream_stats.percentile u p in
      Alcotest.(check bool)
        (Printf.sprintf "p%g = %g within 7%% of %g" p got expect)
        true
        (Float.abs (got -. expect) /. expect < 0.07))
    [ (50., 500.); (90., 900.); (99., 990.) ];
  (* Identical value sequences must reach identical snapshots — the
     property resume leans on. *)
  let a = Stream_stats.create () and b = Stream_stats.create () in
  for i = 0 to 99 do
    let v = ldexp (float_of_int ((i * 37 mod 101) - 50)) (i mod 13) in
    Stream_stats.add a v;
    Stream_stats.add b v
  done;
  Alcotest.(check bool) "snapshot deterministic" true
    (Stream_stats.snapshot a = Stream_stats.snapshot b);
  let n = Stream_stats.create () in
  Stream_stats.add n Float.nan;
  approx ~eps:0. "NaN maps to 0" 0. (Stream_stats.mean n)

(* --- journal: roundtrip and the corruption matrix -------------------- *)

let sample_entries n =
  List.init n (fun i ->
      if i mod 4 = 3 then
        Journal.Quarantined { index = i; reason = Printf.sprintf "reason-%d" i }
      else
        Journal.Done
          {
            index = i;
            delay = 1e-12 *. float_of_int (i + 1);
            edp = 1e-27 /. float_of_int (i + 1);
            snm = 0.05 +. (0.001 *. float_of_int i);
          })

let write_journal path entries =
  let w = Journal.create ~path ~spec_hash:0x1234_5678 in
  List.iter (Journal.append w) entries;
  Journal.sync w;
  Journal.close w

let test_journal_roundtrip () =
  with_tmp ".j" @@ fun path ->
  let entries = sample_entries 9 in
  write_journal path entries;
  let r = Journal.replay ~path ~expect_hash:0x1234_5678 () in
  Alcotest.(check bool) "entries bit-identical" true (r.Journal.entries = entries);
  Alcotest.(check int) "next" 9 r.Journal.next;
  Alcotest.(check int) "duplicates" 0 r.Journal.duplicates;
  Alcotest.(check bool) "not torn" true (r.Journal.torn = None);
  Alcotest.(check int) "good_bytes = file size" (String.length (read_file path))
    r.Journal.good_bytes;
  Alcotest.(check int) "stored hash" 0x1234_5678 (Journal.spec_hash_of_file ~path)

(* The annotated dump in docs/CAMPAIGN.md is a real journal of CI's
   chaos spec (sample 0 done, sample 1 quarantined by an injected
   fault).  Writing the same two records must reproduce it byte for
   byte, which pins the journal layout, the spec hash and CRC-32C. *)
let ci_chaos_spec =
  {|{"name": "ci-chaos", "samples": 8, "seed": 42, "widths": [12],
     "charges": [0, -1], "gammas": [1], "ops": [[0.4, 0.13]],
     "grid": {"vg_min": 0, "vg_max": 0.45, "n_vg": 7, "vd_max": 0.45,
              "n_vd": 4}}|}

let of_hex h =
  let h = String.concat "" (String.split_on_char ' ' h) in
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let test_journal_format_pin () =
  let spec =
    match Result.bind (Sjson.parse ci_chaos_spec) Campaign.spec_of_json with
    | Ok s -> s
    | Error e -> Alcotest.failf "CI chaos spec rejected: %s" e
  in
  Alcotest.(check int) "spec hash" 0xee526a19 (Campaign.spec_hash spec);
  let reason = "injected fault at site campaign.sample (hit 2)" in
  let expected =
    of_hex "474e5243414d5001 196a52ee 70bd7cf7"
    ^ of_hex
        "1d000000 0426c3bf 00000000 00 74e5786bf74ab33d 93c9b4954dcbcc3a \
         3455e2121dd8b63f"
    ^ of_hex "33000000 1dea033f 01000000 01"
    ^ reason
  in
  Alcotest.(check int) "dump length" 112 (String.length expected);
  with_tmp ".j" @@ fun path ->
  let w = Journal.create ~path ~spec_hash:0xee526a19 in
  let f64 = Int64.float_of_bits in
  Journal.append w
    (Journal.Done
       {
         index = 0;
         delay = f64 0x3db34af76b78e574L;
         edp = f64 0x3acccb4d95b4c993L;
         snm = f64 0x3fb6d81d12e25534L;
       });
  Journal.append w (Journal.Quarantined { index = 1; reason });
  Journal.sync w;
  Journal.close w;
  let got = read_file path in
  Alcotest.(check string) "CAMPAIGN.md dump" (to_hex expected) (to_hex got);
  List.iter
    (fun (label, crc, pos, len) ->
      Alcotest.(check int) label crc (Crc32.string got ~pos ~len))
    [
      ("header CRC", 0xf77cbd70, 0, 12);
      ("record 0 CRC", 0xbfc32604, 24, 29);
      ("record 1 CRC", 0x3f03ea1d, 61, 51);
    ]

(* Fixed-size frames for offset arithmetic: a Done payload is
   4 (index) + 1 (status) + 24 (three f64s) = 29 bytes, so each frame
   is 8 + 29 = 37 bytes after the 16-byte header. *)
let frame = 37

let header = 16

let done_journal path n =
  write_journal path
    (List.init n (fun i ->
         Journal.Done
           {
             index = i;
             delay = float_of_int i *. 3.5e-12;
             edp = float_of_int (i + 2) *. 1e-27;
             snm = 0.04 +. (0.002 *. float_of_int i);
           }));
  let src = read_file path in
  Alcotest.(check int) "fixed frame arithmetic" (header + (n * frame))
    (String.length src);
  src

let test_journal_truncated_tail () =
  with_tmp ".j" @@ fun path ->
  let src = done_journal path 8 in
  with_tmp ".cut" @@ fun cut ->
  (* Mid-record cut: frame 5's length field survives but its payload
     does not. *)
  write_file cut (String.sub src 0 (header + (5 * frame) + 13));
  let r = Journal.replay ~path:cut () in
  Alcotest.(check int) "prefix" 5 r.Journal.next;
  (match r.Journal.torn with
  | Some (Robust_error.Torn_truncated { offset }) ->
    Alcotest.(check int) "offset = frame start" (header + (5 * frame)) offset
  | other ->
    Alcotest.failf "expected Torn_truncated, got %s"
      (match other with
      | None -> "no tear"
      | Some reason -> Robust_error.torn_reason_to_string reason));
  Alcotest.(check int) "good_bytes stops at tear" (header + (5 * frame))
    r.Journal.good_bytes

let test_journal_crc_flip () =
  with_tmp ".j" @@ fun path ->
  let src = done_journal path 8 in
  with_tmp ".flip" @@ fun flip ->
  let b = Bytes.of_string src in
  let off = header + (3 * frame) + 8 + 11 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  write_file flip (Bytes.to_string b);
  let r = Journal.replay ~path:flip () in
  Alcotest.(check int) "prefix" 3 r.Journal.next;
  (match r.Journal.torn with
  | Some (Robust_error.Torn_crc { record; offset }) ->
    Alcotest.(check int) "record" 3 record;
    Alcotest.(check int) "offset" (header + (3 * frame)) offset
  | _ -> Alcotest.fail "expected Torn_crc")

let test_journal_duplicate_record () =
  with_tmp ".j" @@ fun path ->
  let src = done_journal path 8 in
  with_tmp ".dup" @@ fun dup ->
  let cut = header + (4 * frame) in
  write_file dup
    (String.sub src 0 cut
    ^ String.sub src (cut - frame) frame
    ^ String.sub src cut (String.length src - cut));
  let r = Journal.replay ~path:dup () in
  Alcotest.(check int) "all samples once" 8 r.Journal.next;
  Alcotest.(check int) "duplicate counted" 1 r.Journal.duplicates;
  Alcotest.(check bool) "not torn" true (r.Journal.torn = None);
  Alcotest.(check bool) "indices still contiguous" true
    (List.mapi (fun i e -> Journal.entry_index e = i) r.Journal.entries
    |> List.for_all Fun.id)

let test_journal_out_of_order () =
  with_tmp ".j" @@ fun path ->
  let src = done_journal path 8 in
  with_tmp ".gap" @@ fun gap ->
  (* Splice record 4 out entirely: record 5 then claims index 5 where 4
     is expected — resuming past the gap would mislabel samples. *)
  let cut = header + (4 * frame) in
  write_file gap
    (String.sub src 0 cut
    ^ String.sub src (cut + frame) (String.length src - cut - frame));
  let r = Journal.replay ~path:gap () in
  Alcotest.(check int) "prefix" 4 r.Journal.next;
  (match r.Journal.torn with
  | Some (Robust_error.Torn_out_of_order { expected; found; _ }) ->
    Alcotest.(check int) "expected" 4 expected;
    Alcotest.(check int) "found" 5 found
  | _ -> Alcotest.fail "expected Torn_out_of_order")

let test_journal_header_damage () =
  with_tmp ".j" @@ fun path ->
  let src = done_journal path 4 in
  let expect_fatal label bytes ?expect_hash want =
    with_tmp ".hdr" @@ fun p ->
    write_file p bytes;
    match Journal.replay ~path:p ?expect_hash () with
    | (_ : Journal.replay) -> Alcotest.failf "%s: replay accepted" label
    | exception
        Robust_error.Error (Robust_error.Checkpoint_torn { reason; _ }) ->
      Alcotest.(check string) label want (Robust_error.torn_label reason)
    | exception e ->
      Alcotest.failf "%s: untyped exception %s" label (Printexc.to_string e)
  in
  (* Every header byte matters: magic, stored hash and header CRC flips
     all refuse with a typed fatal reason, never a decode crash. *)
  List.iter
    (fun off ->
      let b = Bytes.of_string src in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
      expect_fatal
        (Printf.sprintf "header flip @%d" off)
        (Bytes.to_string b) "bad_header")
    [ 0; 7; 9; 13 ];
  expect_fatal "short file" (String.sub src 0 11) "bad_header";
  expect_fatal "stale spec hash" src ~expect_hash:0x1234_5679 "spec_mismatch";
  (* The matching hash (and a status probe, which never needs the spec)
     still read the same bytes fine. *)
  let r = Journal.replay ~path ~expect_hash:0x1234_5678 () in
  Alcotest.(check int) "matching hash replays" 4 r.Journal.next

let test_journal_fuzz () =
  with_tmp ".j" @@ fun path ->
  let n = 8 in
  let src = done_journal path n in
  let size = String.length src in
  let rng = ref 0xC0FFEEL in
  let rand m =
    rng := Fault.splitmix64 !rng;
    Int64.to_int (Int64.rem (Int64.shift_right_logical !rng 1) (Int64.of_int m))
  in
  with_tmp ".mut" @@ fun mut ->
  for _iter = 1 to 150 do
    let mutated =
      match rand 4 with
      | 0 ->
        (* random truncation somewhere past the header *)
        String.sub src 0 (header + 1 + rand (size - header - 1))
      | 1 ->
        (* random body byte flip *)
        let b = Bytes.of_string src in
        let off = header + rand (size - header) in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 + rand 255)));
        Bytes.to_string b
      | 2 ->
        (* duplicate a random frame in place *)
        let k = rand n in
        let cut = header + ((k + 1) * frame) in
        String.sub src 0 cut
        ^ String.sub src (cut - frame) frame
        ^ String.sub src cut (size - cut)
      | _ ->
        (* splice a random frame out *)
        let k = rand n in
        let cut = header + (k * frame) in
        String.sub src 0 cut ^ String.sub src (cut + frame) (size - cut - frame)
    in
    write_file mut mutated;
    (* The invariant under any body damage: a typed outcome, a
       contiguous prefix, and no entry ever surfacing twice. *)
    match Journal.replay ~path:mut () with
    | r ->
      Alcotest.(check int) "next = |entries|" (List.length r.Journal.entries)
        r.Journal.next;
      Alcotest.(check bool) "prefix indices contiguous" true
        (List.mapi (fun i e -> Journal.entry_index e = i) r.Journal.entries
        |> List.for_all Fun.id);
      Alcotest.(check bool) "bounded" true (r.Journal.next <= n);
      Alcotest.(check bool) "good_bytes sane" true
        (r.Journal.good_bytes >= header
        && r.Journal.good_bytes <= String.length mutated)
    | exception Robust_error.Error (Robust_error.Checkpoint_torn _) ->
      (* only reachable when the flip landed in the header *)
      ()
    | exception e ->
      Alcotest.failf "untyped exception from fuzzed journal: %s"
        (Printexc.to_string e)
  done

(* --- engine: run, crash-resume bit-identity, accounting -------------- *)

let test_run_without_journal () =
  let obs = Obs.create ~enabled:true () in
  let o = Campaign.run_with ~obs ~evaluate:fake spec in
  Alcotest.(check int) "total" 12 o.Campaign.report.Campaign.r_total;
  Alcotest.(check int) "completed" 12 o.Campaign.report.Campaign.r_completed;
  Alcotest.(check int) "evaluated" 12 o.Campaign.evaluated;
  Alcotest.(check int) "resumed" 0 o.Campaign.resumed;
  Alcotest.(check int) "samples counter" 12 (counter obs "campaign.samples");
  Alcotest.(check int) "no journal records" 0
    (counter obs "campaign.journal.records");
  Alcotest.(check int) "snapshot count" 12
    o.Campaign.report.Campaign.r_delay.Stream_stats.s_count

let test_resume_bit_identity () =
  with_tmp ".j" @@ fun j1 ->
  with_tmp ".j" @@ fun j2 ->
  let uninterrupted =
    Campaign.run_with ~obs:(Obs.create ~enabled:true ()) ~journal:j1
      ~evaluate:fake spec
  in
  let golden = report_str uninterrupted in
  Alcotest.(check int) "journal size" (header + (12 * frame))
    (String.length (read_file j1));
  (* Crash simulation: a full journal cut mid-record 5, as if the
     process died between a write and its fsync. *)
  let (_ : Campaign.run_outcome) =
    Campaign.run_with ~journal:j2 ~evaluate:fake spec
  in
  let src = read_file j2 in
  write_file j2 (String.sub src 0 (header + (5 * frame) + 13));
  let obs = Obs.create ~enabled:true () in
  let resumed =
    Campaign.run_with ~obs ~journal:j2 ~resume:true ~evaluate:fake spec
  in
  Alcotest.(check int) "resumed" 5 resumed.Campaign.resumed;
  Alcotest.(check int) "re-evaluated" 7 resumed.Campaign.evaluated;
  (match resumed.Campaign.torn with
  | Some (Robust_error.Torn_truncated _) -> ()
  | _ -> Alcotest.fail "expected a truncated tear");
  Alcotest.(check string) "report bit-identical to uninterrupted run" golden
    (report_str resumed);
  (* No sample is ever double-counted: replayed + evaluated covers the
     spec exactly once, visibly in the obs registry. *)
  Alcotest.(check int) "replayed counter" 5 (counter obs "campaign.replayed");
  Alcotest.(check int) "samples counter" 7 (counter obs "campaign.samples");
  Alcotest.(check int) "records appended" 7
    (counter obs "campaign.journal.records");
  Alcotest.(check int) "duplicates" 0 (counter obs "campaign.journal.duplicates");
  Alcotest.(check int) "tear counted" 1
    (counter obs "campaign.journal.torn.truncated");
  (* The resumed journal healed: full replay, no tear, and resuming a
     complete journal re-evaluates nothing yet reports identically. *)
  let r = Journal.replay ~path:j2 ~expect_hash:(Campaign.spec_hash spec) () in
  Alcotest.(check int) "healed journal" 12 r.Journal.next;
  Alcotest.(check bool) "healed tail" true (r.Journal.torn = None);
  let again =
    Campaign.run_with ~journal:j2 ~resume:true ~evaluate:fake spec
  in
  Alcotest.(check int) "nothing left" 0 again.Campaign.evaluated;
  Alcotest.(check string) "idempotent resume" golden (report_str again)

let test_resume_with_quarantine () =
  with_tmp ".j" @@ fun j1 ->
  with_tmp ".j" @@ fun j2 ->
  let obs1 = Obs.create ~enabled:true () in
  let uninterrupted =
    Campaign.run_with ~obs:obs1 ~journal:j1 ~evaluate:flaky spec
  in
  Alcotest.(check int) "completed" 10 uninterrupted.Campaign.report.Campaign.r_completed;
  Alcotest.(check bool) "quarantine reasons journaled" true
    (uninterrupted.Campaign.report.Campaign.r_quarantined
    = [ (3, flaky_reason); (8, flaky_reason) ]);
  Alcotest.(check int) "quarantined counter" 2
    (counter obs1 "campaign.quarantined");
  (* Quarantined frames are variable-length, so damage the tail without
     offset arithmetic: chop the last 10 bytes. *)
  let (_ : Campaign.run_outcome) =
    Campaign.run_with ~journal:j2 ~evaluate:flaky spec
  in
  let src = read_file j2 in
  write_file j2 (String.sub src 0 (String.length src - 10));
  let resumed =
    Campaign.run_with ~journal:j2 ~resume:true ~evaluate:flaky spec
  in
  Alcotest.(check int) "one sample re-evaluated" 1 resumed.Campaign.evaluated;
  Alcotest.(check string) "quarantines replay bit-identically"
    (report_str uninterrupted) (report_str resumed)

let test_abort_keeps_synced_prefix () =
  with_tmp ".j" @@ fun path ->
  (* Not_found is outside the quarantine predicate: the run must abort,
     but the journal keeps the synced prefix for a later resume. *)
  let boom (s : Campaign.sample) =
    if s.Campaign.s_index = 4 then raise Not_found else fake s
  in
  (match Campaign.run_with ~journal:path ~evaluate:boom spec with
  | (_ : Campaign.run_outcome) -> Alcotest.fail "expected the run to abort"
  | exception Not_found -> ());
  let r = Journal.replay ~path () in
  Alcotest.(check int) "synced prefix survives" 4 r.Journal.next;
  let resumed =
    Campaign.run_with ~journal:path ~resume:true ~evaluate:fake spec
  in
  Alcotest.(check int) "resume picks up after abort" 8 resumed.Campaign.evaluated

let test_checkpoint_cadence_and_status () =
  with_tmp ".j" @@ fun path ->
  let obs = Obs.create ~enabled:true () in
  let o =
    Campaign.run_with ~obs ~journal:path ~checkpoint_every:5 ~evaluate:flaky
      spec
  in
  (* The final record forces a sync regardless of cadence, so the file
     is complete. *)
  let r = Journal.replay ~path () in
  Alcotest.(check int) "all records present" 12 r.Journal.next;
  Alcotest.(check int) "samples counted once" 12 (counter obs "campaign.samples");
  let st = Campaign.status ~journal:path ~spec () in
  Alcotest.(check int) "recorded" 12 st.Campaign.st_recorded;
  Alcotest.(check int) "completed" 10 st.Campaign.st_completed;
  Alcotest.(check int) "quarantined" 2 st.Campaign.st_quarantined;
  Alcotest.(check bool) "total" true (st.Campaign.st_total = Some 12);
  Alcotest.(check int) "hash surfaced" (Campaign.spec_hash spec)
    st.Campaign.st_spec_hash;
  Alcotest.(check int) "outcome total" 12 o.Campaign.report.Campaign.r_total;
  (* Another spec's status probe refuses the journal fatally. *)
  match Campaign.status ~journal:path ~spec:{ spec with Campaign.seed = 8 } () with
  | (_ : Campaign.status) -> Alcotest.fail "stale spec accepted"
  | exception
      Robust_error.Error
        (Robust_error.Checkpoint_torn
           { reason = Robust_error.Torn_spec_mismatch _; _ }) ->
    ()

let test_run_quarantines_injected_fault () =
  (* with_spec swaps out any ambient campaign, so this is exact even
     under the CI fault legs. *)
  let table = synthetic_table () in
  let small =
    {
      spec with
      Campaign.samples = 3;
      widths = [ 12 ];
      charges = [ 0. ];
      gammas = [ 1. ];
      ops = [ (0.4, 0.13) ];
    }
  in
  let o =
    Fault.with_spec "campaign.sample#2" (fun () ->
        Campaign.run ~executor:(fun _ _ -> table) small)
  in
  Alcotest.(check int) "completed" 2 o.Campaign.report.Campaign.r_completed;
  Alcotest.(check bool) "hit 2 quarantined" true
    (o.Campaign.report.Campaign.r_quarantined
    = [ (1, "injected fault at site campaign.sample (hit 2)") ]);
  Alcotest.(check bool) "metrics flow from the table" true
    (o.Campaign.report.Campaign.r_delay.Stream_stats.s_min > 0.)

(* --- hardened serve client vs a scripted stub daemon ----------------- *)

type stub_reply =
  | Busy of int option
  | Pong
  | Silent
  | Close_conn
  | Pieces of string list  (* raw bytes, one write each, 5 ms apart *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "gnrfet-camp-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* One scripted connection per element of [scripts]: each incoming
   request line consumes the next reply of that connection's script;
   the connection closes when its script runs out. *)
let with_stub scripts f =
  let path = fresh_sock () in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 8;
  let serve_conn fd script =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rec go script =
      match script with
      | [] -> ()
      | action :: rest -> (
        match input_line ic with
        | exception (End_of_file | Sys_error _) -> ()
        | _line -> (
          match action with
          | Busy hint ->
            output_string oc
              (Serve_protocol.error_line ~id:None
                 {
                   Serve_protocol.kind = "busy";
                   detail = "queue full";
                   retry_after_ms = hint;
                 });
            output_char oc '\n';
            flush oc;
            go rest
          | Pong ->
            output_string oc
              (Serve_protocol.ok_line ~id:None (Sjson.Str "pong"));
            output_char oc '\n';
            flush oc;
            go rest
          | Silent ->
            (* swallow the request; keep reading until the client gives
               up and closes (EOF above ends the connection) *)
            go script
          | Pieces pieces ->
            List.iteri
              (fun i piece ->
                if i > 0 then Thread.delay 0.005;
                let rec write pos =
                  if pos < String.length piece then
                    write
                      (pos
                      + Unix.write_substring fd piece pos
                          (String.length piece - pos))
                in
                write 0)
              pieces;
            go rest
          | Close_conn -> ()))
    in
    go script;
    match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ()
  in
  let th =
    Thread.create
      (fun () ->
        List.iter
          (fun script ->
            match Unix.accept listen with
            | fd, _ -> serve_conn fd script
            | exception Unix.Unix_error _ -> ())
          scripts)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* If the test body bailed before dialing every scripted
         connection, feed the acceptor dummies so the join can't hang. *)
      List.iter
        (fun _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          match Unix.close fd with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        scripts;
      Thread.join th;
      (match Unix.close listen with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      match Sys.remove path with () -> () | exception Sys_error _ -> ())
    (fun () -> f path)

let ping = { Serve_protocol.id = None; op = Serve_protocol.Ping }

let recording_config ?(max_attempts = 4) ?(timeout = 5.) sleeps =
  {
    Serve_client.default_config with
    Serve_client.request_timeout_s = timeout;
    max_attempts;
    jitter_seed = 9;
    sleep_ms = (fun ms -> sleeps := ms :: !sleeps);
  }

let test_client_honors_retry_hint () =
  let sleeps = ref [] in
  with_stub [ [ Busy (Some 17); Busy (Some 17); Pong ] ] (fun path ->
      let t =
        Serve_client.connect ~config:(recording_config sleeps) ~path ()
      in
      Fun.protect
        ~finally:(fun () -> Serve_client.close t)
        (fun () ->
          match Serve_client.call t ping with
          | { Serve_protocol.result = Ok _; _ } -> ()
          | _ -> Alcotest.fail "expected the third attempt to succeed"));
  let sleeps = List.rev !sleeps in
  Alcotest.(check int) "two backoffs" 2 (List.length sleeps);
  (* retry_after_ms = 17 plus deterministic jitter in [0, 17/4). *)
  List.iter
    (fun ms ->
      Alcotest.(check bool)
        (Printf.sprintf "sleep %dms honors the 17ms hint" ms)
        true
        (ms >= 17 && ms < 17 + 4))
    sleeps

let test_client_busy_exhaustion () =
  let sleeps = ref [] in
  with_stub
    [ [ Busy None; Busy None ] ]
    (fun path ->
      let t =
        Serve_client.connect
          ~config:(recording_config ~max_attempts:2 sleeps)
          ~path ()
      in
      Fun.protect
        ~finally:(fun () -> Serve_client.close t)
        (fun () ->
          (* A daemon busy through the whole budget is returned, not
             raised: the caller (the campaign executor) decides. *)
          match Serve_client.call t ping with
          | { Serve_protocol.result = Error { Serve_protocol.kind = "busy"; _ }; _ }
            ->
            ()
          | _ -> Alcotest.fail "expected the final busy response back"));
  match List.rev !sleeps with
  | [ ms ] ->
    (* no hint: exponential backoff base 50ms, jitter in [0, 50/4) *)
    Alcotest.(check bool)
      (Printf.sprintf "backoff %dms in [50, 62)" ms)
      true
      (ms >= 50 && ms < 62)
  | l -> Alcotest.failf "expected exactly one backoff, got %d" (List.length l)

let test_client_reconnects_after_eof () =
  let sleeps = ref [] in
  with_stub
    [ [ Pong; Close_conn ]; [ Pong ] ]
    (fun path ->
      let t =
        Serve_client.connect ~config:(recording_config sleeps) ~path ()
      in
      Fun.protect
        ~finally:(fun () -> Serve_client.close t)
        (fun () ->
          (match Serve_client.call t ping with
          | { Serve_protocol.result = Ok _; _ } -> ()
          | _ -> Alcotest.fail "first call failed");
          (* The daemon hangs up; the next call must reconnect
             transparently and succeed on the second connection. *)
          match Serve_client.call t ping with
          | { Serve_protocol.result = Ok _; _ } -> ()
          | _ -> Alcotest.fail "call after EOF failed"))

let test_client_timeout () =
  let sleeps = ref [] in
  with_stub
    [ [ Silent ] ]
    (fun path ->
      let t =
        Serve_client.connect
          ~config:(recording_config ~timeout:0.05 sleeps)
          ~path ()
      in
      Fun.protect
        ~finally:(fun () -> Serve_client.close t)
        (fun () ->
          match Serve_client.call t ping with
          | (_ : Serve_protocol.response) ->
            Alcotest.fail "expected a deadline miss"
          | exception
              Robust_error.Error
                (Robust_error.Client_timeout { op = "ping"; deadline_s }) ->
            approx ~eps:1e-9 "deadline surfaced" 0.05 deadline_s
          | exception e ->
            Alcotest.failf "untyped timeout: %s" (Printexc.to_string e)));
  (* Timeouts are not retried — a wedged daemon must not multiply the
     caller's latency by max_attempts. *)
  Alcotest.(check int) "no retry sleeps" 0 (List.length !sleeps)

let test_client_circuit_breaker () =
  let path = fresh_sock () in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 1;
  let th =
    Thread.create
      (fun () ->
        match Unix.accept listen with
        | fd, _ ->
          let ic = Unix.in_channel_of_descr fd in
          (match input_line ic with
          | (_ : string) -> ()
          | exception (End_of_file | Sys_error _) -> ());
          (match Unix.close fd with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
      ()
  in
  let cfg =
    {
      Serve_client.default_config with
      Serve_client.max_attempts = 1;
      breaker_threshold = 2;
      breaker_cooldown_s = 60.;
      sleep_ms = ignore;
    }
  in
  let t = Serve_client.connect ~config:cfg ~path () in
  Fun.protect
    ~finally:(fun () -> Serve_client.close t)
    (fun () ->
      let expect_disconnect label f =
        match f () with
        | (_ : Serve_protocol.response) ->
          Alcotest.failf "%s: expected a disconnect" label
        | exception
            Robust_error.Error (Robust_error.Client_disconnected { detail; _ })
          ->
          detail
        | exception e ->
          Alcotest.failf "%s: untyped %s" label (Printexc.to_string e)
      in
      (* Failure 1: the daemon hangs up mid-request. *)
      let (_ : string) =
        expect_disconnect "hangup" (fun () -> Serve_client.call t ping)
      in
      Thread.join th;
      Unix.close listen;
      Sys.remove path;
      (* Failure 2: the socket is gone, reconnect fails — threshold
         reached, breaker opens. *)
      let d2 =
        expect_disconnect "reconnect" (fun () -> Serve_client.call t ping)
      in
      Alcotest.(check bool) "reconnect failure typed" true
        (String.length d2 > 0);
      (* Failure 3: fails fast without touching the socket at all. *)
      let d3 =
        expect_disconnect "fast-fail" (fun () -> Serve_client.call t ping)
      in
      Alcotest.(check string) "breaker open" "circuit breaker open" d3)

(* --- serve executor degrades to local generation --------------------- *)

let micro_grid =
  { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }

let with_temp_cache f =
  let dir = Filename.temp_file "gnrfet_campaign_cache" "" in
  Sys.remove dir;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GNRFET_TABLE_DIR" "_tables";
      Table_cache.clear_memory ();
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Table_cache.clear_memory ();
      f ())

let test_serve_executor_fallback () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache @@ fun () ->
  let sleeps = ref [] in
  let was_enabled = Obs.enabled Obs.global in
  Obs.set_enabled Obs.global true;
  let before = Obs.counter_value "campaign.serve_fallbacks" in
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled Obs.global was_enabled)
    (fun () ->
      with_stub
        [ [ Busy (Some 5); Busy (Some 5) ] ]
        (fun path ->
          let client =
            Serve_client.connect
              ~config:(recording_config ~max_attempts:2 sleeps)
              ~path ()
          in
          Fun.protect
            ~finally:(fun () -> Serve_client.close client)
            (fun () ->
              let ctx = Ctx.make ~parallel:false () in
              let exec = Campaign.serve_executor ~fallback:ctx client () in
              (* A daemon busy through the whole retry budget costs
                 time, never the sample: the table still materializes
                 locally. *)
              let table = exec (tiny_device ()) (Some micro_grid) in
              Alcotest.(check int) "table generated locally" 3
                (Array.length table.Iv_table.vg))));
  Alcotest.(check int) "client backed off before degrading" 1
    (List.length !sleeps);
  Alcotest.(check int) "fallback counted" 1
    (Obs.counter_value "campaign.serve_fallbacks" - before)

(* --- daemon counts mid-response client disconnects ------------------- *)

let test_daemon_counts_client_disconnects () =
  let obs = Obs.create ~enabled:true () in
  let config =
    { Serve.default_config with Serve.ctx = Ctx.make ~parallel:false ~obs () }
  in
  let server = Serve.create ~config () in
  let path = fresh_sock () in
  let th = Thread.create (fun () -> Serve.serve_unix server ~path) () in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec dial () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      (match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server socket never came up";
      Thread.delay 0.01;
      dial ()
  in
  (* Write a request and hang up before the response: the handler's
     write hits EPIPE on a Unix socket whose peer is gone.  The race
     (daemon answering before the close lands) is real, so retry a few
     fast rounds instead of asserting a single shot. *)
  let line = Serve_protocol.request_to_line ping ^ "\n" in
  let rec provoke round =
    if Obs.counter_value ~obs "serve.client_disconnects" >= 1 then ()
    else if round > 25 then
      Alcotest.fail "disconnect mid-response never counted"
    else begin
      let fd = dial () in
      (match Unix.write_substring fd line 0 (String.length line) with
      | (_ : int) -> ()
      | exception Unix.Unix_error _ -> ());
      (match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      Thread.delay 0.02;
      provoke (round + 1)
    end
  in
  provoke 0;
  let c = Serve_client.connect ~path () in
  (match
     Serve_client.request c { Serve_protocol.id = Some 1; op = Serve_protocol.Shutdown }
   with
  | { Serve_protocol.result = Ok _; _ } -> ()
  | _ -> Alcotest.fail "shutdown failed");
  Serve_client.close c;
  Thread.join th

(* --- client line framing across reads ---------------------------------- *)

(* Responses that do not arrive one per read: a line longer than the
   client's 64 KiB read buffer, written in uneven pieces whose last one
   also carries the head of the next response, and one write carrying
   two whole lines.  Every response comes back intact and in order, on
   one connection. *)
let test_client_framing_across_reads () =
  let line result = Serve_protocol.ok_line ~id:None result ^ "\n" in
  let big = String.init 150_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let first = line (Sjson.Str big) and second = line (Sjson.Str "second") in
  let n1 = String.length first and n2 = String.length second in
  let script =
    [
      Pieces
        [
          String.sub first 0 1;
          String.sub first 1 7;
          String.sub first 8 4096;
          String.sub first 4104 (n1 - 4104) ^ String.sub second 0 10;
        ];
      Pieces [ String.sub second 10 (n2 - 10) ];
      Pieces [ line (Sjson.Num 3.) ^ line (Sjson.Str "fourth") ];
      Pieces [];
    ]
  in
  let sleeps = ref [] in
  let was_enabled = Obs.enabled Obs.global in
  Obs.set_enabled Obs.global true;
  let disconnects () = Obs.counter_value "serve_client.disconnects" in
  let before = disconnects () in
  let results =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled Obs.global was_enabled)
      (fun () ->
        with_stub [ script ] (fun path ->
            let t =
              Serve_client.connect ~config:(recording_config sleeps) ~path ()
            in
            Fun.protect
              ~finally:(fun () -> Serve_client.close t)
              (fun () ->
                List.init 4 (fun _ ->
                    match Serve_client.call t ping with
                    | { Serve_protocol.result = Ok r; _ } -> r
                    | _ -> Alcotest.fail "expected an ok response"))))
  in
  (match results with
  | [ Sjson.Str s1; Sjson.Str s2; Sjson.Num 3.; Sjson.Str s4 ] ->
    Alcotest.(check int) "long line length" 150_000 (String.length s1);
    Alcotest.(check bool) "long line intact" true (String.equal s1 big);
    Alcotest.(check string) "second" "second" s2;
    Alcotest.(check string) "fourth" "fourth" s4
  | _ -> Alcotest.fail "responses out of order or damaged");
  Alcotest.(check int) "no disconnects" before (disconnects ());
  Alcotest.(check int) "no retries" 0 (List.length !sleeps)

let suite =
  [
    Alcotest.test_case "spec codec roundtrip + rejects" `Quick test_spec_codec;
    Alcotest.test_case "spec hash" `Quick test_spec_hash;
    Alcotest.test_case "sample expansion deterministic" `Quick
      test_sample_expansion;
    Alcotest.test_case "stream stats" `Quick test_stream_stats;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal bytes match CAMPAIGN.md" `Quick
      test_journal_format_pin;
    Alcotest.test_case "journal truncated tail" `Quick
      test_journal_truncated_tail;
    Alcotest.test_case "journal CRC flip" `Quick test_journal_crc_flip;
    Alcotest.test_case "journal duplicate record" `Quick
      test_journal_duplicate_record;
    Alcotest.test_case "journal out-of-order tail" `Quick
      test_journal_out_of_order;
    Alcotest.test_case "journal header damage + stale hash" `Quick
      test_journal_header_damage;
    Alcotest.test_case "journal corruption fuzz" `Quick test_journal_fuzz;
    Alcotest.test_case "run without journal" `Quick test_run_without_journal;
    Alcotest.test_case "crash-resume bit identity" `Quick
      test_resume_bit_identity;
    Alcotest.test_case "resume replays quarantines" `Quick
      test_resume_with_quarantine;
    Alcotest.test_case "abort keeps synced prefix" `Quick
      test_abort_keeps_synced_prefix;
    Alcotest.test_case "checkpoint cadence + status" `Quick
      test_checkpoint_cadence_and_status;
    Alcotest.test_case "injected fault quarantines" `Quick
      test_run_quarantines_injected_fault;
    Alcotest.test_case "client honors retry_after_ms" `Quick
      test_client_honors_retry_hint;
    Alcotest.test_case "client returns final busy" `Quick
      test_client_busy_exhaustion;
    Alcotest.test_case "client reconnects after EOF" `Quick
      test_client_reconnects_after_eof;
    Alcotest.test_case "client deadline" `Quick test_client_timeout;
    Alcotest.test_case "client circuit breaker" `Quick
      test_client_circuit_breaker;
    Alcotest.test_case "serve executor degrades to local" `Quick
      test_serve_executor_fallback;
    Alcotest.test_case "daemon counts client disconnects" `Quick
      test_daemon_counts_client_disconnects;
    Alcotest.test_case "client framing across reads" `Quick
      test_client_framing_across_reads;
  ]
