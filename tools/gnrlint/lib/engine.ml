(* Orchestration: discover + parse sources once, run the per-file
   rules, build the whole-repo summary, run the interprocedural rules,
   check against the versioned baseline and emit the requested format.

   Exit codes (run): 0 clean (stale-only baseline drift warns but
   passes), 1 un-baselined findings, 2 usage/IO error. *)

type format = Text | Json | Sarif

let format_of_string = function
  | "text" -> Some Text
  | "json" -> Some Json
  | "sarif" -> Some Sarif
  | _ -> None

type config = {
  root : string;  (* prefix stripped from paths in diagnostics *)
  dirs : string list;  (* directories to lint *)
  exclude : string list;  (* directory basenames to skip *)
  baseline_path : string option;
  update_baseline : bool;
  format : format;
  output : string option;  (* write report here instead of stdout *)
  summary : bool;  (* print the per-rule summary table (to stderr) *)
}

let default_config =
  {
    root = ".";
    dirs = [];
    exclude = [ "lint_fixtures" ];
    baseline_path = None;
    update_baseline = false;
    format = Text;
    output = None;
    summary = false;
  }

(* Run every rule over [dirs]; returns the suppression-filtered,
   sorted, deduplicated diagnostics.  Pure with respect to the
   filesystem apart from reading sources. *)
let analyze config =
  let paths = Src.discover ~exclude:config.exclude config.dirs in
  let files = List.map (Src.load ~root:config.root) paths in
  let diags = ref [] in
  let emit (file : Src.file) loc rule msg =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col = loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol in
    (* Location.none has line 0; clamp so suppression lookup is sane. *)
    let line = max line 1 in
    if not (Src.suppressed file ~line ~rule) then
      diags :=
        { Diag.d_file = file.Src.path; d_line = line; d_col = max col 0; d_rule = rule; d_msg = msg }
        :: !diags
  in
  (* Per-file rules *)
  List.iter
    (fun (file : Src.file) ->
      Rules_file.lint ~report:(fun loc rule msg -> emit file loc rule msg) file;
      Rules_flow.lint ~report:(fun loc rule msg -> emit file loc rule msg) file)
    files;
  Rules_file.check_missing_mli
    ~report_file:(fun path rule msg ->
      diags := { Diag.d_file = path; d_line = 1; d_col = 0; d_rule = rule; d_msg = msg } :: !diags)
    files;
  (* Whole-repo pass *)
  let repo = Summary.build files in
  Rules_global.check_domain_race ~report:emit files repo;
  Rules_global.check_nondet_path ~report:emit files repo;
  List.sort_uniq Diag.compare_diag !diags

let load_baseline config =
  match config.baseline_path with Some p -> Baseline.load p | None -> []

let output_report config text =
  match config.output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc

(* Full run for CLI use: returns the exit code. *)
let run config =
  if config.dirs = [] then begin
    prerr_endline "gnrlint: no directories to lint";
    2
  end
  else begin
    let diags = analyze config in
    if config.update_baseline then begin
      match config.baseline_path with
      | None ->
        prerr_endline "gnrlint: --update-baseline requires --baseline";
        2
      | Some path ->
        Baseline.write path diags;
        Printf.eprintf "gnrlint: baseline refreshed with %d finding(s) -> %s\n"
          (List.length diags) path;
        0
    end
    else begin
      let check = Baseline.check (load_baseline config) diags in
      (match config.format with
      | Text -> output_report config (Report.text_report check)
      | Json -> output_report config (Report.json_report check)
      | Sarif -> output_report config (Report.sarif_report check));
      if config.summary then prerr_string (Report.summary_table check);
      let fresh = List.length check.Baseline.fresh in
      if fresh > 0 then begin
        Printf.eprintf "gnrlint: %d un-baselined finding(s)\n" fresh;
        1
      end
      else begin
        if check.Baseline.version_stale <> [] || check.Baseline.stale <> [] then
          Printf.eprintf "gnrlint: clean (%d baseline entr%s stale — refresh when convenient)\n"
            (List.length check.Baseline.version_stale + List.length check.Baseline.stale)
            (if List.length check.Baseline.version_stale + List.length check.Baseline.stale = 1
             then "y is"
             else "ies are")
        else Printf.eprintf "gnrlint: clean\n";
        0
      end
    end
  end

(* Argv parser of the tools/gnrlint executable. *)
let run_cli argv =
  let config = ref default_config in
  let dirs = ref [] in
  let bad = ref None in
  let spec =
    [
      ( "--baseline",
        Arg.String (fun s -> config := { !config with baseline_path = Some s }),
        "FILE accepted-findings baseline (versioned; see docs/LINT.md)" );
      ( "--update-baseline",
        Arg.Unit (fun () -> config := { !config with update_baseline = true }),
        " rewrite the baseline with the current findings" );
      ( "--root",
        Arg.String (fun s -> config := { !config with root = s }),
        "DIR prefix stripped from reported paths" );
      ( "--format",
        Arg.String
          (fun s ->
            match format_of_string s with
            | Some f -> config := { !config with format = f }
            | None -> bad := Some (Printf.sprintf "unknown format %S (text|json|sarif)" s)),
        "FMT output format: text (default), json, sarif" );
      ( "--output",
        Arg.String (fun s -> config := { !config with output = Some s }),
        "FILE write the report to FILE instead of stdout" );
      ( "--summary",
        Arg.Unit (fun () -> config := { !config with summary = true }),
        " print a per-rule summary table to stderr" );
      ( "--exclude",
        Arg.String
          (fun s -> config := { !config with exclude = s :: !config.exclude }),
        "NAME skip directories with this basename (repeatable)" );
    ]
  in
  let usage = "usage: gnrlint [options] DIR..." in
  (try Arg.parse_argv ~current:(ref 0) argv spec (fun d -> dirs := d :: !dirs) usage with
  | Arg.Bad msg -> bad := Some msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  match !bad with
  | Some msg ->
    prerr_endline msg;
    2
  | None -> run { !config with dirs = List.rev !dirs }
