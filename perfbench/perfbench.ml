(* perfbench worker: runs one workload in a fresh process and prints
   "ready" when its set-up is done, then one JSON result line.

     perfbench.exe --workload cold-table|warm-explore|serve-mix
       --seed N --seconds S --trace 0|1 --workdir DIR --cli PATH
       [--connections N] [--setup-only] [--spans FILE]

   run.py drives it: it owns the fresh working directory, the
   GNRFET_TABLE_DIR and GNRFET_OBS environment, set-up timing and the
   reference checks.  The worker changes into DIR, so the daemon socket
   path stays short. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let workdir = ref "." and cli = ref "" and setup_only = ref false and spans = ref "" in
  let connections = ref 2 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measured seconds (sets the work size)");
      ("--trace", Arg.Set_int trace, "0|1 record per-layer metrics");
      ("--workdir", Arg.Set_string workdir, "DIR fresh working directory");
      ("--cli", Arg.Set_string cli, "PATH gnrfet_cli executable (serve-mix)");
      ("--connections", Arg.Set_int connections, "N client connections (serve-mix)");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--spans", Arg.Set_string spans, "FILE write the recorded spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [options]";
  let traced = !trace = 1 in
  Pb_trace.enabled := traced;
  Sys.chdir !workdir;
  let table_dir = Sys.getenv "GNRFET_TABLE_DIR" in
  let ready () = print_endline "ready" in
  let finish r =
    if !spans <> "" then Pb_trace.write !spans;
    print_endline (Sjson.to_string (Pb_util.result_json ~workload:!workload ~seed:!seed r))
  in
  match !workload with
  | "cold-table" ->
    ready ();
    if not !setup_only then finish (Pb_cold.run ~seed:!seed ~seconds:!seconds ~table_dir ~traced)
  | "warm-explore" ->
    let st = Pb_explore.setup () in
    ready ();
    if not !setup_only then
      finish (Pb_explore.run st ~seed:!seed ~seconds:!seconds ~table_dir ~traced)
  | "serve-mix" ->
    let st = Pb_serve.setup ~cli:!cli ~table_dir in
    ready ();
    if !setup_only then Pb_serve.stop_daemon st
    else
      finish (Pb_serve.run st ~seed:!seed ~seconds:!seconds ~connections:(max 1 !connections) ~traced)
  | w ->
    prerr_endline ("perfbench: unknown workload " ^ w);
    exit 2
