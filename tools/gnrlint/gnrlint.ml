(* gnrlint — static analysis for the GNRFET tree.

   Thin CLI over Gnrlint_lib: rule registry and diagnostics in
   lib/diag.ml, source loading in lib/src.ml, per-file rules in
   lib/rules_file.ml and lib/rules_flow.ml, the whole-repo call-graph /
   capture-summary pass in lib/summary.ml with the interprocedural
   rules in lib/rules_global.ml, versioned baseline in lib/baseline.ml
   and the text/JSON/SARIF emitters in lib/report.ml.  Flags and exit
   codes: docs/LINT.md. *)

let () = exit (Gnrlint_lib.Engine.run_cli Sys.argv)
