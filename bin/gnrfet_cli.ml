(* Command-line interface to the GNRFET technology-exploration framework.

   Subcommands:
     bands       band structure / gaps of A-GNRs
     iv          self-consistent I-V sweep of an intrinsic device
     vt          threshold extraction
     explore     VDD-VT exploration summary
     tables      pre-generate the device-table cache
     experiment  reproduce paper tables/figures (all of them by default)
     mc          Monte Carlo on the 15-stage ring oscillator
     export      dump a device table as CSV
     simulate    run a SPICE-dialect deck on the circuit engine
     roughness   edge-roughness transmission study (extension)
     ablations   design-choice ablation studies
     latch-write dynamic latch write experiment (extension)
     obs-report  run a small instrumented workload, print the obs snapshot
     robust-report
                 run a small workload under a fault campaign, print the
                 escalation-ladder traffic and robustness counters
     serve       table-serving daemon (Unix socket or stdio, docs/SERVE.md)
     query       one-shot client for a running serve daemon *)

open Cmdliner

(* Observability defaults on in the CLI (it is interactive tooling, not a
   measurement-sensitive test run); GNRFET_OBS=0 opts out. *)
let () = if Sys.getenv_opt "GNRFET_OBS" = None then Obs.set_enabled Obs.global true

let index_arg =
  let doc = "A-GNR index N (dimer lines across the width)." in
  Arg.(value & opt int 12 & info [ "n"; "index" ] ~docv:"N" ~doc)

let charge_arg =
  let doc = "Oxide charge impurity in units of |q| (0, ±1, ±2)." in
  Arg.(value & opt float 0. & info [ "c"; "charge" ] ~docv:"Q" ~doc)

let params_of index charge =
  let p = Params.default ~gnr_index:index () in
  if charge = 0. then p else Params.with_impurity_charge p charge

(* bands *)
let bands_cmd =
  let run index =
    let tb = Tight_binding.make index in
    let b = Bands.compute ~nk:65 tb in
    Printf.printf "A-GNR N=%d: width %.3f nm, gap %.4f eV (family %s)\n" index
      (Lattice.width index /. 1e-9)
      (Bands.band_gap b)
      (match Lattice.family index with
      | Lattice.Family_3q -> "3q"
      | Lattice.Family_3q1 -> "3q+1"
      | Lattice.Family_3q2 -> "3q+2");
    let ms = Modespace.reduce index in
    Array.iter
      (fun (m : Modespace.mode) ->
        Printf.printf "  subband %d: min %.4f eV, max %.4f eV (chain t1=%.3f t2=%.3f)\n"
          m.Modespace.index m.Modespace.delta m.Modespace.emax m.Modespace.t1
          m.Modespace.t2)
      ms.Modespace.modes
  in
  Cmd.v (Cmd.info "bands" ~doc:"A-GNR band structure and mode-space parameters")
    Term.(const run $ index_arg)

(* iv *)
let iv_cmd =
  let vd_arg =
    Arg.(value & opt float 0.5 & info [ "vd" ] ~docv:"VD" ~doc:"Drain bias (V).")
  in
  let points_arg =
    Arg.(value & opt int 16 & info [ "points" ] ~docv:"K" ~doc:"Sweep points.")
  in
  let run index charge vd points =
    let p = params_of index charge in
    Format.printf "%a, VD = %g V@." Params.pp p vd;
    let init = ref None in
    Array.iter
      (fun vg ->
        let s = Scf.solve ?init:!init p ~vg ~vd in
        init := Some s.Scf.potential;
        Printf.printf "  VG=%6.3f  ID=%12.5g A   Q=%12.5g C   (%d iters)\n%!" vg
          s.Scf.current s.Scf.charge s.Scf.iterations)
      (Vec.linspace 0. 0.75 points)
  in
  Cmd.v (Cmd.info "iv" ~doc:"Self-consistent NEGF-Poisson I-V sweep")
    Term.(const run $ index_arg $ charge_arg $ vd_arg $ points_arg)

(* vt *)
let vt_cmd =
  let offset_arg =
    Arg.(value & opt float 0. & info [ "offset" ] ~docv:"V" ~doc:"Gate work-function offset (V).")
  in
  let run index offset =
    let p = { (Params.default ~gnr_index:index ()) with Params.gate_offset = offset } in
    Printf.printf "VT(N=%d, offset=%g V) = %.3f V\n" index offset (Vt.extract p)
  in
  Cmd.v (Cmd.info "vt" ~doc:"Threshold-voltage extraction (Fig 2(b) method)")
    Term.(const run $ index_arg $ offset_arg)

(* explore *)
let explore_cmd =
  let nv_arg =
    Arg.(value & opt int 7 & info [ "grid" ] ~docv:"K" ~doc:"Grid points per axis.")
  in
  let run nv =
    let table = Table_cache.get (Params.default ()) in
    let s =
      Explore.surface ~vdds:(Vec.linspace 0.1 0.7 nv) ~vts:(Vec.linspace 0. 0.3 nv)
        table
    in
    let m = Explore.min_edp s in
    Printf.printf "minimum EDP: VDD=%.3f VT=%.3f EDP=%.3g fJ-ps\n" m.Explore.vdd
      m.Explore.vt
      (m.Explore.value /. 1e-27);
    (match Explore.min_edp_at_frequency_and_snm s ~ghz:3. ~snm:0.1 with
    | Some b ->
      Printf.printf "point B:     VDD=%.3f VT=%.3f EDP=%.3g fJ-ps\n" b.Explore.vdd
        b.Explore.vt
        (b.Explore.value /. 1e-27)
    | None -> print_endline "point B: not found on this grid")
  in
  Cmd.v (Cmd.info "explore" ~doc:"VDD-VT technology exploration (Fig 3(b))")
    Term.(const run $ nv_arg)

(* tables *)
let tables_cmd =
  let run () =
    let variants = Variants.all_for_experiments in
    Printf.printf "Generating %d device tables into %s (domains: %d)...\n%!"
      (List.length variants) (Table_cache.cache_dir ()) (Parallel.num_domains ());
    let t0 = Unix.gettimeofday () in
    let tables = Table_cache.get_many variants in
    List.iter2
      (fun p (t : Iv_table.t) ->
        let ion = Iv_table.current_at t ~vg:0.75 ~vd:0.5 in
        Format.printf "  %a  Ion(0.75,0.5)=%.3g A@." Params.pp p ion)
      variants tables;
    Printf.printf "done in %.1fs\n" (Unix.gettimeofday () -. t0)
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Pre-generate the device-table cache for every experiment variant \
          (respects GNRFET_TABLE_DIR and GNRFET_DOMAINS)")
    Term.(const run $ const ())

(* experiment *)
let experiment_cmd =
  let ids_arg =
    let ids =
      ("all", All_experiments.all)
      :: List.map (fun id -> (All_experiments.name id, [ id ])) All_experiments.all
    in
    let doc =
      Printf.sprintf
        "Experiments to run, in the order given; each is %s.  None, or \
         'all', runs every one in paper order."
        (Arg.doc_alts_enum ids)
    in
    Arg.(value & pos_all (enum ids) [] & info [] ~docv:"ID" ~doc)
  in
  let run ids =
    let ppf = Format.std_formatter in
    let t0 = Unix.gettimeofday () in
    All_experiments.run ppf
      (match List.concat ids with [] -> All_experiments.all | ids -> ids);
    Format.fprintf ppf "@.[total: %.1f s]@." (Unix.gettimeofday () -. t0)
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Reproduce paper tables and figures")
    Term.(const run $ ids_arg)

(* mc *)
let mc_cmd =
  let samples_arg =
    Arg.(value & opt int 500 & info [ "samples" ] ~docv:"K" ~doc:"Monte Carlo samples.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")
  in
  let run samples seed =
    let r = Exp_fig6.run ~samples ~seed () in
    Exp_fig6.print Format.std_formatter r
  in
  Cmd.v (Cmd.info "mc" ~doc:"Monte Carlo ring-oscillator study (Fig 6)")
    Term.(const run $ samples_arg $ seed_arg)

(* export *)
let export_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run index charge out =
    let table = Table_cache.get (params_of index charge) in
    let csv = Iv_table.to_csv table in
    match out with
    | None -> print_string csv
    | Some path ->
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "export" ~doc:"Dump a device I-V/Q-V table as CSV")
    Term.(const run $ index_arg $ charge_arg $ out_arg)

(* simulate *)
let simulate_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK" ~doc:"SPICE-dialect netlist file.")
  in
  let probe_arg =
    Arg.(value & opt (some string) None & info [ "probe" ] ~docv:"NODE" ~doc:"Node to print (default: all).")
  in
  let run file probe =
    let text = In_channel.with_open_text file In_channel.input_all in
    let deck = Spice_deck.parse text in
    (* FET models: nfet/pfet resolve to the nominal 4-GNR device at the
       paper's operating point B; cmos22n/cmos22p to the 22nm node. *)
    let models name =
      let gnr polarity =
        let table = Table_cache.get (Params.default ()) in
        let shift = Gnr_model.shift_for_vt table 0.13 in
        Some (Gnr_model.array_fet ~polarity ~vt_shift:shift [ table; table; table; table ])
      in
      match String.lowercase_ascii name with
      | "nfet" | "gnrn" -> gnr Gnr_model.N_type
      | "pfet" | "gnrp" -> gnr Gnr_model.P_type
      | "cmos22n" -> Some (Node.nfet Node.n22)
      | "cmos22p" -> Some (Node.pfet Node.n22)
      | _ -> None
    in
    let built = Spice_deck.build deck ~models in
    let print_state label state =
      Printf.printf "%s\n" label;
      (match probe with
      | Some name ->
        Printf.printf "  v(%s) = %.6g V\n" name (state.(built.Spice_deck.node_of name))
      | None ->
        Array.iteri (fun i v -> Printf.printf "  node %d: %.6g V\n" i v) state)
    in
    if deck.Spice_deck.analyses = [] then
      print_state "DC operating point:" (Mna.solve_dc built.Spice_deck.net)
    else
      List.iter
        (fun analysis ->
          match analysis with
          | Spice_deck.Tran { dt; t_stop } ->
            let wf = Mna.transient built.Spice_deck.net ~t_stop ~dt in
            Printf.printf ".tran %g %g\n" dt t_stop;
            let n = Array.length wf.Mna.times in
            let stride = max 1 (n / 20) in
            for k = 0 to n - 1 do
              if k mod stride = 0 || k = n - 1 then begin
                match probe with
                | Some name ->
                  Printf.printf "  t=%.4g  v(%s)=%.5g\n" wf.Mna.times.(k) name
                    wf.Mna.voltages.(k).(built.Spice_deck.node_of name)
                | None -> Printf.printf "  t=%.4g\n" wf.Mna.times.(k)
              end
            done
          | Spice_deck.Dc_sweep { source; start; stop; step } ->
            Printf.printf ".dc %s %g -> %g\n" source start stop;
            let node = built.Spice_deck.source_node source in
            ignore node;
            let v = ref start in
            while !v <= stop +. 1e-12 do
              (* Ground-referenced sweeps reuse the time-as-value trick is
                 not applicable here; rebuild cheaply per point. *)
              let deck' =
                { deck with
                  Spice_deck.cards =
                    List.map
                      (fun c ->
                        match c with
                        | Spice_deck.Source { name; node; wave = _ }
                          when String.equal name source ->
                          Spice_deck.Source { name; node; wave = Spice_deck.Dc !v }
                        | other -> other)
                      deck.Spice_deck.cards }
              in
              let b = Spice_deck.build deck' ~models in
              let state = Mna.solve_dc b.Spice_deck.net in
              (match probe with
              | Some name ->
                Printf.printf "  %s=%.4g  v(%s)=%.5g\n" source !v name
                  state.(b.Spice_deck.node_of name)
              | None -> Printf.printf "  %s=%.4g\n" source !v);
              v := !v +. step
            done)
        deck.Spice_deck.analyses
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a SPICE-dialect deck (R/C/V/M cards)")
    Term.(const run $ file_arg $ probe_arg)

(* roughness *)
let roughness_cmd =
  let sigma_arg =
    Arg.(value & opt float 0.03 & info [ "sigma" ] ~docv:"S" ~doc:"Relative hopping disorder.")
  in
  let corr_arg =
    Arg.(value & opt int 6 & info [ "corr" ] ~docv:"L" ~doc:"Correlation length (sites).")
  in
  let run index sigma corr =
    let s =
      Roughness.transmission_study ~gnr_index:index ~sigma ~corr_sites:corr ()
    in
    Printf.printf
      "N=%d, sigma=%.3g, corr=%d sites: <T> = %.4f +- %.4f (%.1f%% of ideal), Lloc ~ %s\n"
      index sigma corr s.Roughness.mean_transmission s.Roughness.std_transmission
      (100. *. s.Roughness.mean_ratio)
      (if Float.is_finite s.Roughness.localization_estimate then
         Printf.sprintf "%.0f nm" (s.Roughness.localization_estimate /. 1e-9)
       else "ballistic")
  in
  Cmd.v (Cmd.info "roughness" ~doc:"Edge-roughness transmission study")
    Term.(const run $ index_arg $ sigma_arg $ corr_arg)

(* ablations *)
let ablations_cmd =
  let run () = Ablations.print_all Format.std_formatter in
  Cmd.v (Cmd.info "ablations" ~doc:"Design-choice ablation studies")
    Term.(const run $ const ())

(* latch-write *)
let latch_write_cmd =
  let pulse_arg =
    Arg.(value & opt float 20e-12 & info [ "pulse" ] ~docv:"SECONDS" ~doc:"Write pulse width.")
  in
  let worst_arg =
    Arg.(value & flag & info [ "worst" ] ~doc:"Use the worst-case variant latch.")
  in
  let run pulse worst =
    let n_spec, p_spec =
      if worst then
        ({ Variation.gnr_index = 9; charge = 1. }, { Variation.gnr_index = 18; charge = -1. })
      else (Variation.nominal_spec, Variation.nominal_spec)
    in
    let r =
      Variation.latch_write ~n_spec ~p_spec ~all_four:worst ~pulse_width:pulse ()
    in
    Printf.printf "pulse %.3g s on %s latch: %s (settled %.3g s)\n" pulse
      (if worst then "worst-case" else "nominal")
      (if r.Variation.flipped then "WRITE OK" else "write failed")
      r.Variation.settle;
    let wmin = Variation.minimum_write_pulse ~n_spec ~p_spec ~all_four:worst () in
    Printf.printf "minimum write pulse: %.3g s\n" wmin
  in
  Cmd.v (Cmd.info "latch-write" ~doc:"Dynamic latch write experiment")
    Term.(const run $ pulse_arg $ worst_arg)

(* obs-report *)
let obs_report_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON instead of a table.")
  in
  let run index json =
    (* A deliberately small instrumented workload: a short warm-started
       I-V sweep on a reduced-length device touches the SCF, NEGF, Poisson
       and domain-pool layers; energy_step/margin are coarsened so the
       report runs in seconds. *)
    let p =
      {
        (Params.default ~gnr_index:index ()) with
        Params.channel_length = 6e-9;
        energy_step = 8e-3;
        energy_margin = 0.3;
      }
    in
    let init = ref None in
    Array.iter
      (fun vg ->
        let s = Scf.solve ?init:!init p ~vg ~vd:0.3 in
        init := Some s.Scf.potential)
      (Vec.linspace 0. 0.4 3);
    let snap = Obs.snapshot () in
    if json then print_string (Obs.to_json ~indent:"  " snap)
    else Format.printf "%a@." Obs.pp snap;
    if not (Obs.enabled Obs.global) then
      prerr_endline
        "note: observability is disabled (GNRFET_OBS=0); all metrics read zero"
  in
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:"Run a small instrumented SCF workload and print the observability snapshot")
    Term.(const run $ index_arg $ json_arg)

(* robust-report *)
let robust_report_cmd =
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Fault campaign to arm for the workload \
             (site[@prob|#hit[-hit]|%every],...[:seed], see docs/ROBUST.md). \
             Default: scf.charge#1:1, which kills the first charge \
             evaluation and forces one ladder escalation.  Pass an empty \
             string to run clean.  GNRFET_FAULT, when set, wins unless \
             this flag is given.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Also emit the full obs snapshot as JSON after the report.")
  in
  let rung_name = function
    | Scf_robust.Anderson -> "anderson"
    | Scf_robust.Damped_restart -> "damped-restart"
    | Scf_robust.Linear_slow -> "linear-slow"
    | Scf_robust.Neighbor_continuation -> "neighbor"
  in
  let run index fault json =
    (match fault with
    | Some "" -> Fault.disarm ()
    | Some spec -> begin
      match Fault.arm spec with
      | () -> ()
      | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    end
    | None ->
      if not (Fault.active ()) then Fault.arm "scf.charge#1:1");
    (* Same reduced device as obs-report: a short warm-started sweep
       through the escalation ladder, with the last converged point
       offered as the neighbor-continuation rung. *)
    let p =
      {
        (Params.default ~gnr_index:index ()) with
        Params.channel_length = 6e-9;
        energy_step = 8e-3;
        energy_margin = 0.3;
      }
    in
    let init = ref None and neighbor = ref None in
    Array.iter
      (fun vg ->
        let o =
          Scf_robust.solve_robust ?init:!init ?neighbor:!neighbor p ~vg ~vd:0.3
        in
        let attempts =
          List.map
            (fun (a : Scf_robust.attempt) ->
              match (a.status, a.error) with
              | Some Scf.Converged, _ ->
                Printf.sprintf "%s: converged in %d" (rung_name a.rung)
                  a.iterations
              | Some _, _ ->
                Printf.sprintf "%s: unconverged (residual %.2g)"
                  (rung_name a.rung) a.residual
              | None, err ->
                Printf.sprintf "%s: raised %s" (rung_name a.rung)
                  (Option.value err ~default:"?"))
            o.Scf_robust.attempts
        in
        Printf.printf "vg=%.2f  %s\n%!" vg (String.concat " -> " attempts);
        match o.Scf_robust.solution with
        | Some s ->
          init := Some s.Scf.potential;
          if s.Scf.status = Scf.Converged then neighbor := Some s.Scf.potential
        | None -> ())
      (Vec.linspace 0. 0.4 3);
    Format.printf "%a" Robust.Report.pp (Robust.Report.collect ());
    if json then print_string (Obs.to_json ~indent:"  " (Obs.snapshot ()));
    if not (Obs.enabled Obs.global) then
      prerr_endline
        "note: observability is disabled (GNRFET_OBS=0); all counters read zero"
  in
  Cmd.v
    (Cmd.info "robust-report"
       ~doc:
         "Run a small SCF workload under a fault campaign and print the \
          escalation-ladder traffic and robustness counters")
    Term.(const run $ index_arg $ fault_arg $ json_arg)

(* serve *)
let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    value
    & opt string "_tables/gnrfet-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve one request per stdin line, one response per stdout line, \
             until EOF or a shutdown op (the transport the tests and CI \
             drive).  Without this flag the daemon listens on --socket.")
  in
  let max_generations_arg =
    (* A negative count is a usage error, not an uncaught
       Invalid_argument from Serve.create. *)
    let count =
      let parse s =
        match Arg.conv_parser Arg.int s with
        | Ok k when k < 0 ->
          Error
            (`Msg
              (Printf.sprintf
                 "invalid value '%s', expected a non-negative integer" s))
        | r -> r
      in
      Arg.conv ~docv:"K" (parse, Arg.conv_printer Arg.int)
    in
    Arg.(
      value
      & opt count Serve.default_max_generations
      & info [ "max-generations" ] ~docv:"K"
          ~doc:
            "Tables generated at once, 0 or more; a miss beyond them is \
             answered busy. 0 serves cached tables only.")
  in
  let run stdio socket max_generations =
    let server = Serve.create ~max_generations () in
    if stdio then Serve.serve_stdio server stdin stdout
    else begin
      Printf.eprintf "gnrfet-serve: listening on %s\n%!" socket;
      Serve.serve_unix server ~path:socket
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Concurrent table-serving daemon: newline-delimited JSON over a \
          Unix socket (or stdio), with single-flight coalescing and a bound \
          on generations at once (docs/SERVE.md)")
    Term.(const run $ stdio_arg $ socket_arg $ max_generations_arg)

(* query *)
let query_cmd =
  let op_arg =
    let doc = "Operation: ping, stats, table, iv or shutdown." in
    Arg.(value & pos 0 string "ping" & info [] ~docv:"OP" ~doc)
  in
  let vg_arg =
    Arg.(value & opt float 0.5 & info [ "vg" ] ~docv:"V" ~doc:"Gate bias (iv op).")
  in
  let vd_arg =
    Arg.(value & opt float 0.5 & info [ "vd" ] ~docv:"V" ~doc:"Drain bias (iv op).")
  in
  let run socket op index charge vg vd =
    let params = params_of index charge in
    let op =
      match op with
      | "ping" -> Serve_protocol.Ping
      | "stats" -> Serve_protocol.Stats
      | "shutdown" -> Serve_protocol.Shutdown
      | "table" -> Serve_protocol.Table { params; grid = None }
      | "iv" -> Serve_protocol.Iv { params; grid = None; vg; vd }
      | other ->
        Printf.eprintf "unknown op %S (ping|stats|table|iv|shutdown)\n" other;
        exit 2
    in
    let client = Serve_client.connect ~path:socket () in
    Fun.protect
      ~finally:(fun () -> Serve_client.close client)
      (fun () ->
        let r = Serve_client.request client { Serve_protocol.id = Some 0; op } in
        match r.Serve_protocol.result with
        | Ok result -> print_endline (Sjson.to_string result)
        | Error e ->
          Printf.eprintf "error (%s): %s\n" e.Serve_protocol.kind
            e.Serve_protocol.detail;
          exit 1)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"One-shot client for a running serve daemon")
    Term.(
      const run $ socket_arg $ op_arg $ index_arg $ charge_arg $ vg_arg $ vd_arg)

(* campaign: crash-safe resumable device campaigns (docs/CAMPAIGN.md) *)
let campaign_cmd =
  let spec_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Campaign spec (JSON; grammar in docs/CAMPAIGN.md).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead checkpoint journal.  Required for resume; without \
             it a run is fast but a crash loses everything.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the final report JSON here (atomically) instead of \
             stdout.")
  in
  let serve_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "serve" ] ~docv:"SOCKET"
          ~doc:
            "Fetch device tables from the serve daemon at this Unix socket \
             (hardened client: deadlines, retry honoring retry_after_ms, \
             circuit breaker) instead of generating locally.")
  in
  let checkpoint_arg =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"fsync the journal every K samples (default 1).")
  in
  let no_fallback_arg =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:
            "With --serve: fail samples on client errors instead of \
             degrading to local generation.")
  in
  let load_spec path =
    let src =
      match In_channel.with_open_bin path In_channel.input_all with
      | s -> s
      | exception Sys_error msg ->
        Printf.eprintf "campaign: cannot read spec: %s\n" msg;
        exit 2
    in
    match Result.bind (Sjson.parse src) Campaign.spec_of_json with
    | Ok spec -> spec
    | Error msg ->
      Printf.eprintf "campaign: bad spec %s: %s\n" path msg;
      exit 2
  in
  let exec ~resume spec_path journal out serve checkpoint no_fallback =
    let spec = load_spec spec_path in
    let kill_after =
      Option.bind (Sys.getenv_opt "GNRFET_CAMPAIGN_KILL_AFTER")
        int_of_string_opt
    in
    let with_executor f =
      match serve with
      | None -> f None
      | Some socket ->
        let client = Serve_client.connect ~path:socket () in
        let fallback = not no_fallback in
        Fun.protect
          ~finally:(fun () -> Serve_client.close client)
          (fun () -> f (Some (Campaign.serve_executor ~fallback client ())))
    in
    match
      with_executor (fun executor ->
          Campaign.run ?executor ?journal ~resume ~checkpoint_every:checkpoint
            ?kill_after spec)
    with
    | outcome ->
      (match outcome.Campaign.torn with
      | Some reason ->
        Printf.eprintf "campaign: dropped torn journal tail (%s)\n"
          (Robust_error.torn_reason_to_string reason)
      | None -> ());
      if outcome.Campaign.duplicates > 0 then
        Printf.eprintf "campaign: skipped %d duplicate journal record(s)\n"
          outcome.Campaign.duplicates;
      Printf.eprintf
        "campaign %s: %d samples (%d replayed, %d evaluated, %d quarantined)\n"
        spec.Campaign.name outcome.Campaign.report.Campaign.r_total
        outcome.Campaign.resumed outcome.Campaign.evaluated
        (List.length outcome.Campaign.report.Campaign.r_quarantined);
      (match out with
      | Some path -> Campaign.write_report ~path outcome.Campaign.report
      | None ->
        print_endline
          (Sjson.to_string (Campaign.report_to_json outcome.Campaign.report)))
    | exception Robust_error.Error e ->
      Printf.eprintf "campaign: %s\n" (Robust_error.to_string e);
      exit 1
    | exception Invalid_argument msg ->
      Printf.eprintf "campaign: %s\n" msg;
      exit 2
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a campaign from scratch (an existing journal at --journal \
            is overwritten)")
      Term.(
        const (fun a b c d e f -> exec ~resume:false a b c d e f)
        $ spec_arg $ journal_arg $ out_arg $ serve_arg $ checkpoint_arg
        $ no_fallback_arg)
  in
  let resume_cmd =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Replay the journal's valid prefix (dropping a torn tail with a \
            typed reason) and continue from the first unrecorded sample; \
            the final report is bit-identical to an uninterrupted run")
      Term.(
        const (fun a b c d e f -> exec ~resume:true a b c d e f)
        $ spec_arg $ journal_arg $ out_arg $ serve_arg $ checkpoint_arg
        $ no_fallback_arg)
  in
  let status_cmd =
    let journal_req =
      Arg.(
        required
        & opt (some string) None
        & info [ "journal" ] ~docv:"FILE" ~doc:"Journal to inspect.")
    in
    let spec_opt =
      Arg.(
        value
        & opt (some string) None
        & info [ "spec" ] ~docv:"FILE"
            ~doc:"Verify the journal against this spec and report progress.")
    in
    let run journal spec_path =
      let spec = Option.map load_spec spec_path in
      match Campaign.status ~journal ?spec () with
      | st ->
        Printf.printf "journal:     %s\n" journal;
        Printf.printf "spec_hash:   %08x\n" st.Campaign.st_spec_hash;
        Printf.printf "recorded:    %d%s\n" st.Campaign.st_recorded
          (match st.Campaign.st_total with
          | Some total -> Printf.sprintf " / %d" total
          | None -> "");
        Printf.printf "completed:   %d\n" st.Campaign.st_completed;
        Printf.printf "quarantined: %d\n" st.Campaign.st_quarantined;
        Printf.printf "duplicates:  %d\n" st.Campaign.st_duplicates;
        (match st.Campaign.st_torn with
        | Some reason ->
          Printf.printf "torn:        %s\n"
            (Robust_error.torn_reason_to_string reason)
        | None -> Printf.printf "torn:        none\n")
      | exception Robust_error.Error e ->
        Printf.eprintf "campaign: %s\n" (Robust_error.to_string e);
        exit 1
      | exception Sys_error msg ->
        Printf.eprintf "campaign: cannot read journal: %s\n" msg;
        exit 2
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:"Inspect a checkpoint journal without running anything")
      Term.(const run $ journal_req $ spec_opt)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Crash-safe resumable device campaigns with a write-ahead \
          checkpoint journal (docs/CAMPAIGN.md)")
    [ run_cmd; resume_cmd; status_cmd ]

let main =
  let info =
    Cmd.info "gnrfet_cli" ~version:"1.0.0"
      ~doc:"Technology exploration for graphene nanoribbon FETs (DAC 2008 reproduction)"
  in
  Cmd.group info
    [ bands_cmd; iv_cmd; vt_cmd; explore_cmd; tables_cmd; experiment_cmd;
      mc_cmd; export_cmd; simulate_cmd; roughness_cmd; ablations_cmd;
      latch_write_cmd; obs_report_cmd; robust_report_cmd; serve_cmd;
      query_cmd; campaign_cmd ]

let () = exit (Cmd.eval main)
