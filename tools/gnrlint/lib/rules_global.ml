(* Whole-repo interprocedural rules built on Summary's call graph.

   domain-race — for every parallel entry point (a closure handed to
   Parallel.map_reduce / Parallel.map / Domain.spawn),
   walk the call graph reachable from the closure's body and flag every
   write to a top-level mutable cell that is neither Atomic nor inside a
   function that takes a Mutex / uses Domain.DLS.  Reported at the
   parallel call site, one diagnostic per (pcall, cell).

   nondet-path — from the deterministic surface (Observables.*,
   Scf.solve, Rgf.*, Iv_table.generate) walk the call graph and flag
   every order- or clock-dependent operation (Hashtbl.iter/fold, the
   global-state Random API, wall-clock reads) in a reached function.
   Reported at the operation site.  The Obs module itself is exempt:
   its snapshots sort by name and its timers read the wall clock by
   design (docs/LINT.md). *)

let det_root_names = [ "Scf.solve"; "Iv_table.generate" ]
let det_root_prefixes = [ "Observables."; "Rgf."; "Rgf_block." ]
let nondet_exempt_modules = [ "Obs" ]

let find_file files path = List.find_opt (fun (f : Src.file) -> f.Src.path = path) files

(* [report] here takes the file record so the engine can apply the
   inline-suppression scan at the report site. *)

let check_domain_race ~report files repo =
  let funcs_sorted =
    Hashtbl.fold (fun _ f acc -> f :: acc) repo.Summary.funcs []
    |> List.sort (fun a b -> compare a.Summary.f_name b.Summary.f_name)
  in
  List.iter
    (fun (f : Summary.func) ->
      List.iter
        (fun (p : Summary.pcall) ->
          (* Seed reachability with the callees mentioned inside the
             closure literal (plus ident args passed by name), resolved
             from the enclosing function's module path. *)
          let seeds =
            List.filter_map
              (fun tok -> Summary.resolve_func repo ~path:f.Summary.f_path tok)
              p.Summary.p_callees
          in
          let reached = Summary.reachable repo seeds in
          (* Unguarded writes: those directly in the closure body, plus
             those of every reached function that is not itself
             guarded. *)
          let offending = ref [] in
          let consider ~guarded ~path (w : Summary.write) =
            if not guarded then
              match Summary.resolve_cell repo ~path w.Summary.w_target with
              | Some cname ->
                let cell = Hashtbl.find repo.Summary.cells cname in
                if not cell.Summary.c_atomic then
                  offending := (cname, cell, w.Summary.w_op) :: !offending
              | None -> ()
          in
          List.iter (consider ~guarded:false ~path:f.Summary.f_path) p.Summary.p_writes;
          Hashtbl.iter
            (fun name _root ->
              let g = Hashtbl.find repo.Summary.funcs name in
              List.iter
                (consider ~guarded:g.Summary.f_guarded ~path:g.Summary.f_path)
                g.Summary.f_writes)
            reached;
          (* One diagnostic per distinct cell, deterministic order. *)
          let seen = Hashtbl.create 4 in
          !offending
          |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
          |> List.iter (fun (cname, (cell : Summary.cell), op) ->
                 if not (Hashtbl.mem seen cname) then begin
                   Hashtbl.replace seen cname ();
                   match find_file files f.Summary.f_file with
                   | Some file ->
                     report file p.Summary.p_loc "domain-race"
                       (Printf.sprintf
                          "closure passed to %s reaches a write (%s) to top-level %s \
                           `%s` (%s:%d) with no Mutex/Atomic/DLS guard; under multiple \
                           domains this is a data race — guard it, make it Atomic, or \
                           thread the state through the fold"
                          p.Summary.p_api op cell.Summary.c_kind cname
                          cell.Summary.c_file
                          cell.Summary.c_loc.Location.loc_start.Lexing.pos_lnum)
                   | None -> ()
                 end))
        f.Summary.f_pcalls)
    funcs_sorted

let is_det_root name =
  List.mem name det_root_names
  || List.exists
       (fun p ->
         String.length name > String.length p && String.sub name 0 (String.length p) = p)
       det_root_prefixes

let check_nondet_path ~report files repo =
  let roots =
    Hashtbl.fold (fun name _ acc -> if is_det_root name then name :: acc else acc)
      repo.Summary.funcs []
    |> List.sort compare
  in
  let reached = Summary.reachable repo roots in
  let entries = Hashtbl.fold (fun name root acc -> (name, root) :: acc) reached [] in
  List.iter
    (fun (name, root) ->
      let f = Hashtbl.find repo.Summary.funcs name in
      let exempt = match f.Summary.f_path with m :: _ -> List.mem m nondet_exempt_modules | [] -> false in
      if not exempt then
        List.iter
          (fun (nd : Summary.nondet) ->
            match find_file files f.Summary.f_file with
            | Some file ->
              report file nd.Summary.nd_loc "nondet-path"
                (Printf.sprintf
                   "%s inside `%s`, which is reachable from deterministic surface \
                    entry `%s`; results there must be bit-for-bit reproducible \
                    (docs/PERF.md)"
                   nd.Summary.nd_op f.Summary.f_name root)
            | None -> ())
          f.Summary.f_nondet)
    (List.sort compare entries)
