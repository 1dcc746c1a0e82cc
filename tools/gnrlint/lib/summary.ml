(* Whole-repo model: one pass over every parsed .ml builds, per
   top-level binding, a summary of (a) the identifiers it mentions
   (the call-graph edges — mentioning a function is enough to create an
   edge, so closures passed by name are covered), (b) its writes to
   top-level mutable cells, (c) its order/clock-dependent operations,
   and (d) the parallel entry points it contains (closures handed to
   Parallel.map_reduce / parallel_for / Parallel.map / Domain.spawn).

   Known approximations (docs/LINT.md):
   - A file's module name is its capitalized basename; libraries are
     unwrapped in this repo, so that matches how modules reference each
     other.  Nested `module X = struct` extends the path; `module X = Y`
     aliases are resolved, functors and `include` are not.
   - Unqualified names resolve against enclosing module paths only —
     `open`ed modules are invisible, so cross-module edges need the
     qualified `M.f` form (the repo's prevailing style).
   - A write is "guarded" if its enclosing top-level binding anywhere
     takes a Mutex (`Mutex.lock`/`Mutex.protect`) or touches
     Domain.DLS; the analysis does not prove the lock covers the
     write. *)

open Parsetree
open Ast_iterator

type write = {
  w_target : string;  (* raw token: `cache`, `pool`, `A.tbl` *)
  w_op : string;  (* `:=`, `Hashtbl.replace`, `<- (field set)` ... *)
  w_loc : Location.t;
}

type nondet = { nd_op : string; nd_loc : Location.t }

type pcall = {
  p_api : string;  (* "Parallel.map_reduce", "Domain.spawn", ... *)
  p_loc : Location.t;
  p_callees : string list;  (* raw tokens mentioned inside closure args *)
  p_writes : write list;  (* writes directly inside closure args *)
}

type func = {
  f_name : string;  (* qualified: "Scf.solve", "Sparse.Builder.finalize" *)
  f_path : string list;  (* enclosing module path, e.g. ["Sparse"; "Builder"] *)
  f_file : string;
  f_loc : Location.t;
  f_mentions : (string, Location.t) Hashtbl.t;  (* raw ident tokens *)
  f_writes : write list;
  f_nondet : nondet list;
  f_pcalls : pcall list;
  f_guarded : bool;  (* binding takes a Mutex / uses DLS somewhere *)
}

type cell = {
  c_name : string;  (* qualified *)
  c_kind : string;  (* "ref", "Hashtbl", "array", "record", ... *)
  c_atomic : bool;
  c_file : string;
  c_loc : Location.t;
}

type repo = {
  funcs : (string, func) Hashtbl.t;
  cells : (string, cell) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;  (* "M.Sub" -> "Target" ([module Sub = Target] in M) *)
}

let drop_stdlib = function "Stdlib" :: rest -> rest | l -> l
let token_of lid = String.concat "." (drop_stdlib (Longident.flatten lid))

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Expression classification helpers                                   *)
(* ------------------------------------------------------------------ *)

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e
  | _ -> e

(* Top-level mutable cell constructors. *)
let cell_kind e =
  match (strip e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match drop_stdlib (Longident.flatten txt) with
    | [ "ref" ] -> Some ("ref", false)
    | [ "Hashtbl"; "create" ] -> Some ("Hashtbl", false)
    | [ "Array"; ("make" | "create" | "init" | "create_float" | "make_matrix") ] ->
      Some ("array", false)
    | [ "Bytes"; ("make" | "create") ] -> Some ("bytes", false)
    | [ "Buffer"; "create" ] -> Some ("Buffer", false)
    | [ "Queue"; "create" ] -> Some ("Queue", false)
    | [ "Stack"; "create" ] -> Some ("Stack", false)
    | [ "Atomic"; "make" ] -> Some ("Atomic", true)
    | [ "Mutex"; "create" ] | [ "Condition"; "create" ] -> None
    | _ -> None)
  | Pexp_record _ -> Some ("record", false)  (* possibly-mutable fields *)
  | Pexp_array _ -> Some ("array", false)
  | _ -> None

(* The mutated container of a write operation, as a raw token.  Field
   paths collapse to their base identifier: `pool.tasks` is a write to
   the top-level record `pool`. *)
let rec target_token e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (token_of txt)
  | Pexp_field (b, _) -> target_token b
  | _ -> None

(* op name -> index of the mutated-container argument *)
let write_op flat =
  match flat with
  | [ ":=" ] -> Some (":=", 0)
  | [ ("incr" | "decr") as f ] -> Some (f, 0)
  | [ "Array"; (("set" | "unsafe_set" | "fill" | "blit") as f) ] -> Some ("Array." ^ f, 0)
  | [ "Bytes"; (("set" | "unsafe_set" | "fill" | "blit") as f) ] -> Some ("Bytes." ^ f, 0)
  | [ "Hashtbl"; (("add" | "replace" | "remove" | "reset" | "clear") as f) ] ->
    Some ("Hashtbl." ^ f, 0)
  | [ "Buffer"; (("add_string" | "add_char" | "add_bytes" | "clear" | "reset") as f) ] ->
    Some ("Buffer." ^ f, 0)
  | [ "Queue"; (("pop" | "take" | "clear") as f) ] -> Some ("Queue." ^ f, 0)
  | [ "Queue"; (("push" | "add") as f) ] -> Some ("Queue." ^ f, 1)
  | [ "Stack"; (("pop" | "clear") as f) ] -> Some ("Stack." ^ f, 0)
  | [ "Stack"; "push" ] -> Some ("Stack.push", 1)
  | _ -> None

let nondet_op flat =
  match flat with
  | [ "Hashtbl"; (("iter" | "fold") as f) ] ->
    Some ("Hashtbl." ^ f, "iteration order is unspecified; iterate sorted keys or use an ordered structure")
  | "Random" :: second :: _ when second <> "State" && second <> "split" ->
    Some
      ( "Random." ^ second,
        "global-state RNG; use Random.State (or Numerics.Rng) with an explicit seed" )
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
    Some (String.concat "." flat, "wall clock read; route timing through Obs instead")
  | _ -> None

let parallel_api flat =
  match flat with
  | [ "Parallel"; "map_reduce" ] | [ "map_reduce" ] -> Some "Parallel.map_reduce"
  | [ "Parallel"; "parallel_for" ] | [ "parallel_for" ] -> Some "Parallel.parallel_for"
  | [ "Parallel"; "map" ] -> Some "Parallel.map"
  | [ "Domain"; "spawn" ] -> Some "Domain.spawn"
  | _ -> None

(* Names bound anywhere inside an expression (fun params, lets, match
   patterns): writes to these are local, not top-level-cell writes. *)
let bound_names expr =
  let names = Hashtbl.create 32 in
  let it =
    {
      default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> Hashtbl.replace names txt ()
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  it.expr it expr;
  names

(* ------------------------------------------------------------------ *)
(* Per-binding summary extraction                                      *)
(* ------------------------------------------------------------------ *)

(* Collect mentions/writes/nondet inside [expr].  [bound] filters write
   targets that are locally bound.  When [into_pcalls] is false the
   collector is being used on a closure argument and must not recurse
   into nested parallel calls (they are separate entries). *)
let collect_into ~bound ~mentions ~writes ~nondets ~pcalls expr =
  let add_write ~into args op_and_idx loc =
    match op_and_idx with
    | None -> ()
    | Some (op, idx) -> (
      match List.nth_opt args idx with
      | Some (_, arg) -> (
        match target_token arg with
        | Some t when not (Hashtbl.mem bound t) ->
          into := { w_target = t; w_op = op; w_loc = loc } :: !into
        | _ -> ())
      | None -> ())
  in
  (* Mentions and writes directly inside a closure literal handed to a
     parallel API — these are what the parallel body runs, so they seed
     the race reachability from the pcall itself. *)
  let scan_closure arg =
    let sub_mentions = Hashtbl.create 16 in
    let sub_writes = ref [] in
    let it =
      {
        default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; _ } ->
              let t = token_of txt in
              if not (Hashtbl.mem sub_mentions t) then Hashtbl.replace sub_mentions t e.pexp_loc
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
              let flat = drop_stdlib (Longident.flatten txt) in
              add_write ~into:sub_writes args (write_op flat) e.pexp_loc
            | Pexp_setfield (lhs, _, _) -> (
              match target_token lhs with
              | Some t when not (Hashtbl.mem bound t) ->
                sub_writes :=
                  { w_target = t; w_op = "<- (field set)"; w_loc = e.pexp_loc } :: !sub_writes
              | _ -> ())
            | _ -> ());
            default_iterator.expr self e);
      }
    in
    it.expr it arg;
    ( Hashtbl.fold (fun k _ acc -> k :: acc) sub_mentions [] |> List.sort compare,
      List.rev !sub_writes )
  in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
            let t = token_of txt in
            if not (Hashtbl.mem mentions t) then Hashtbl.replace mentions t e.pexp_loc;
            (match nondet_op (drop_stdlib (Longident.flatten txt)) with
            | Some (op, why) ->
              nondets := { nd_op = op ^ " (" ^ why ^ ")"; nd_loc = e.pexp_loc } :: !nondets
            | None -> ())
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            let flat = drop_stdlib (Longident.flatten txt) in
            add_write ~into:writes args (write_op flat) e.pexp_loc;
            match parallel_api flat with
            | Some api ->
              let callees = ref [] and cl_writes = ref [] in
              List.iter
                (fun (_, arg) ->
                  match (strip arg).pexp_desc with
                  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
                    let ms, ws = scan_closure arg in
                    callees := ms @ !callees;
                    cl_writes := ws @ !cl_writes
                  | Pexp_ident { txt; _ } -> callees := token_of txt :: !callees
                  (* partial application: Parallel.map (f x) arr *)
                  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
                    callees := token_of txt :: !callees
                  | _ -> ())
                args;
              pcalls :=
                {
                  p_api = api;
                  p_loc = e.pexp_loc;
                  p_callees = List.sort_uniq compare !callees;
                  p_writes = !cl_writes;
                }
                :: !pcalls
            | None -> ())
          | Pexp_setfield (lhs, _, _) -> (
            match target_token lhs with
            | Some t when not (Hashtbl.mem bound t) ->
              writes := { w_target = t; w_op = "<- (field set)"; w_loc = e.pexp_loc } :: !writes
            | _ -> ())
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  it.expr it expr

let guard_tokens = [ "Mutex.lock"; "Mutex.protect"; "Domain.DLS" ]

let summarize_binding ~file ~path ~name ~loc expr =
  let bound = bound_names expr in
  let mentions = Hashtbl.create 64 in
  let writes = ref [] and nondets = ref [] and pcalls = ref [] in
  collect_into ~bound ~mentions ~writes ~nondets ~pcalls expr;
  let guarded =
    Hashtbl.fold
      (fun t _ acc ->
        acc
        || List.exists
             (fun g ->
               t = g
               || String.length t > String.length g
                  && String.sub t 0 (String.length g + 1) = g ^ ".")
             guard_tokens)
      mentions false
  in
  {
    f_name = String.concat "." (path @ [ name ]);
    f_path = path;
    f_file = file;
    f_loc = loc;
    f_mentions = mentions;
    f_writes = List.rev !writes;
    f_nondet = List.rev !nondets;
    f_pcalls = List.rev !pcalls;
    f_guarded = guarded;
  }

(* ------------------------------------------------------------------ *)
(* Repo construction                                                   *)
(* ------------------------------------------------------------------ *)

let build (files : Src.file list) =
  let repo =
    { funcs = Hashtbl.create 512; cells = Hashtbl.create 64; aliases = Hashtbl.create 16 }
  in
  let add_func f = if not (Hashtbl.mem repo.funcs f.f_name) then Hashtbl.replace repo.funcs f.f_name f in
  let rec structure ~file ~path str = List.iter (item ~file ~path) str
  and item ~file ~path si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } ->
            (match cell_kind vb.pvb_expr with
            | Some (kind, atomic) ->
              let qname = String.concat "." (path @ [ name ]) in
              if not (Hashtbl.mem repo.cells qname) then
                Hashtbl.replace repo.cells qname
                  {
                    c_name = qname;
                    c_kind = kind;
                    c_atomic = atomic;
                    c_file = file;
                    c_loc = vb.pvb_pat.ppat_loc;
                  }
            | None -> ());
            add_func (summarize_binding ~file ~path ~name ~loc:vb.pvb_pat.ppat_loc vb.pvb_expr)
          | _ ->
            (* let () = ... and destructuring initializers: analyzed
               under a synthetic name so races in init code surface *)
            let line = vb.pvb_pat.ppat_loc.Location.loc_start.Lexing.pos_lnum in
            let name = Printf.sprintf "<init@%d>" line in
            add_func (summarize_binding ~file ~path ~name ~loc:vb.pvb_pat.ppat_loc vb.pvb_expr))
        vbs
    | Pstr_eval (e, _) ->
      let line = si.pstr_loc.Location.loc_start.Lexing.pos_lnum in
      add_func
        (summarize_binding ~file ~path ~name:(Printf.sprintf "<eval@%d>" line)
           ~loc:si.pstr_loc e)
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
      match pmb_expr.pmod_desc with
      | Pmod_structure s -> structure ~file ~path:(path @ [ name ]) s
      | Pmod_ident { txt; _ } ->
        Hashtbl.replace repo.aliases (String.concat "." (path @ [ name ])) (token_of txt)
      | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (f : Src.file) ->
      match f.Src.ast with
      | Src.Structure str when Filename.check_suffix f.Src.path ".ml" ->
        structure ~file:f.Src.path ~path:[ module_of_file f.Src.path ] str
      | _ -> ())
    files;
  repo

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve a raw token mentioned inside module [path] against a table of
   qualified names: innermost enclosing-module prefix first, then outer
   prefixes, then the bare token; module aliases are expanded on the
   token's first component at each prefix. *)
let resolve repo ~path token ~mem =
  let rec prefixes p = match p with [] -> [ [] ] | _ :: _ -> p :: prefixes (List.filteri (fun i _ -> i < List.length p - 1) p) in
  let expand_alias prefix token =
    match String.index_opt token '.' with
    | None -> None
    | Some i ->
      let head = String.sub token 0 i in
      let rest = String.sub token (i + 1) (String.length token - i - 1) in
      let key = String.concat "." (prefix @ [ head ]) in
      (match Hashtbl.find_opt repo.aliases key with
      | Some target -> Some (target ^ "." ^ rest)
      | None -> None)
  in
  let try_prefix prefix =
    let cand = String.concat "." (prefix @ [ token ]) in
    if mem cand then Some cand
    else
      match expand_alias prefix token with
      | Some rewritten when mem rewritten -> Some rewritten
      | _ -> None
  in
  List.find_map try_prefix (prefixes path)

let resolve_func repo ~path token = resolve repo ~path token ~mem:(Hashtbl.mem repo.funcs)
let resolve_cell repo ~path token = resolve repo ~path token ~mem:(Hashtbl.mem repo.cells)

(* Breadth-first reachable set from a list of qualified function names.
   Deterministic: the worklist is seeded in the given order and each
   function's mentions are visited in sorted order.  Returns the set
   with, for each reached function, the root it was first reached
   from. *)
let reachable repo roots =
  let visited : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem repo.funcs r && not (Hashtbl.mem visited r) then begin
        Hashtbl.replace visited r r;
        Queue.push r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    let root = Hashtbl.find visited name in
    let f = Hashtbl.find repo.funcs name in
    let ms = Hashtbl.fold (fun t _ acc -> t :: acc) f.f_mentions [] |> List.sort compare in
    List.iter
      (fun token ->
        match resolve_func repo ~path:f.f_path token with
        | Some callee when not (Hashtbl.mem visited callee) ->
          Hashtbl.replace visited callee root;
          Queue.push callee queue
        | _ -> ())
      ms
  done;
  visited
