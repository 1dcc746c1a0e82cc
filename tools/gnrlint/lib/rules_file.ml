(* Per-file syntactic rules (the PR 1 rule set, minus domain-capture,
   which the whole-repo domain-race pass in Rules_global subsumes).

   [report loc rule msg] is supplied by the engine; it applies inline
   suppressions and accumulates the diagnostic. *)

open Parsetree
open Ast_iterator

type ctx = {
  file : string;
  report : Location.t -> string -> string -> unit;
  mutable guard_depth : int;
      (* enclosing if/match constructs; cheap "is this guarded?" signal
         for the exp-log rule *)
  mutable loop_depth : int;
      (* enclosing for/while constructs; the hot-alloc rule only fires
         inside a loop body *)
}

let float_literal_value s =
  match float_of_string_opt s with Some v -> v | None -> Float.nan

(* A float literal, possibly under unary +/-.  Comparisons against an
   exact 0.0 are exempt from the float-eq rule: zero is exactly
   representable and `x = 0.` / `factor <> 0.` are deliberate sentinel
   and skip-zero idioms throughout the numerics layer. *)
let rec nonzero_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> float_literal_value s <> 0.
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ }; _ }, [ (_, arg) ]) ->
    nonzero_float_literal arg
  | _ -> false

(* Does the expression (an exp/log argument) syntactically contain a
   clamp — Float.max/min/clamp or a local min/max — or is it constant? *)
let arg_looks_clamped arg =
  let found = ref false in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_constant _ -> found := true
          | Pexp_ident { txt; _ } -> (
            match Longident.flatten txt with
            | [ "Float"; ("max" | "min" | "clamp") ]
            | [ ("max" | "min" | "clamp") ]
            | [ "Stdlib"; ("max" | "min") ] ->
              found := true
            | _ -> ())
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  it.expr it arg;
  !found

let numerics_hot_path file = Src.in_dir "lib/numerics" file || Src.in_dir "lib/negf" file
let fermi_negf_path file = Src.in_dir "lib/physics" file || Src.in_dir "lib/negf" file

let is_tol_module file =
  Filename.basename file = "tol.ml" || Filename.basename file = "tol.mli"

let check_float_eq ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, [ (_, a); (_, b) ])
    when (op = "=" || op = "<>" || op = "==" || op = "!=")
         && (nonzero_float_literal a || nonzero_float_literal b) ->
    ctx.report e.pexp_loc "float-eq"
      (Printf.sprintf
         "structural `%s` against a nonzero float literal; compare with an explicit \
          tolerance (e.g. Float.abs (x -. y) <= tol) instead"
         op)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, a); (_, b) ])
    when (match Longident.flatten txt with
         | [ "compare" ] | [ "Stdlib"; "compare" ] -> true
         | _ -> false)
         && (nonzero_float_literal a || nonzero_float_literal b) ->
    ctx.report e.pexp_loc "float-eq"
      "polymorphic `compare` on a nonzero float literal; use Float.compare with \
       explicit tolerance handling"
  | _ -> ()

let check_exp_log ctx e =
  if fermi_negf_path ctx.file then
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, arg) ]) -> (
      match Longident.flatten txt with
      | [ ("exp" | "log" | "log10" | "expm1" | "log1p") ]
      | [ "Float"; ("exp" | "log" | "log10" | "expm1" | "log1p") ] ->
        let fn = String.concat "." (Longident.flatten txt) in
        if ctx.guard_depth = 0 && not (arg_looks_clamped arg) then
          ctx.report e.pexp_loc "exp-log"
            (Printf.sprintf
               "`%s` on an unguarded argument in a Fermi/NEGF path; clamp the exponent \
                (Float.max/Float.min) or branch on its range to avoid overflow/NaN"
               fn)
      | _ -> ())
    | _ -> ()

let check_magic_tol ctx e =
  if not (is_tol_module ctx.file) then
    match e.pexp_desc with
    | Pexp_constant (Pconst_float (s, _)) ->
      let v = float_literal_value s in
      (* gnrlint: allow magic-tol — this literal IS the rule's threshold *)
      if v > 0. && v <= 1e-250 then
        ctx.report e.pexp_loc "magic-tol"
          (Printf.sprintf
             "inline denormal-range tolerance %s; route it through Numerics.Tol so pivot \
              and underflow floors stay consistent across solvers"
             s)
    | _ -> ()

let check_catch_all ctx e =
  match e.pexp_desc with
  | Pexp_try (_, cases) ->
    List.iter
      (fun c ->
        match (c.pc_lhs.ppat_desc, c.pc_guard) with
        | Ppat_any, None ->
          ctx.report c.pc_lhs.ppat_loc "catch-all"
            "`try ... with _ ->` swallows every exception (including Out_of_memory and \
             Stack_overflow); match the specific exceptions you expect"
        | _ -> ())
      cases
  | _ -> ()

let check_silent_swallow ctx e =
  match e.pexp_desc with
  | Pexp_try (_, cases) ->
    List.iter
      (fun c ->
        match c.pc_rhs.pexp_desc with
        | Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) ->
          ctx.report c.pc_rhs.pexp_loc "silent-swallow"
            "exception handler silently swallows the failure (body is `()`); count it \
             in an Obs counter, quarantine the artifact, or use `match ... with \
             exception` to mark the ignore as deliberate"
        | _ -> ())
      cases
  | _ -> ()

let check_failwith ctx e =
  if numerics_hot_path ctx.file then
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | [ "failwith" ] | [ "Stdlib"; "failwith" ] ->
        ctx.report e.pexp_loc "failwith-solver"
          "`failwith` in a solver hot path; prefer raising a typed \
           Robust_error.Error (Singular, Iterative_no_convergence) so SCF \
           drivers can recover without string matching"
      | _ -> ())
    | _ -> ()

(* Every Cmatrix arithmetic call allocates a fresh matrix, so one inside
   a loop in a NEGF module is either a regression or a deliberately-kept
   naive reference such as Rgf_block (which should carry an inline
   suppression).  The gate is a "negf" path segment so the fixture
   corpus under lint_fixtures/negf/ is covered by the same predicate as
   lib/negf. *)

let hot_alloc_fns = [ "mul"; "inverse"; "adjoint"; "add"; "sub" ]

let negf_segment file = List.mem "negf" (String.split_on_char '/' file)

let check_hot_alloc ctx e =
  if ctx.loop_depth > 0 && negf_segment ctx.file then
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Cmatrix", fn); _ }; _ },
          _ )
      when List.mem fn hot_alloc_fns ->
      ctx.report e.pexp_loc "hot-alloc"
        (Printf.sprintf
           "allocating `Cmatrix.%s` inside a loop in a NEGF hot path; hoist it \
            out of the loop or work in preallocated storage, or suppress where a \
            naive reference oracle is kept on purpose"
           fn)
    | _ -> ()

let check_case_assert_false ctx c =
  match c.pc_rhs.pexp_desc with
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
    ctx.report c.pc_rhs.pexp_loc "assert-false"
      "`assert false` as a match-arm body; make the invariant explicit (refactor the \
       type, or raise a named exception with context)"
  | _ -> ()

let make_iterator ctx =
  let expr self e =
    check_float_eq ctx e;
    check_exp_log ctx e;
    check_magic_tol ctx e;
    check_catch_all ctx e;
    check_silent_swallow ctx e;
    check_failwith ctx e;
    check_hot_alloc ctx e;
    match e.pexp_desc with
    | Pexp_for (_, lo, hi, _, body) ->
      self.expr self lo;
      self.expr self hi;
      ctx.loop_depth <- ctx.loop_depth + 1;
      self.expr self body;
      ctx.loop_depth <- ctx.loop_depth - 1
    | Pexp_while (cond, body) ->
      ctx.loop_depth <- ctx.loop_depth + 1;
      self.expr self cond;
      self.expr self body;
      ctx.loop_depth <- ctx.loop_depth - 1
    | Pexp_ifthenelse (cond, then_, else_) ->
      self.expr self cond;
      ctx.guard_depth <- ctx.guard_depth + 1;
      self.expr self then_;
      Option.iter (self.expr self) else_;
      ctx.guard_depth <- ctx.guard_depth - 1
    | Pexp_match (scrut, cases) ->
      self.expr self scrut;
      ctx.guard_depth <- ctx.guard_depth + 1;
      List.iter (self.case self) cases;
      ctx.guard_depth <- ctx.guard_depth - 1
    | _ -> default_iterator.expr self e
  in
  let case self c =
    check_case_assert_false ctx c;
    default_iterator.case self c
  in
  { default_iterator with expr; case }

let lint ~report (file : Src.file) =
  let ctx = { file = file.Src.path; report; guard_depth = 0; loop_depth = 0 } in
  let it = make_iterator ctx in
  match file.Src.ast with
  | Src.Structure str -> it.structure it str
  | Src.Signature sg -> it.signature it sg
  | Src.Parse_failed (exn, loc) ->
    report loc "parse-error" (Printf.sprintf "failed to parse: %s" (Printexc.to_string exn))

(* missing-mli is a file-set rule, not an AST rule. *)
let check_missing_mli ~report_file files =
  let set = Hashtbl.create 128 in
  List.iter (fun (f : Src.file) -> Hashtbl.replace set f.Src.path ()) files;
  List.iter
    (fun (f : Src.file) ->
      if Src.in_dir "lib" f.Src.path && Filename.check_suffix f.Src.path ".ml" then begin
        let mli = f.Src.path ^ "i" in
        if not (Hashtbl.mem set mli) then
          report_file f.Src.path "missing-mli"
            "library module has no interface file; add a .mli so the public surface \
             (and its documentation) is explicit"
      end)
    files
