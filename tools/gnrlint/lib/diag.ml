(* Diagnostics and the rule registry.

   Every rule gnrlint can emit is declared here with an id, a version,
   a severity and its SARIF-facing descriptions.  The version is part of
   the baseline format: a baseline entry records the rule version it was
   accepted under, so tightening a rule (bumping its version) invalidates
   only that rule's entries instead of the whole baseline. *)

type severity = Error | Warning | Note

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

type rule = {
  id : string;
  version : int;
  severity : severity;
  summary : string;  (* one line; SARIF shortDescription *)
  help : string;  (* rationale; SARIF fullDescription *)
}

(* Versions start at 1.  Bump a rule's version when its matching logic
   is tightened enough that old accepted findings should be re-reviewed
   (docs/LINT.md, "Versioned baseline"). *)
let rules =
  [
    {
      id = "float-eq";
      version = 1;
      severity = Warning;
      summary = "structural equality against a nonzero float literal";
      help =
        "=/<>/==/!=/compare against a nonzero float literal; compare with an \
         explicit tolerance instead.  Exact 0.0 comparisons are exempt \
         (sentinel and skip-zero idioms).";
    };
    {
      id = "exp-log";
      version = 1;
      severity = Warning;
      summary = "unguarded exp/log in a Fermi/NEGF path";
      help =
        "exp/log on an unguarded argument in lib/physics or lib/negf can \
         overflow to inf or produce NaN; clamp the argument or branch on its \
         range.";
    };
    {
      id = "magic-tol";
      version = 1;
      severity = Warning;
      summary = "inline denormal-range tolerance outside Numerics.Tol";
      help =
        "Pivot and underflow floors (<= 1e-250) must be routed through \
         Numerics.Tol so they stay consistent across solvers.";
    };
    {
      id = "catch-all";
      version = 1;
      severity = Warning;
      summary = "`try ... with _ ->` swallows every exception";
      help =
        "A catch-all handler also swallows Out_of_memory and Stack_overflow; \
         match the specific exceptions you expect.";
    };
    {
      id = "silent-swallow";
      version = 1;
      severity = Warning;
      summary = "exception handler whose whole body is ()";
      help =
        "A handler that does literally nothing erases the failure: no \
         counter, no quarantine, no log line.  Count it, quarantine the \
         artifact, or use `match ... with exception` to mark the ignore as \
         deliberate.";
    };
    {
      id = "failwith-solver";
      version = 1;
      severity = Error;
      summary = "`failwith` in a numerics/NEGF solver hot path";
      help =
        "Recovery paths (escalation ladder, Newton retries, Monte-Carlo \
         quarantine) must not string-match Failure messages; raise a typed \
         Robust_error.Error (Singular, Iterative_no_convergence) through \
         Robust_error.raise_ instead.";
    };
    {
      id = "assert-false";
      version = 1;
      severity = Warning;
      summary = "`assert false` as a match-arm body";
      help =
        "Make the invariant explicit: refactor the type, or raise a named \
         exception with context.";
    };
    {
      id = "missing-mli";
      version = 1;
      severity = Note;
      summary = "library module without an interface file";
      help =
        "Every lib/ module needs a .mli so the public surface (and its \
         documentation) is explicit.";
    };
    {
      id = "domain-race";
      version = 1;
      severity = Error;
      summary = "unguarded top-level mutable state reachable from a parallel closure";
      help =
        "A closure handed to Parallel.map_reduce / Parallel.parallel_for / \
         Parallel.map / Domain.spawn reaches (through the whole-repo call \
         graph) a function that mutates a top-level ref / Hashtbl / array / \
         mutable record without a Mutex/Atomic/DLS guard on the access \
         path.  Under more than one domain this is a data race: the \
         bit-for-bit determinism contract (docs/PERF.md) is void.";
    };
    {
      id = "nondet-path";
      version = 1;
      severity = Error;
      summary = "order- or clock-dependent operation on the bit-identity surface";
      help =
        "Hashtbl.iter/fold (unspecified order), the global-state Random API, \
         or wall-clock reads are reachable from the deterministic surface \
         (Observables.*, Scf.solve, Rgf.*, Iv_table.generate).  Results \
         produced there must be bit-for-bit reproducible at any worker \
         count; iterate sorted keys, use Random.State / Rng with explicit \
         seeding, or move timing into Obs.";
    };
    {
      id = "lock-safety";
      version = 1;
      severity = Error;
      summary = "Mutex.lock whose unlock is not guaranteed on all paths";
      help =
        "An exception raised while the lock is held (or a path that never \
         unlocks) deadlocks every later critical section.  Use \
         Mutex.protect, or Fun.protect ~finally:(fun () -> Mutex.unlock m).";
    };
    {
      id = "span-balance";
      version = 1;
      severity = Warning;
      summary = "obs timer/span begin without a guaranteed end";
      help =
        "An Obs.Timer.start (or manual span enter) whose stop is skipped on \
         an early raise loses the sample and, for spans, corrupts the \
         per-domain span stack.  Use Obs.Span.run, or Fun.protect \
         ~finally:(fun () -> Obs.Timer.stop t t0).";
    };
    {
      id = "hot-alloc";
      version = 1;
      severity = Warning;
      summary = "allocating Cmatrix call inside a NEGF loop";
      help =
        "Cmatrix.mul/inverse/adjoint/add/sub allocate a fresh matrix per \
         call; inside a per-energy or per-block loop in lib/negf this turns \
         the sweep into a GC benchmark.  Hoist the allocation out of the \
         loop or work in preallocated storage instead, or suppress \
         explicitly where a naive reference oracle is kept on purpose.";
    };
    {
      id = "parse-error";
      version = 1;
      severity = Error;
      summary = "source file failed to parse";
      help = "gnrlint could not parse the file with compiler-libs.";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules
let rule_version id = match find_rule id with Some r -> r.version | None -> 1

let rule_severity id =
  match find_rule id with Some r -> r.severity | None -> Warning

type t = {
  d_file : string;
  d_line : int;
  d_col : int;
  d_rule : string;
  d_msg : string;
}

(* The rendered form is the unit of baseline matching: file, position,
   versioned rule tag and message must all be identical. *)
let to_string d =
  Printf.sprintf "%s:%d:%d: [%s@v%d] %s" d.d_file d.d_line d.d_col d.d_rule
    (rule_version d.d_rule) d.d_msg

let compare_diag a b =
  match compare a.d_file b.d_file with
  | 0 -> (
    match compare a.d_line b.d_line with
    | 0 -> (
      match compare a.d_col b.d_col with
      | 0 -> compare (a.d_rule, a.d_msg) (b.d_rule, b.d_msg)
      | c -> c)
    | c -> c)
  | c -> c
