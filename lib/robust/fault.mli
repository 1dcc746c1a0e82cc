(** Deterministic, seeded fault injection at named solver sites.

    The robustness layer (escalation ladders, quarantines, cache
    hardening) only earns its keep if every recovery path is actually
    exercised; this module lets tests and CI drive those paths
    deterministically.  Solver code declares a {e site} once at module
    level and asks it on the failure-prone operation:

    {[
      let fault_cg = Fault.site "sparse.cg"
      ...
      Fault.fail fault_cg;          (* raises Injected_fault when armed & due *)
    ]}

    {b Cost contract.}  Mirrors [Obs]: while no campaign is armed (the
    default), {!fail} and {!should_fail} are a single mutable-bool load
    and branch — no allocation, no hashing — so sites can live on hot
    paths permanently.

    {b Determinism.}  Whether hit [k] of site [s] fires depends only on
    the campaign seed, the site name and [k] (a splitmix64 mix), never on
    wall clock, scheduling or address layout: a campaign spec reproduces
    the same fault pattern on every run for a serial workload, and
    per-site patterns are independent of each other.

    {b Spec grammar} ([GNRFET_FAULT] or {!arm}):

    {v <spec>  ::= <entry> ("," <entry>)* [":" <seed>]
<entry> ::= <site-pattern> [<mode>]
<mode>  ::= "@" <float>      probability per hit, e.g. sparse.cg@0.02
          | "#" <n>          exactly hit n (1-based), e.g. scf.charge#1
          | "#" <a> "-" <b>  hits a through b inclusive
          | "%" <k>          every k-th hit v}

    A site pattern is an exact site name or a prefix ending in ["*"]
    (["scf.*"]).  A bare entry (no mode) means every hit fires.  The
    optional trailing [:<seed>] (default 1) feeds the probabilistic
    mode.  Examples: ["table_cache.read#1"],
    ["sparse.cg@0.05,mna.newton@0.02:42"].  See docs/ROBUST.md. *)

type site
(** A named injection point.  Create once at module level ({!site}
    interns by name: same name, same site). *)

val splitmix64 : int64 -> int64
(** The splitmix64 finalizer behind the deterministic hit decisions,
    exposed so other deterministic machinery ([Rng.int64], the campaign
    sampler, the client retry jitter, the [gnrtbl] corruption-matrix
    fuzzer in test/test_tbl_format.ml) shares one audited mixing
    function instead of growing private RNGs. *)

val site : string -> site
(** Find-or-create the site registered under this name. *)

val site_name : site -> string

val fail : site -> unit
(** Raise [Robust_error.Error (Injected_fault { site; hit })] if an
    armed campaign selects this hit of the site; otherwise (and always
    when disarmed) return unit.  [hit] is 1-based and counts calls made
    while armed.  Each armed call advances the site's hit counter; each
    injection also bumps the obs counter [robust.fault.<site-name>]. *)

val should_fail : site -> bool
(** Decision without the raise, for sites that model failure as a
    return value (e.g. a Newton solve returning [None]).  Same
    counting and accounting as {!fail}. *)

val active : unit -> bool
(** True while a campaign is armed. *)

val site_armed : string -> bool
(** True when a campaign is armed {e and} one of its entries matches
    this site name.  Tests use it to skip assertions that are only
    meaningful when a given site cannot fire (docs/ROBUST.md). *)

val hits : site -> int
(** Hits recorded at this site since it was last (re)armed. *)

val injected : site -> int
(** Injections fired at this site since it was last (re)armed. *)

val arm : string -> unit
(** Parse and arm a campaign spec, resetting all hit counters.
    @raise Invalid_argument on a malformed spec (message names the
    offending fragment). *)

val disarm : unit -> unit
(** Stop injecting; sites return to the single-branch disabled path. *)

val current_spec : unit -> string option
(** The armed spec verbatim, for reports. *)

val with_spec : string -> (unit -> 'a) -> 'a
(** [with_spec spec f] arms [spec], runs [f], and restores the previous
    campaign (or disarmed state) whether [f] returns or raises. *)
