(** Execution context for the solver stack.

    The cross-cutting execution knobs — whether to fan work out over the
    domain pool, and which metric registry to report to — bundled into
    one value that a caller builds once and passes everywhere:

    {[
      let ctx = Ctx.make ~parallel:false ~obs () in
      let s = Scf.solve ~ctx p ~vg ~vd in
      let t = Table_cache.get ~ctx p in
      ...
    ]}

    Every solver entry point ({!Observables.current},
    {!Observables.site_charge}, {!Scf.solve}, {!Scf_robust.solve_robust}, {!Iv_table.generate},
    {!Table_cache.probe_disk}/[lookup]/[get]/[get_many], the serve
    layer) takes [?ctx:Ctx.t], default {!default}; it is the only way
    to pass these knobs.  Neither knob changes a number: sequential and
    parallel runs, and obs on and off, are bit-for-bit identical.
    See docs/API.md. *)

type t = {
  parallel : bool;
      (** fan work out over the {!Parallel} domain pool (energy loops,
          device batches).  Results are bit-for-bit identical either
          way; pass [false] from code already running under an outer
          parallel fan-out so nesting does not oversubscribe the
          cores (docs/PERF.md). *)
  obs : Obs.t;  (** metric registry receiving counters/timers/spans *)
}

val default : t
(** The context every entry point uses when [?ctx] is omitted.
    Computed once at module initialization: [parallel] is [true] unless
    [GNRFET_DOMAINS] is set to [0]/[1] at startup (in which case the
    pool is sequential anyway; an empty value counts as unset), and
    [obs] is {!Obs.global} (whose enabled state read [GNRFET_OBS]
    once). *)

val make : ?parallel:bool -> ?obs:Obs.t -> unit -> t
(** {!default} with the given fields overridden. *)

val sequential : t -> t
(** [{ctx with parallel = false}]: the inner-loop context to pass from
    under an outer device-level fan-out. *)
