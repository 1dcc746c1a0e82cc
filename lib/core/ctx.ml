type t = { parallel : bool; obs : Obs.t }

(* Read the environment once, at module initialization.  GNRFET_DOMAINS
   <= 1 means the pool is sequential whatever [parallel] says, so
   defaulting [parallel] to false there only skips pool bookkeeping —
   results are bit-for-bit identical either way (docs/PERF.md).  An
   empty value counts as unset, as in [Parallel.num_domains].
   GNRFET_OBS is consumed by Obs.global's own initializer. *)
let default =
  let parallel =
    match Option.map String.trim (Sys.getenv_opt "GNRFET_DOMAINS") with
    | None | Some "" -> true
    | Some s -> ( match int_of_string_opt s with Some d -> d > 1 | None -> true)
  in
  { parallel; obs = Obs.global }

let make ?(parallel = default.parallel) ?(obs = default.obs) () = { parallel; obs }

let sequential t = { t with parallel = false }
