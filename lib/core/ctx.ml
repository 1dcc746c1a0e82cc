type t = { parallel : bool; obs : Obs.t }

(* Read the environment once, at module initialization.  GNRFET_DOMAINS
   <= 1 means the pool is sequential whatever [parallel] says, so
   defaulting [parallel] to false there only skips pool bookkeeping —
   results are bit-for-bit identical either way (docs/PERF.md).
   GNRFET_OBS is consumed by Obs.global's own initializer. *)
let default =
  let parallel =
    match Sys.getenv_opt "GNRFET_DOMAINS" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some d -> d > 1 | None -> true)
    | None -> true
  in
  { parallel; obs = Obs.global }

let make ?(parallel = default.parallel) ?(obs = default.obs) () = { parallel; obs }

let sequential t = { t with parallel = false }
