type bias = { mu_s : float; mu_d : float; kt : float }

let energy_grid ~lo ~hi ~de =
  if hi <= lo then invalid_arg "Observables.energy_grid: empty range";
  if de <= 0. then invalid_arg "Observables.energy_grid: non-positive spacing";
  let n = max 3 (1 + int_of_float (Float.ceil ((hi -. lo) /. de))) in
  Vec.linspace lo hi n

(* Energy points are embarrassingly parallel; all three observables fan
   the grid out over the persistent domain pool in fixed contiguous
   chunks and combine per-chunk partials in chunk order, so the result
   is bit-for-bit identical for every GNRFET_DOMAINS setting including
   the sequential [ctx.parallel = false] path (see docs/PERF.md).  Chunked
   trapezoid partials re-evaluate one boundary sample per chunk — a few
   extra RGF sweeps per grid, negligible against the win. *)

let domains_of parallel = if parallel then None else Some 1

(* Per-energy-grid instrumentation: one timer start/stop pair per
   observable call (never per energy point) and per-chunk counter adds,
   so the energy loop itself stays allocation-free; energies/sec is the
   counter divided by the timer (docs/OBS.md). *)
let transmission_spectrum ?eta ?(ctx = Ctx.default) ~egrid chain_at =
  let { Ctx.parallel; obs } = ctx in
  let tm = Obs.Timer.make ~obs "negf.transmission_spectrum" in
  let c_energies = Obs.Counter.make ~obs "rgf.transmission_energies" in
  let t0 = Obs.Timer.start tm in
  let ne = Array.length egrid in
  let out = Array.make ne 0. in
  (* Chunks write disjoint index ranges of [out].  gnrlint: allow-shared *)
  ignore
    (Parallel.map_reduce ?domains:(domains_of parallel) ~n:ne
       ~worker:(fun _ -> Rgf.workspace ())
       ~body:(fun ws ~lo ~hi ->
         Obs.Counter.add c_energies (hi - lo);
         for k = lo to hi - 1 do
           out.(k) <- Rgf.transmission_into ?eta ws (chain_at egrid.(k)) egrid.(k)
         done)
       ~combine:(fun () () -> ())
       ());
  Obs.Timer.stop tm t0;
  out

let current ?eta ?(ctx = Ctx.default) ~bias ~egrid chain_at =
  let { Ctx.parallel; obs } = ctx in
  let tm = Obs.Timer.make ~obs "negf.current" in
  let c_energies = Obs.Counter.make ~obs "rgf.transmission_energies" in
  let t0 = Obs.Timer.start tm in
  let { mu_s; mu_d; kt } = bias in
  let integrand ws k =
    let e = egrid.(k) in
    let window = Fermi.window ~mu1:mu_s ~mu2:mu_d ~kt e in
    if Float.abs window < 1e-14 then 0.
    else Rgf.transmission_into ?eta ws (chain_at e) e *. window
  in
  (* Trapezoid rule as a chunked reduction over the ne-1 intervals. *)
  let integral =
    Parallel.map_reduce ?domains:(domains_of parallel)
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ -> Rgf.workspace ())
      ~body:(fun ws ~lo ~hi ->
        Obs.Counter.add c_energies (hi - lo + 1);
        let acc = ref 0. in
        let prev = ref (integrand ws lo) in
        for k = lo to hi - 1 do
          let cur = integrand ws (k + 1) in
          acc := !acc +. (0.5 *. (egrid.(k + 1) -. egrid.(k)) *. (!prev +. cur));
          prev := cur
        done;
        !acc)
      ~combine:( +. ) 0.
  in
  Obs.Timer.stop tm t0;
  Const.g0 *. integral

(* Per-worker scratch for the charge integration: the RGF workspace plus
   two sample buffers (signed occupied spectral weight at the previous
   and current energy point), swapped as the chunk walks its intervals. *)
type charge_scratch = {
  ws : Rgf.workspace;
  mutable s_prev : float array;
  mutable s_cur : float array;
}

let site_charge ?eta ?(ctx = Ctx.default) ~bias ~egrid ~midgap chain_at =
  let { Ctx.parallel; obs } = ctx in
  let tm = Obs.Timer.make ~obs "negf.site_charge" in
  let c_energies = Obs.Counter.make ~obs "rgf.spectra_energies" in
  let t0 = Obs.Timer.start tm in
  (* The timer must stop on every path: the midgap-length invalid_arg
     below (and anything chain_at raises) would otherwise leak the
     sample (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop tm t0) @@ fun () ->
  let { mu_s; mu_d; kt } = bias in
  let chain0 = chain_at egrid.(0) in
  let n = Array.length chain0.Rgf.onsite in
  if Array.length midgap <> n then
    invalid_arg "Observables.site_charge: midgap length mismatch";
  (* The k = 0 chain is reused rather than rebuilt (chain_at may do real
     work per call, e.g. energy-dependent self-energies). *)
  let chain_of k = if k = 0 then chain0 else chain_at egrid.(k) in
  (* Signed occupied spectral weight per site at energy index k: an
     electron count above the local mid-gap weighted by the contact
     Fermi factors, a (negated) hole count below it weighted by the
     complements, so both integrals converge within a few kT of the
     contact potentials. *)
  let sample_into scratch dst k =
    let e = egrid.(k) in
    ignore (Rgf.spectra_into ?eta scratch.ws (chain_of k) e);
    let a1 = Rgf.a1 scratch.ws and a2 = Rgf.a2 scratch.ws in
    let fs = Fermi.occupation ~mu:mu_s ~kt e in
    let fd = Fermi.occupation ~mu:mu_d ~kt e in
    for i = 0 to n - 1 do
      dst.(i) <-
        (if e >= midgap.(i) then (a1.(i) *. fs) +. (a2.(i) *. fd)
         else -.((a1.(i) *. (1. -. fs)) +. (a2.(i) *. (1. -. fd))))
    done
  in
  (* Trapezoid accumulation of the occupied spectral weight over the
     ne-1 energy intervals, chunked: each chunk integrates its intervals
     into fresh electron/hole accumulators (split by sign so electron
     and hole counts stay separately positive). *)
  let electrons, holes =
    Parallel.map_reduce ?domains:(domains_of parallel)
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ ->
        { ws = Rgf.workspace ~hint:n (); s_prev = Array.make n 0.; s_cur = Array.make n 0. })
      ~body:(fun scratch ~lo ~hi ->
        (* One boundary sample plus one per interval (docs/OBS.md). *)
        Obs.Counter.add c_energies (hi - lo + 1);
        let electrons = Array.make n 0. and holes = Array.make n 0. in
        sample_into scratch scratch.s_prev lo;
        for k = lo to hi - 1 do
          sample_into scratch scratch.s_cur (k + 1);
          let h = 0.5 *. (egrid.(k + 1) -. egrid.(k)) in
          let sp = scratch.s_prev and sc = scratch.s_cur in
          for i = 0 to n - 1 do
            let v = h *. (sp.(i) +. sc.(i)) in
            if v >= 0. then electrons.(i) <- electrons.(i) +. v
            else holes.(i) <- holes.(i) -. v
          done;
          scratch.s_prev <- sc;
          scratch.s_cur <- sp
        done;
        (electrons, holes))
      ~combine:(fun (ea, ha) (eb, hb) ->
        for i = 0 to n - 1 do
          ea.(i) <- ea.(i) +. eb.(i);
          ha.(i) <- ha.(i) +. hb.(i)
        done;
        (ea, ha))
      (Array.make n 0., Array.make n 0.)
  in
  (* Spin degeneracy 2; 2π spectral normalization; electrons negative. *)
  let scale = 2. *. Const.q /. (2. *. Float.pi) in
  Array.init n (fun i -> -.scale *. (electrons.(i) -. holes.(i)))
