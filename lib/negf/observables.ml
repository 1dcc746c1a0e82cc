type bias = { mu_s : float; mu_d : float; kt : float }

let energy_grid ~lo ~hi ~de =
  if hi <= lo then invalid_arg "Observables.energy_grid: empty range";
  if de <= 0. then invalid_arg "Observables.energy_grid: non-positive spacing";
  let n = max 3 (1 + int_of_float (Float.ceil ((hi -. lo) /. de))) in
  Vec.linspace lo hi n

(* Energy points are embarrassingly parallel; both observables fan
   the grid out over the domain pool in fixed contiguous chunks and
   combine per-chunk partials in chunk order, so the result is
   bit-for-bit identical for every GNRFET_DOMAINS setting including the
   sequential width-1 path (see docs/PERF.md).  Each
   chunk's trapezoid partial needs the sample at its first grid point;
   both observables reuse it when the same worker has just ended the
   previous chunk there, which is every chunk but a slot's first.  A
   reused sample is the same bits as a fresh one, so a partial depends
   on its range only. *)

(* Per-energy-grid instrumentation: one timer start/stop pair per
   observable call (never per energy point) and per-chunk counter adds,
   so the energy loop itself stays allocation-free; energies/sec is the
   counter divided by the timer (docs/OBS.md). *)
let tm_current = Obs.Timer.make "negf.current"
let c_transmission = Obs.Counter.make "rgf.transmission_energies"
let tm_charge = Obs.Timer.make "negf.site_charge"
let c_spectra = Obs.Counter.make "rgf.spectra_energies"

(* Per-worker scratch for the current: the RGF workspace and the
   integrand at grid index [last] (-1: none yet), which the next chunk
   reuses when it starts there. *)
type current_scratch = { ws : Rgf.workspace; mutable prev : float; mutable last : int }

let current ?eta ~bias ~egrid chain_at =
  let t0 = Obs.Timer.start tm_current in
  let { mu_s; mu_d; kt } = bias in
  let integrand ws k =
    let e = egrid.(k) in
    let window = Fermi.window ~mu1:mu_s ~mu2:mu_d ~kt e in
    if Float.abs window < 1e-14 then 0.
    else Rgf.transmission_into ?eta ws (chain_at e) e *. window
  in
  (* Trapezoid rule as a chunked reduction over the ne-1 intervals. *)
  let integral =
    Parallel.map_reduce
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ -> { ws = Rgf.workspace (); prev = 0.; last = -1 })
      ~body:(fun w ~lo ~hi ->
        let reused = w.last = lo in
        Obs.Counter.add c_transmission (if reused then hi - lo else hi - lo + 1);
        let acc = ref 0. in
        let prev = ref (if reused then w.prev else integrand w.ws lo) in
        for k = lo to hi - 1 do
          let cur = integrand w.ws (k + 1) in
          acc := !acc +. (0.5 *. (egrid.(k + 1) -. egrid.(k)) *. (!prev +. cur));
          prev := cur
        done;
        w.prev <- !prev;
        w.last <- hi;
        !acc)
      ~combine:( +. ) 0.
  in
  Obs.Timer.stop tm_current t0;
  Const.g0 *. integral

(* Signed occupied spectral weight of one site at energy [e]: an
   electron count above the local mid-gap [m] weighted by the contact
   Fermi factors [fs]/[fd], a (negated) hole count below it weighted by
   the complements, so both integrals converge within a few kT of the
   contact potentials.  The annotations keep [>=] a float comparison;
   unannotated it is the polymorphic compare, which boxes both operands. *)
let[@inline] occupied (e : float) (m : float) fs fd a1 a2 =
  if e >= m then (a1 *. fs) +. (a2 *. fd)
  else -.((a1 *. (1. -. fs)) +. (a2 *. (1. -. fd)))

(* One trapezoid term, split by sign so electron and hole counts stay
   separately positive. *)
let[@inline] accumulate electrons holes i v =
  if v >= 0. then electrons.(i) <- electrons.(i) +. v
  else holes.(i) <- holes.(i) -. v

(* Per-worker scratch for the charge integration: one RGF workspace per
   kernel lane, and the sample at grid index [last] (-1: none yet),
   which the next chunk reuses when it starts there. *)
type charge_scratch = {
  wx : Rgf.workspace;
  wy : Rgf.workspace;
  prev : float array;
  mutable last : int;
}

let site_charge ?eta ~bias ~egrid ~midgap chain_at =
  let t0 = Obs.Timer.start tm_charge in
  (* The timer must stop on every path: the length checks below (and
     anything chain_at raises) would otherwise leak the sample (gnrlint
     span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop tm_charge t0) @@ fun () ->
  let { mu_s; mu_d; kt } = bias in
  let chain0 = chain_at egrid.(0) in
  let n = Array.length chain0.Rgf.onsite in
  if Array.length midgap <> n then
    invalid_arg "Observables.site_charge: midgap length mismatch";
  (* The k = 0 chain is reused rather than rebuilt (chain_at may do real
     work per call, e.g. energy-dependent self-energies).  Every chain
     must have the first one's length: the kernel's two lanes share one
     length, and the per-site loops read [0, n). *)
  let chain_of k =
    let c = if k = 0 then chain0 else chain_at egrid.(k) in
    if Array.length c.Rgf.onsite <> n then
      invalid_arg "Observables.site_charge: chain length changes with energy";
    c
  in
  (* Trapezoid accumulation of the occupied spectral weight over the
     ne-1 energy intervals, chunked: each chunk integrates its intervals
     into fresh electron/hole accumulators, two intervals per kernel
     call. *)
  let electrons, holes =
    Parallel.map_reduce
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ ->
        { wx = Rgf.workspace ~hint:n (); wy = Rgf.workspace ~hint:n ();
          prev = Array.make n 0.; last = -1 })
      ~body:(fun w ~lo ~hi ->
        let electrons = Array.make n 0. and holes = Array.make n 0. in
        let prev = w.prev in
        (* The sample at [lo] is the one this worker's previous chunk
           ended on, or one fresh sweep: bit-identical either way, so
           the chunk's result depends on its range only (docs/PERF.md). *)
        let reused = w.last = lo in
        Obs.Counter.add c_spectra (if reused then hi - lo else hi - lo + 1);
        if not reused then begin
          let e = egrid.(lo) in
          ignore (Rgf.spectra_into ?eta w.wx (chain_of lo) e);
          let a1 = Rgf.a1 w.wx and a2 = Rgf.a2 w.wx in
          let fs = Fermi.occupation ~mu:mu_s ~kt e in
          let fd = Fermi.occupation ~mu:mu_d ~kt e in
          for i = 0 to n - 1 do
            prev.(i) <- occupied e midgap.(i) fs fd a1.(i) a2.(i)
          done
        end;
        (* Intervals k and k+1 from one two-lane sweep at k+1 and k+2;
           each site adds interval k before k+1, as a one-interval walk
           would. *)
        let k = ref lo in
        while !k + 2 <= hi do
          let e0 = egrid.(!k) and e1 = egrid.(!k + 1) and e2 = egrid.(!k + 2) in
          Rgf.spectra_pair_into ?eta w.wx (chain_of (!k + 1)) e1 w.wy
            (chain_of (!k + 2)) e2;
          let a1 = Rgf.a1 w.wx and a2 = Rgf.a2 w.wx in
          let b1 = Rgf.a1 w.wy and b2 = Rgf.a2 w.wy in
          let fs1 = Fermi.occupation ~mu:mu_s ~kt e1 in
          let fd1 = Fermi.occupation ~mu:mu_d ~kt e1 in
          let fs2 = Fermi.occupation ~mu:mu_s ~kt e2 in
          let fd2 = Fermi.occupation ~mu:mu_d ~kt e2 in
          let h1 = 0.5 *. (e1 -. e0) and h2 = 0.5 *. (e2 -. e1) in
          for i = 0 to n - 1 do
            let m = midgap.(i) in
            let s1 = occupied e1 m fs1 fd1 a1.(i) a2.(i) in
            let s2 = occupied e2 m fs2 fd2 b1.(i) b2.(i) in
            accumulate electrons holes i (h1 *. (prev.(i) +. s1));
            accumulate electrons holes i (h2 *. (s1 +. s2));
            prev.(i) <- s2
          done;
          k := !k + 2
        done;
        (* An odd chunk ends on one single-lane interval. *)
        if !k < hi then begin
          let e0 = egrid.(!k) and e1 = egrid.(!k + 1) in
          ignore (Rgf.spectra_into ?eta w.wx (chain_of (!k + 1)) e1);
          let a1 = Rgf.a1 w.wx and a2 = Rgf.a2 w.wx in
          let fs1 = Fermi.occupation ~mu:mu_s ~kt e1 in
          let fd1 = Fermi.occupation ~mu:mu_d ~kt e1 in
          let h1 = 0.5 *. (e1 -. e0) in
          for i = 0 to n - 1 do
            let s1 = occupied e1 midgap.(i) fs1 fd1 a1.(i) a2.(i) in
            accumulate electrons holes i (h1 *. (prev.(i) +. s1));
            prev.(i) <- s1
          done
        end;
        w.last <- hi;
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
