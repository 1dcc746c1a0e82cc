type trace = {
  step : int;
  update_norm : float;
  mixing_factor : float;
  poisson_solves : int;
  restarted : bool;
}

type status = Converged | Stalled | Max_iter

type solution = {
  vg : float;
  vd : float;
  potential : float array;
  current : float;
  charge : float;
  site_charge : float array;
  iterations : int;
  residual : float;
  status : status;
  trace : trace list;
}

(* Fault-injection sites (docs/ROBUST.md): an armed campaign can fail a
   charge evaluation or a Poisson update so the Scf_robust escalation
   ladder is exercisable deterministically.  Single branch when off. *)
let fault_charge = Fault.site "scf.charge"

let fault_poisson = Fault.site "scf.poisson"

let site_positions p =
  let n = Modespace.sites_for_length p.Params.channel_length in
  let dx = Modespace.site_spacing in
  (* Sites centered in the channel; contacts at 0 and L. *)
  let span = dx *. float_of_int (n - 1) in
  let x0 = (p.Params.channel_length -. span) /. 2. in
  Array.init n (fun i -> x0 +. (dx *. float_of_int i))

(* The Poisson stack (with its factorized matrix) depends only on the
   device geometry, not on bias or impurities: memoize it. *)
let stack_cache : (string, Stack2d.t) Hashtbl.t = Hashtbl.create 8

let stack_mutex = Mutex.create ()

let stack_for p =
  let key =
    Printf.sprintf "%d-%g-%g-%g-%b" p.Params.gnr_index p.Params.channel_length
      p.Params.oxide_thickness p.Params.oxide_eps_r
      (p.Params.contact_style = Stack2d.Point)
  in
  match Mutex.protect stack_mutex (fun () -> Hashtbl.find_opt stack_cache key) with
  | Some s -> s
  | None ->
    let sites = site_positions p in
    let xs =
      Array.concat [ [| 0. |]; sites; [| p.Params.channel_length |] ]
    in
    let tox = p.Params.oxide_thickness in
    let nz_half = 6 in
    let zs = Vec.linspace (-.tox) tox ((2 * nz_half) + 1) in
    let eps_r _ _ = p.Params.oxide_eps_r in
    let s =
      Stack2d.make ~contact_style:p.Params.contact_style ~xs ~zs ~eps_r
        ~sheet_row:nz_half ()
    in
    Mutex.protect stack_mutex (fun () -> Hashtbl.replace stack_cache key s);
    s

(* Mode chains share the potential profile; hoppings encode the subband.
   The metal contact is wide-band (energy-independent self-energy);
   mid-gap Fermi-level pinning enters through the Dirichlet potential
   boundary conditions. *)
let chains_for p =
  let ms = Modespace.reduce ~n_modes:p.Params.n_modes p.Params.gnr_index in
  let sigma = Self_energy.wideband ~gamma:p.Params.contact_gamma in
  Array.map (fun m -> (m, sigma)) ms.Modespace.modes

let solve ?(tol = 1e-3) ?(max_iter = 120) ?init ?(mixing = `Anderson)
    ?(obs = Obs.global) p ~vg ~vd =
  Parallel.scoped @@ fun () ->
  Obs.Span.run ~obs "scf.solve" @@ fun () ->
  let c_solves = Obs.Counter.make ~obs "scf.solves" in
  let c_iters = Obs.Counter.make ~obs "scf.iterations" in
  let c_charge = Obs.Counter.make ~obs "scf.charge_evals" in
  let c_poisson = Obs.Counter.make ~obs "scf.poisson_solves" in
  let h_iters = Obs.Histogram.make ~obs "scf.iterations" in
  Obs.Counter.incr c_solves;
  let sites = site_positions p in
  let n = Array.length sites in
  let stack = stack_for p in
  let kt = Const.kt_ev p.Params.temperature in
  let mu_s = 0. and mu_d = -.vd in
  let bias = { Observables.mu_s; mu_d; kt } in
  let u_gate = -.(vg +. p.Params.gate_offset) in
  let bc = { Stack2d.left = 0.; right = -.vd; bottom = u_gate; top = u_gate } in
  let imp =
    Array.init n (fun i ->
        List.fold_left
          (fun acc im -> acc +. Impurity.onsite_shift im sites.(i))
          0. p.Params.impurities)
  in
  let modes = chains_for p in
  (* Energy grid: covers the contact windows and the potential excursion. *)
  let u_bound_lo = Float.min 0. (Float.min (-.vd) u_gate) -. p.Params.energy_margin in
  let u_bound_hi = Float.max 0. (Float.max (-.vd) u_gate) +. p.Params.energy_margin in
  let imp_lo = Array.fold_left Float.min 0. imp in
  let imp_hi = Array.fold_left Float.max 0. imp in
  let egrid =
    Observables.energy_grid
      ~lo:(u_bound_lo +. Float.min 0. imp_lo)
      ~hi:(u_bound_hi +. Float.max 0. imp_hi)
      ~de:p.Params.energy_step
  in
  let dx = Modespace.site_spacing in
  let w_eff = Params.effective_width p in
  (* Charge implied by a potential profile (summed over mode chains). *)
  let charge_of u =
    Fault.fail fault_charge;
    Obs.Counter.incr c_charge;
    let total = Array.make n 0. in
    Array.iter
      (fun ((m : Modespace.mode), sigma) ->
        let onsite = Array.init n (fun i -> u.(i) +. imp.(i)) in
        let hopping =
          Array.init (n - 1) (fun i -> if i mod 2 = 0 then m.t1 else m.t2)
        in
        let chain = { Rgf.onsite; hopping; sigma_l = sigma; sigma_r = sigma } in
        let q =
          Observables.site_charge ~eta:1.5e-3 ~obs ~bias ~egrid
            ~midgap:onsite
            (fun _ -> chain)
        in
        for i = 0 to n - 1 do
          total.(i) <- total.(i) +. q.(i)
        done)
      modes;
    total
  in
  (* Poisson update for a given charge.  [poisson_calls] feeds the
     per-iteration trace entries (deltas around each SCF step); Stack2d is
     a direct factorized solve, so "Poisson iterations" per SCF step is a
     solve count, not an inner iteration count. *)
  let poisson_calls = ref 0 in
  let poisson_of site_charge =
    Fault.fail fault_poisson;
    incr poisson_calls;
    Obs.Counter.incr c_poisson;
    let sheet = Array.map (fun q -> q /. (dx *. w_eff)) site_charge in
    let u_grid = Stack2d.solve stack ~bc ~sheet_charge:sheet in
    Stack2d.plane_potential stack u_grid
  in
  let u0 =
    match init with
    | Some u when Array.length u = n -> Array.copy u
    | Some u ->
      invalid_arg
        (Printf.sprintf
           "Scf.solve: init has %d sites but the device discretizes to %d"
           (Array.length u) n)
    | None -> poisson_of (Array.make n 0.)
  in
  (* Diagonal Poisson self-response du_i/dq_i (V/C), used to precondition
     the fixed point a la Gummel: in strong inversion the charge reacts as
     ~ q/kT per volt, so the raw map has loop gain r*|q|/kT >> 1. *)
  let zero_charge = poisson_of (Array.make n 0.) in
  let response =
    let probe = 1e-21 in
    (* One Poisson solve per site, answered by a single [Stack2d.probe]
       call; each still counts (and can fault) as one solve. *)
    for _ = 1 to n do
      Fault.fail fault_poisson;
      incr poisson_calls;
      Obs.Counter.incr c_poisson
    done;
    let u = Stack2d.probe stack ~bc ~sheet_charge:(probe /. (dx *. w_eff)) in
    Array.init n (fun i -> Float.abs (u.(i) -. zero_charge.(i)) /. probe)
  in
  let precondition u q u_implied =
    Array.init n (fun i ->
        let gain = response.(i) *. Float.abs q.(i) /. kt in
        u.(i) +. ((u_implied.(i) -. u.(i)) /. (1. +. gain)))
  in
  let mixer =
    match mixing with
    | `Anderson -> Mixing.anderson ~history:5 ~alpha:0.5 ()
    | `Anderson_damped alpha -> Mixing.anderson ~history:5 ~alpha ()
    | `Linear alpha -> Mixing.linear ~alpha
  in
  (* If Anderson stops making progress (charge-feedback oscillation near
     strong inversion), restart it with heavier damping. *)
  let stall = ref 0 and best_res = ref infinity and slow = ref false in
  (* Per-iteration convergence trace, collected unconditionally (it is a
     solver result, not an obs metric): entry [k] carries the update norm
     measured at iteration [k], the Poisson solves spent evaluating it and
     the mixing factor applied toward iteration [k+1] (0. on the terminal
     entry).  Derived purely from the deterministic iterates, so it is
     identical sequential vs parallel. *)
  let traces = ref [] in
  let base_alpha =
    match mixing with
    | `Anderson -> 0.5
    | `Anderson_damped alpha | `Linear alpha -> alpha
  in
  (* [best] is the lowest-residual (u, q, res) so far; earlier iterates
     win ties. *)
  let rec iterate u it ((_, _, best_r) as best) =
    let p0 = !poisson_calls in
    let q = charge_of u in
    let u_implied = poisson_of q in
    let res = Vec.max_abs_diff u_implied u in
    let best = if best_r <= res then best else (u, q, res) in
    if res < !best_res *. 0.98 then begin
      best_res := res;
      stall := 0
    end
    else incr stall;
    let restarted = !stall > 6 && not !slow in
    if restarted then begin
      slow := true;
      Mixing.reset mixer
    end;
    let record mixing_factor =
      traces :=
        {
          step = it;
          update_norm = res;
          mixing_factor;
          poisson_solves = !poisson_calls - p0;
          restarted;
        }
        :: !traces
    in
    if res <= tol || it >= max_iter then begin
      record 0.;
      let u, q, res = best in
      (u, q, it, res)
    end
    else begin
      record (if !slow then 0.25 else base_alpha);
      let target = precondition u q u_implied in
      let u' =
        if !slow then Vec.add u (Vec.scale 0.25 (Vec.sub target u))
        else Mixing.step mixer ~x:u ~gx:target
      in
      iterate u' (it + 1) best
    end
  in
  (* NaN compares false, so the first step always replaces this
     placeholder. *)
  let u, q, iterations, residual = iterate u0 0 (u0, [||], Float.nan) in
  (* Typed convergence status (docs/ROBUST.md): [residual] is the best
     update norm over the run, and any iterate at or below [tol]
     terminates the loop, so [residual <= tol] is exactly "converged".
     An unconverged run is Stalled when the stall detector had tripped
     (no 2 % improvement over the trailing window), Max_iter when the
     cap interrupted a still-improving iteration. *)
  let status =
    if residual <= tol then Converged
    else if !stall > 6 then Stalled
    else Max_iter
  in
  Obs.Counter.add c_iters iterations;
  Obs.Histogram.observe h_iters iterations;
  (* Terminal current of the converged device. *)
  let current =
    Array.fold_left
      (fun acc ((m : Modespace.mode), sigma) ->
        let onsite = Array.init n (fun i -> u.(i) +. imp.(i)) in
        let hopping =
          Array.init (n - 1) (fun i -> if i mod 2 = 0 then m.t1 else m.t2)
        in
        let chain = { Rgf.onsite; hopping; sigma_l = sigma; sigma_r = sigma } in
        acc
        +. Observables.current ~eta:1.5e-3 ~obs ~bias ~egrid
             (fun _ -> chain))
      0. modes
  in
  {
    vg;
    vd;
    potential = u;
    current;
    charge = Vec.sum q;
    site_charge = q;
    iterations;
    residual;
    status;
    trace = List.rev !traces;
  }

let conduction_band_profile p sol =
  let sites = site_positions p in
  let half_gap = Params.schottky_barrier p in
  Array.mapi
    (fun i u ->
      let imp_shift =
        List.fold_left
          (fun acc im -> acc +. Impurity.onsite_shift im sites.(i))
          0. p.Params.impurities
      in
      u +. imp_shift +. half_gap)
    sol.potential
