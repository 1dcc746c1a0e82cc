type state = float array

type waveform = { times : float array; voltages : float array array }

(* Element views in compiled order.  Each terminal carries its node id,
   which indexes voltages, and its unknown index, which indexes the
   residual and the Jacobian (-1 for a driven node or ground). *)
type resistor = { ra : int; rb : int; ka : int; kb : int; ohms : float }

type fet = { gn : int; dn : int; sn : int; kg : int; kd : int; ks : int; model : Fet_model.t }

(* Capacitive branches with their companion-model state. *)
type cap_branch = {
  ca : int;
  cb : int;
  kca : int;
  kcb : int;
  cvalue : float array -> float; (* capacitance as a function of node voltages *)
  mutable v_prev : float;
  mutable i_prev : float;
  mutable c_step : float; (* capacitance frozen at the start of the step *)
}

(* Newton scratch, reused by every iteration of every solve on one
   compiled circuit: node voltages, residual, row-major Jacobian (LU
   factored in place), right-hand side (overwritten with the step) and
   pivots. *)
type scratch = {
  v : float array;
  f : float array;
  jac : float array;
  rhs : float array;
  piv : int array;
}

(* Compiled view of a netlist. *)
type compiled = {
  n_nodes : int;
  unknown_of : int array; (* node -> unknown index or -1 *)
  n_unknowns : int;
  sources : (int * (float -> float)) list;
  resistors : resistor array;
  fets : fet array;
  branches : cap_branch array; (* linear capacitors, then each FET's gs and gd *)
  s : scratch;
}

let branch ~unknown_of a b cvalue c_step =
  {
    ca = a;
    cb = b;
    kca = unknown_of.(a);
    kcb = unknown_of.(b);
    cvalue;
    v_prev = 0.;
    i_prev = 0.;
    c_step;
  }

let compile net =
  let n = Netlist.node_count net in
  let unknown_of = Array.make n (-1) in
  let count = ref 0 in
  for node = 1 to n - 1 do
    if not (Netlist.is_driven net node) then begin
      unknown_of.(node) <- !count;
      incr count
    end
  done;
  let k node = unknown_of.(node) in
  let resistors = ref [] and caps = ref [] and fets = ref [] in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { a; b; ohms } ->
        resistors := { ra = a; rb = b; ka = k a; kb = k b; ohms } :: !resistors
      | Netlist.Capacitor { a; b; farads } ->
        caps := branch ~unknown_of a b (fun _ -> farads) farads :: !caps
      | Netlist.Fet { g; d; s; model } ->
        fets := { gn = g; dn = d; sn = s; kg = k g; kd = k d; ks = k s; model } :: !fets)
    (Netlist.elements net);
  let fet_branches { gn = g; dn = d; sn = s; model = m; _ } =
    let bias v = (v.(g) -. v.(s), v.(d) -. v.(s)) in
    [
      branch ~unknown_of g s (fun v -> let vgs, vds = bias v in m.cgs ~vgs ~vds) 0.;
      branch ~unknown_of g d (fun v -> let vgs, vds = bias v in m.cgd ~vgs ~vds) 0.;
    ]
  in
  let nu = !count in
  {
    n_nodes = n;
    unknown_of;
    n_unknowns = nu;
    sources = Netlist.driven net;
    resistors = Array.of_list !resistors;
    fets = Array.of_list !fets;
    branches = Array.of_list (!caps @ List.concat_map fet_branches !fets);
    s =
      {
        v = Array.make n 0.;
        f = Array.make nu 0.;
        jac = Array.make (nu * nu) 0.;
        rhs = Array.make nu 0.;
        piv = Array.make nu 0;
      };
  }

(* Full node-voltage vector from the unknown vector at a given time. *)
let expand c x time =
  let v = Array.make c.n_nodes 0. in
  List.iter (fun (node, wave) -> v.(node) <- wave time) c.sources;
  for node = 1 to c.n_nodes - 1 do
    let k = c.unknown_of.(node) in
    if k >= 0 then v.(node) <- x.(k)
  done;
  v

(* The driven entries of the scratch voltages, fixed for one Newton
   solve; [vscale] scales the sources (source-stepping homotopy). *)
let load_sources ?(vscale = 1.) c time =
  List.iter (fun (node, wave) -> c.s.v.(node) <- vscale *. wave time) c.sources

(* Stamps.  [current] adds a current leaving unknown [k] to the residual;
   [conductance] adds g between unknown [k] and [k'] to row [k]. *)
let[@inline] current f k i = if k >= 0 then f.(k) <- f.(k) +. i

let[@inline] entry jac n k k' g =
  if k' >= 0 then begin
    let at = (k * n) + k' in
    jac.(at) <- jac.(at) +. g
  end

let[@inline] conductance jac n k k' g =
  if k >= 0 then begin
    entry jac n k k g;
    entry jac n k k' (-.g)
  end

let fd_step = 1e-6

(* Newton assembly at the scratch voltages: the residual f (KCL, currents
   leaving each unknown node) and, when [jacobian], the Jacobian J.  [dt]
   carries the companion-model terms of a transient step.  Each entry
   accumulates in one fixed order (gmin, resistors, FETs, capacitor
   branches), shared by both modes, so a residual-only pass gives the
   full assembly's f bit for bit. *)
let assemble ~jacobian c gmin dt =
  let { v; f; jac; _ } = c.s and n = c.n_unknowns in
  Array.fill f 0 n 0.;
  if jacobian then Array.fill jac 0 (n * n) 0.;
  (* gmin to ground stabilizes floating regions during homotopy. *)
  if gmin > 0. then
    for node = 1 to c.n_nodes - 1 do
      let k = c.unknown_of.(node) in
      if k >= 0 then begin
        f.(k) <- f.(k) +. (gmin *. v.(node));
        if jacobian then entry jac n k k gmin
      end
    done;
  for e = 0 to Array.length c.resistors - 1 do
    let { ra; rb; ka; kb; ohms } = c.resistors.(e) in
    let g = 1. /. ohms in
    let i = g *. (v.(ra) -. v.(rb)) in
    current f ka i;
    current f kb (-.i);
    if jacobian then begin
      conductance jac n ka kb g;
      conductance jac n kb ka g
    end
  done;
  for e = 0 to Array.length c.fets - 1 do
    let { gn; dn; sn; kg; kd; ks; model = m } = c.fets.(e) in
    let vg = v.(gn) and vd = v.(dn) and vs = v.(sn) in
    let i0 = m.id ~vgs:(vg -. vs) ~vds:(vd -. vs) in
    current f kd i0;
    current f ks (-.i0);
    if jacobian then begin
      (* Numeric partials of the drain current. *)
      let gg = (m.id ~vgs:((vg +. fd_step) -. vs) ~vds:(vd -. vs) -. i0) /. fd_step in
      let gd = (m.id ~vgs:(vg -. vs) ~vds:((vd +. fd_step) -. vs) -. i0) /. fd_step in
      let gs =
        (m.id ~vgs:(vg -. (vs +. fd_step)) ~vds:(vd -. (vs +. fd_step)) -. i0) /. fd_step
      in
      if kd >= 0 then begin
        entry jac n kd kg gg;
        entry jac n kd kd gd;
        entry jac n kd ks gs
      end;
      if ks >= 0 then begin
        entry jac n ks kg (-.gg);
        entry jac n ks kd (-.gd);
        entry jac n ks ks (-.gs)
      end
    end
  done;
  match dt with
  | None -> ()
  | Some dt ->
    for e = 0 to Array.length c.branches - 1 do
      let br = c.branches.(e) in
      let gc = 2. *. br.c_step /. dt in
      let vb = v.(br.ca) -. v.(br.cb) in
      (* Trapezoid companion: i = gc*(v - v_prev) - i_prev. *)
      let i = (gc *. (vb -. br.v_prev)) -. br.i_prev in
      current f br.kca i;
      current f br.kcb (-.i);
      if jacobian then begin
        conductance jac n br.kca br.kcb gc;
        conductance jac n br.kcb br.kca gc
      end
    done

(* Circuit-level observability (docs/OBS.md).  Newton iterations are
   counted across all homotopy rungs, so iterations-per-dc-solve out of a
   snapshot reflects the true cost of hard bias points. *)
let obs_dc_solves = Obs.Counter.make "mna.dc_solves"
let obs_newton_iters = Obs.Counter.make "mna.newton_iterations"
let obs_transient_steps = Obs.Counter.make "mna.transient_steps"
let obs_transient_retries = Obs.Counter.make "mna.transient_retries"
let obs_gmin_retries = Obs.Counter.make "robust.mna.transient_gmin_retries"
let obs_dc_time = Obs.Timer.make "mna.solve_dc"
let obs_transient_time = Obs.Timer.make "mna.transient"

(* Fault-injection site (docs/ROBUST.md): an armed campaign can make a
   Newton solve report failure on entry — the same [None] the callers'
   escalation ladders (gmin stepping, source stepping, substep
   subdivision) already recover from.  Single branch when disarmed. *)
let fault_newton = Fault.site "mna.newton"

(* Max norm, NaN if any entry is NaN (as [Vec.norm_inf], without boxing
   each entry). *)
let norm_inf a =
  let acc = ref 0. in
  for k = 0 to Array.length a - 1 do
    let m = Float.abs a.(k) in
    if not (m <= !acc || Float.is_nan !acc) then acc := m
  done;
  !acc

let all_finite a =
  let ok = ref true in
  for k = 0 to Array.length a - 1 do
    if not (Float.is_finite a.(k)) then ok := false
  done;
  !ok

let load_point c x =
  let v = c.s.v in
  for node = 1 to c.n_nodes - 1 do
    let k = c.unknown_of.(node) in
    if k >= 0 then v.(node) <- x.(k)
  done

(* Backtracking line search along the Newton step [dx], which keeps the
   residual from growing (it otherwise spirals near model kinks): halve
   alpha while the trial residual is NaN or above [fnorm], at most 10
   times, and move [x] to the trial with the smallest residual (the last
   trial when every residual is NaN).  Trials only need the residual. *)
let line_search c x dx ~fnorm ~scale gmin dt =
  let n = c.n_unknowns and v = c.s.v in
  let alpha = ref 1. and tries = ref 0 and searching = ref true in
  let best_alpha = ref nan and best = ref nan in
  while !searching do
    let a = !alpha *. scale in
    for node = 1 to c.n_nodes - 1 do
      let k = c.unknown_of.(node) in
      if k >= 0 then v.(node) <- x.(k) +. (a *. dx.(k))
    done;
    assemble ~jacobian:false c gmin dt;
    let fnew = norm_inf c.s.f in
    if not (Float.is_nan fnew) && (Float.is_nan !best || fnew < !best) then begin
      best := fnew;
      best_alpha := !alpha
    end;
    if (Float.is_nan fnew || fnew > fnorm *. (1. +. 1e-9)) && !tries < 10 then begin
      alpha := !alpha /. 2.;
      incr tries
    end
    else searching := false
  done;
  let a = (if Float.is_nan !best then !alpha else !best_alpha) *. scale in
  for k = 0 to n - 1 do
    x.(k) <- x.(k) +. (a *. dx.(k))
  done

(* Newton on the compiled circuit's scratch: each iteration assembles the
   Jacobian once and factors it in place, and each line-search trial
   computes the residual only.  Apart from the returned vector it
   allocates no arrays. *)
let newton ?(max_iter = 80) ?(v_limit = 0.3) ?vscale c x0 time gmin dt =
  let x = Array.copy x0 in
  if c.n_unknowns = 0 then Some x
  else if Fault.should_fail fault_newton then None
  else begin
    let n = c.n_unknowns and { f; jac; rhs = dx; piv; _ } = c.s in
    load_sources ?vscale c time;
    let rec loop it =
      Obs.Counter.incr obs_newton_iters;
      load_point c x;
      assemble ~jacobian:true c gmin dt;
      let fnorm = norm_inf f in
      if Float.is_nan fnorm then None
      else begin
        match Matrix.lu_factor_in_place n jac piv with
        | exception
            (Failure _ | Robust_error.Error (Robust_error.Singular _)) ->
          None
        | () ->
          for i = 0 to n - 1 do
            dx.(i) <- -.f.(piv.(i))
          done;
          Matrix.lu_solve_in_place n jac dx;
          if not (all_finite dx) then None
          else begin
            (* Voltage limiting keeps the exponential models in range. *)
            let step = norm_inf dx in
            let scale = if step > v_limit then v_limit /. step else 1. in
            line_search c x dx ~fnorm ~scale gmin dt;
            if step *. scale < 1e-9 && fnorm < 1e-12 then Some x
            else if it >= max_iter then (if fnorm < 1e-10 then Some x else None)
            else loop (it + 1)
          end
      end
    in
    loop 0
  end

let solve_dc ?x0 ?(time = 0.) net =
  Obs.Counter.incr obs_dc_solves;
  let t_dc = Obs.Timer.start obs_dc_time in
  (* Stop on every path: the bad-x0 invalid_arg and the terminal
     Newton_failure must not leak the sample (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_dc_time t_dc) @@ fun () ->
  let c = compile net in
  let x0 =
    match x0 with
    | Some x when Array.length x = c.n_nodes ->
      (* Accept full node vectors for convenience. *)
      Array.init c.n_unknowns (fun _ -> 0.)
      |> fun u ->
      for node = 1 to c.n_nodes - 1 do
        let k = c.unknown_of.(node) in
        if k >= 0 then u.(k) <- x.(node)
      done;
      u
    | Some x when Array.length x = c.n_unknowns -> Array.copy x
    | Some _ -> invalid_arg "Mna.solve_dc: bad x0 length"
    | None -> Array.make c.n_unknowns 0.
  in
  let newton ?vscale c x0 time gmin dt =
    newton ~max_iter:200 ~v_limit:0.15 ?vscale c x0 time gmin dt
  in
  let result =
    match newton c x0 time 0. None with
    | Some x -> Some x
    | None ->
      (* gmin-stepping homotopy, tolerant of failed rungs: each rung warm
         starts from the best point so far, and a converged rung at
         gmin <= 1e-10 is acceptable as the answer (its stepping error is
         below gmin * VDD, i.e. sub-pA). *)
      let x = ref x0 and last_good = ref None in
      List.iter
        (fun g ->
          match newton c !x time g None with
          | Some x' ->
            x := x';
            if g <= 1e-10 then last_good := Some x'
          | None -> ())
        [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; 1e-12 ];
      (match newton c !x time 0. None with
      | Some _ as final -> final
      | None -> begin
        match !last_good with
        | Some _ as good -> good
        | None ->
          (* Adaptive source stepping: ramp the supplies up from zero,
             halving the ramp step on failure.  Tracking the solution
             continuously from the origin stays on the physical branch of
             the ambipolar devices, whose non-monotone I(V) gives plain
             Newton multiple basins. *)
          let x = ref (Array.make c.n_unknowns 0.) in
          let lambda = ref 0. and dl = ref 0.25 and stuck = ref false in
          while !lambda < 1. && not !stuck do
            let target = Float.min 1. (!lambda +. !dl) in
            (match newton ~vscale:target c !x time 1e-12 None with
            | Some x' ->
              x := x';
              lambda := target;
              dl := Float.min 0.25 (!dl *. 2.)
            | None ->
              dl := !dl /. 2.;
              if !dl < 1e-3 then stuck := true)
          done;
          if !stuck then None
          else begin
            match newton c !x time 0. None with
            | Some _ as final -> final
            | None -> newton c !x time 1e-12 None
          end
      end)
  in
  match result with
  | Some x -> expand c x time
  | None -> Robust_error.raise_ (Robust_error.Newton_failure { analysis = "dc"; time })

(* Substeps per level of the transient step-retry ladder. *)
let dt_div = 4

let transient ?x0 net ~t_stop ~dt =
  let t_tr = Obs.Timer.start obs_transient_time in
  (* Stop on every path, the invalid_arg checks and the terminal
     Newton_failure included (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_transient_time t_tr) @@ fun () ->
  if t_stop <= 0. || dt <= 0. then invalid_arg "Mna.transient: bad time range";
  let c = compile net in
  let v0 =
    match x0 with
    | Some v when Array.length v = c.n_nodes -> Array.copy v
    | Some _ -> invalid_arg "Mna.transient: x0 must be a full node vector"
    | None -> solve_dc ~time:0. net
  in
  Array.iter
    (fun br ->
      br.v_prev <- v0.(br.ca) -. v0.(br.cb);
      br.i_prev <- 0.)
    c.branches;
  (* Guard against a zero-width final step when t_stop is an exact
     multiple of dt (the companion conductance would blow up). *)
  let n_steps = max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  let times =
    Array.init (n_steps + 1) (fun k ->
        if k = n_steps then t_stop else dt *. float_of_int k)
  in
  let voltages = Array.make (n_steps + 1) v0 in
  let x = ref (Array.init c.n_unknowns (fun _ -> 0.)) in
  for node = 1 to c.n_nodes - 1 do
    let k = c.unknown_of.(node) in
    if k >= 0 then !x.(k) <- v0.(node)
  done;
  let advance ?(gmin = 0.) x_in v_start t_next h =
    (* Freeze table capacitances at start-of-step bias. *)
    Array.iter (fun br -> br.c_step <- Float.max 1e-21 (br.cvalue v_start)) c.branches;
    match newton c x_in t_next gmin (Some h) with
    | Some x' ->
      let v' = expand c x' t_next in
      Array.iter
        (fun br ->
          let vb = v'.(br.ca) -. v'.(br.cb) in
          let gc = 2. *. br.c_step /. h in
          let i = (gc *. (vb -. br.v_prev)) -. br.i_prev in
          br.v_prev <- vb;
          br.i_prev <- i)
        c.branches;
      Some (x', v')
    | None -> None
  in
  (* Escalation ladder for a failed step (docs/ROBUST.md): subdivide into
     [dt_div] substeps, recursing one level deeper (dt/dt_div^2) when a
     substep fails in turn; at the bottom a still-failing substep gets a
     last attempt with a small stabilizing gmin before the typed error
     surfaces.  A step that succeeds outright (or after one level of
     substeps, the pre-ladder behavior) performs exactly the calls it
     always did, so healthy transients are bit-for-bit unchanged. *)
  let rec advance_robust ~depth x_in v_start ~t_prev ~t_next ~h =
    match advance x_in v_start t_next h with
    | Some _ as ok -> ok
    | None when depth >= 2 ->
      Obs.Counter.incr obs_gmin_retries;
      advance ~gmin:1e-9 x_in v_start t_next h
    | None ->
      Obs.Counter.incr obs_transient_retries;
      let hs = h /. float_of_int dt_div in
      let rec subs sub xs vs =
        if sub > dt_div then Some (xs, vs)
        else begin
          let t_sub_prev = t_prev +. (hs *. float_of_int (sub - 1)) in
          let t_sub = t_prev +. (hs *. float_of_int sub) in
          match
            advance_robust ~depth:(depth + 1) xs vs ~t_prev:t_sub_prev
              ~t_next:t_sub ~h:hs
          with
          | Some (x', v') -> subs (sub + 1) x' v'
          | None -> None
        end
      in
      subs 1 x_in v_start
  in
  for k = 1 to n_steps do
    Obs.Counter.incr obs_transient_steps;
    let t_prev = times.(k - 1) and t_next = times.(k) in
    let v_start = voltages.(k - 1) in
    match
      advance_robust ~depth:0 !x v_start ~t_prev ~t_next ~h:(t_next -. t_prev)
    with
    | Some (x', v') ->
      x := x';
      voltages.(k) <- v'
    | None ->
      Robust_error.raise_
        (Robust_error.Newton_failure { analysis = "transient"; time = t_next })
  done;
  { times; voltages }

let node_trace wf node = Array.map (fun v -> v.(node)) wf.voltages

let waveform_to_csv ?nodes wf =
  let n_nodes = if Array.length wf.voltages = 0 then 0 else Array.length wf.voltages.(0) in
  let nodes = match nodes with Some l -> l | None -> List.init n_nodes Fun.id in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t";
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf ",v%d" n)) nodes;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun k t ->
      Buffer.add_string buf (Printf.sprintf "%.8g" t);
      List.iter
        (fun n -> Buffer.add_string buf (Printf.sprintf ",%.6g" wf.voltages.(k).(n)))
        nodes;
      Buffer.add_char buf '\n')
    wf.times;
  Buffer.contents buf

let static_current c node v =
  let acc = ref 0. in
  Array.iter
    (fun { ra = a; rb = b; ohms; _ } ->
      if a = node then acc := !acc +. ((v.(a) -. v.(b)) /. ohms)
      else if b = node then acc := !acc +. ((v.(b) -. v.(a)) /. ohms))
    c.resistors;
  Array.iter
    (fun { gn = g; dn = d; sn = s; model = m; _ } ->
      let i = m.id ~vgs:(v.(g) -. v.(s)) ~vds:(v.(d) -. v.(s)) in
      if d = node then acc := !acc +. i
      else if s = node then acc := !acc -. i)
    c.fets;
  !acc

let dc_current net state node =
  let c = compile net in
  if not (List.mem_assoc node c.sources) then
    invalid_arg "Mna.dc_current: node is not driven";
  static_current c node state

let source_current net wf node =
  let c = compile net in
  if not (List.mem_assoc node c.sources) then
    invalid_arg "Mna.source_current: node is not driven";
  let nk = Array.length wf.times in
  let static v = static_current c node v in
  (* Displacement currents via central differences of the branch charge. *)
  Array.init nk (fun k ->
      let v = wf.voltages.(k) in
      let i_static = static v in
      let i_disp =
        if k = 0 || k = nk - 1 then 0.
        else begin
          let dtc = wf.times.(k + 1) -. wf.times.(k - 1) in
          Array.fold_left
            (fun acc br ->
              if br.ca = node || br.cb = node then begin
                let sign = if br.ca = node then 1. else -1. in
                let cap = br.cvalue v in
                let vb k' = wf.voltages.(k').(br.ca) -. wf.voltages.(k').(br.cb) in
                acc +. (sign *. cap *. (vb (k + 1) -. vb (k - 1)) /. dtc)
              end
              else acc)
            0. c.branches
        end
      in
      i_static +. i_disp)
