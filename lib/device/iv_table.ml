type t = {
  key : string;
  vg : float array;
  vd : float array;
  current : float array array;
  charge : float array array;
  failed_points : (int * int) list;
}

type grid_spec = {
  vg_min : float;
  vg_max : float;
  n_vg : int;
  vd_max : float;
  n_vd : int;
}

let default_grid =
  { vg_min = -0.25; vg_max = 1.05; n_vg = 53; vd_max = 0.8; n_vd = 17 }

let grid_key g =
  Printf.sprintf "vg%g:%g:%d-vd%g:%d" g.vg_min g.vg_max g.n_vg g.vd_max g.n_vd

let c_generates = Obs.Counter.make "iv_table.generates"
let c_quarantined = Obs.Counter.make "robust.iv_table.quarantined"

(* Patch quarantined grid points from their nearest converged neighbors:
   linear interpolation along VG within the same VD column when the point
   is bracketed, nearest-converged copy at column edges.  Reads only
   converged entries, so the result is independent of patch order; a
   column with no converged point at all keeps its best-iterate values. *)
let patch_failed ~failed ~vg ~current ~charge =
  let bad = Hashtbl.create 16 in
  List.iter (fun pt -> Hashtbl.replace bad pt ()) failed;
  let n_vg = Array.length vg in
  let rec find dir jd i =
    if i < 0 || i >= n_vg then None
    else if Hashtbl.mem bad (i, jd) then find dir jd (i + dir)
    else Some i
  in
  List.iter
    (fun (ig, jd) ->
      let lo = find (-1) jd (ig - 1) and hi = find 1 jd (ig + 1) in
      let patch (arr : float array array) =
        match (lo, hi) with
        | Some a, Some b ->
          let t = (vg.(ig) -. vg.(a)) /. (vg.(b) -. vg.(a)) in
          arr.(ig).(jd) <- arr.(a).(jd) +. (t *. (arr.(b).(jd) -. arr.(a).(jd)))
        | Some a, None -> arr.(ig).(jd) <- arr.(a).(jd)
        | None, Some b -> arr.(ig).(jd) <- arr.(b).(jd)
        | None, None -> ()
      in
      patch current;
      patch charge)
    failed

let generate ?(grid = default_grid) p =
  Parallel.scoped @@ fun () ->
  Obs.Span.run "iv_table.generate" @@ fun () ->
  Obs.Counter.incr c_generates;
  let vg = Vec.linspace grid.vg_min grid.vg_max grid.n_vg in
  let vd = Vec.linspace 0. grid.vd_max grid.n_vd in
  let current = Array.make_matrix grid.n_vg grid.n_vd 0. in
  let charge = Array.make_matrix grid.n_vg grid.n_vd 0. in
  (* Sweep VG inner with warm starts; VD outer restarts from the previous
     row's first solution.  This is the continuation order the escalation
     ladder builds on: each point is solved through Scf_robust (whose
     first rung is the plain Scf.solve call, so a fully-converging sweep
     is bit-for-bit identical to solving directly), with the last
     converged potential offered as the neighbor-continuation rung.
     Unrecoverable points are quarantined into [failed_points] and
     patched from converged neighbors instead of polluting the table. *)
  let row_init = ref None in
  let last_converged = ref None in
  let failed = ref [] in
  Array.iteri
    (fun jd vdv ->
      let init = ref !row_init in
      Array.iteri
        (fun ig vgv ->
          let outcome =
            Scf_robust.solve_robust ?init:!init ?neighbor:!last_converged p
              ~vg:vgv ~vd:vdv
          in
          match outcome.Scf_robust.solution with
          | Some s ->
            init := Some s.Scf.potential;
            if ig = 0 then row_init := Some s.Scf.potential;
            current.(ig).(jd) <- s.Scf.current;
            charge.(ig).(jd) <- s.Scf.charge;
            if s.Scf.status = Scf.Converged then
              last_converged := Some s.Scf.potential
            else begin
              Obs.Counter.incr c_quarantined;
              failed := (ig, jd) :: !failed
            end
          | None ->
            (* Every rung raised: leave the warm start untouched and
               patch the value from neighbors after the sweep. *)
            Obs.Counter.incr c_quarantined;
            failed := (ig, jd) :: !failed)
        vg)
    vd;
  let failed_points = List.sort compare !failed in
  if failed_points <> [] then patch_failed ~failed:failed_points ~vg ~current ~charge;
  {
    key = Params.cache_key p ^ "|" ^ grid_key grid;
    vg;
    vd;
    current;
    charge;
    failed_points;
  }

let current_interp t = Interp.grid2 ~xs:t.vg ~ys:t.vd ~values:t.current

let charge_interp t = Interp.grid2 ~xs:t.vg ~ys:t.vd ~values:t.charge

(* Tables are small and queried millions of times: memoize interpolants. *)
let interp_cache : (string, Interp.grid2 * Interp.grid2) Hashtbl.t = Hashtbl.create 16

let interp_mutex = Mutex.create ()

let interps t =
  match Mutex.protect interp_mutex (fun () -> Hashtbl.find_opt interp_cache t.key) with
  | Some pair -> pair
  | None ->
    let pair = (current_interp t, charge_interp t) in
    Mutex.protect interp_mutex (fun () -> Hashtbl.replace interp_cache t.key pair);
    pair

let check_vd vd = if vd < -1e-12 then invalid_arg "Iv_table: vd must be >= 0"

let current_at t ~vg ~vd =
  check_vd vd;
  let ci, _ = interps t in
  Interp.grid2_eval ci vg vd

let charge_at t ~vg ~vd =
  check_vd vd;
  let _, qi = interps t in
  Interp.grid2_eval qi vg vd

let dq_dvg t ~vg ~vd =
  check_vd vd;
  let _, qi = interps t in
  Interp.grid2_dx qi vg vd

let dq_dvd t ~vg ~vd =
  check_vd vd;
  let _, qi = interps t in
  Interp.grid2_dy qi vg vd

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "vg,vd,id_A,q_C\n";
  Array.iteri
    (fun ig vg ->
      Array.iteri
        (fun jd vd ->
          Buffer.add_string buf
            (Printf.sprintf "%.6g,%.6g,%.8g,%.8g\n" vg vd t.current.(ig).(jd)
               t.charge.(ig).(jd)))
        t.vd)
    t.vg;
  Buffer.contents buf
