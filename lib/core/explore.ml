type point = {
  vdd : float;
  vt : float;
  frequency : float;
  edp : float;
  snm : float;
}

type surface = {
  vdds : float array;
  vts : float array;
  points : point array array;
}

let pair_at table ~vt =
  let shift = Gnr_model.shift_for_vt table vt in
  let tables = [ table; table; table; table ] in
  {
    Cells.nfet = Gnr_model.array_fet ~polarity:Gnr_model.N_type ~vt_shift:shift tables;
    pfet = Gnr_model.array_fet ~polarity:Gnr_model.P_type ~vt_shift:shift tables;
    ext = Gnr_model.default_extrinsic ();
  }

let surface ?(stages = 15) ?vdds ?vts table =
  let vdds = match vdds with Some v -> v | None -> Vec.linspace 0.1 0.7 13 in
  let vts = match vts with Some v -> v | None -> Vec.linspace 0. 0.3 13 in
  let points =
    Array.map
      (fun vdd ->
        Array.map
          (fun vt ->
            let pair = pair_at table ~vt in
            let m = Metrics.inverter_metrics ~pair ~vdd () in
            {
              vdd;
              vt;
              frequency = Metrics.ro_frequency m ~stages;
              edp = Metrics.edp m ~stages;
              snm = m.Metrics.snm;
            })
          vts)
      vdds
  in
  { vdds; vts; points }

let edp_ln_aj_ps p = log (p.edp /. 1e-30)

type objective = Frequency | Edp | Snm_margin

let metric objective p =
  match objective with
  | Frequency -> p.frequency
  | Edp -> p.edp
  | Snm_margin -> p.snm

let field s objective = Array.map (Array.map (metric objective)) s.points

(* The paper plots VT on x and VDD on y. *)
let contours s objective ~level =
  let values =
    (* transpose: values.(i_vt).(j_vdd) *)
    Array.init (Array.length s.vts) (fun i ->
        Array.init (Array.length s.vdds) (fun j -> metric objective s.points.(j).(i)))
  in
  Contour.extract ~xs:s.vts ~ys:s.vdds ~values ~level

type operating_point = { vdd : float; vt : float; value : float }

let fold_points s f init =
  Array.fold_left
    (fun acc row -> Array.fold_left f acc row)
    init s.points

let min_edp s =
  let best =
    fold_points s
      (fun acc p ->
        match acc with
        | Some b when b.edp <= p.edp -> acc
        | Some _ | None -> Some p)
      None
  in
  match best with
  | Some p -> { vdd = p.vdd; vt = p.vt; value = p.edp }
  | None -> invalid_arg "Explore.min_edp: empty surface"

(* Grid points whose frequency straddles the target within one grid cell
   qualify as "on the contour" (the paper reads these off graphically). *)
let freq_tolerance = 0.12

let min_edp_where s pred =
  fold_points s
    (fun acc p ->
      if pred p then begin
        match acc with
        | Some b when b.value <= p.edp -> acc
        | Some _ | None -> Some { vdd = p.vdd; vt = p.vt; value = p.edp }
      end
      else acc)
    None

let min_edp_at_frequency s ~ghz =
  let target = ghz *. 1e9 in
  min_edp_where s (fun p ->
      Float.abs (p.frequency -. target) <= freq_tolerance *. target)

let min_edp_at_frequency_and_snm s ~ghz ~snm =
  let target = ghz *. 1e9 in
  min_edp_where s (fun p ->
      p.frequency >= (1. -. freq_tolerance) *. target && p.snm >= snm)

let same_edp_higher_vt s ~like =
  (* Same EDP (within 25%) and at least the SNM of the reference, at a
     strictly higher VT; prefer the highest VT. *)
  let ref_snm =
    fold_points s
      (fun acc p ->
        if p.vdd = like.vdd && p.vt = like.vt then Some p.snm else acc)
      None
  in
  let ref_snm = match ref_snm with Some v -> v | None -> 0. in
  fold_points s
    (fun acc p ->
      let same_edp = Float.abs (p.edp -. like.value) <= 0.25 *. like.value in
      let qualifies = same_edp && p.vt > like.vt && p.snm >= 0.9 *. ref_snm in
      if qualifies then begin
        match acc with
        | Some b when b.vt >= p.vt -> acc
        | Some _ | None -> Some { vdd = p.vdd; vt = p.vt; value = p.edp }
      end
      else acc)
    None
