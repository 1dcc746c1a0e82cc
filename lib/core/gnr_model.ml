type polarity = N_type | P_type

type extrinsic = { rs : float; rd : float; cgs_e : float; cgd_e : float }

let default_extrinsic () =
  (* 4 GNRs at a 10 nm pitch; junction capacitance scales with the total
     contact width (Sec 3: 0.01-0.1 aF/nm x 40 nm). *)
  let c_per_m = 0.05e-18 /. 1e-9 and contact_width = 4. *. 10e-9 in
  let c = c_per_m *. contact_width in
  { rs = 10e3; rd = 10e3; cgs_e = c; cgd_e = c }

(* Raw n-type quantities from the ambipolar table with source/drain
   exchange for vds < 0 (symmetric contacts). *)
let n_current table ~shift ~vgs ~vds =
  if vds >= 0. then Iv_table.current_at table ~vg:(vgs +. shift) ~vd:vds
  else -.Iv_table.current_at table ~vg:(vgs +. shift -. vds) ~vd:(-.vds)

let n_caps table ~shift ~vgs ~vds =
  (* CGD,i = |dQ/dVDS|, CG,i = |dQ/dVGS|, CGS,i = CG,i - CGD,i (Sec 3). *)
  let vg_q, vd_q, swapped =
    if vds >= 0. then (vgs +. shift, vds, false)
    else (vgs +. shift -. vds, -.vds, true)
  in
  let cgd = Float.abs (Iv_table.dq_dvd table ~vg:vg_q ~vd:vd_q) in
  let cg = Float.abs (Iv_table.dq_dvg table ~vg:vg_q ~vd:vd_q) in
  let cgs = Float.max 0. (cg -. cgd) in
  if swapped then (cgd, cgs) else (cgs, cgd)

let intrinsic ~polarity ~vt_shift table =
  let name =
    Printf.sprintf "gnr-%s"
      (match polarity with N_type -> "n" | P_type -> "p")
  in
  match polarity with
  | N_type ->
    {
      Fet_model.name;
      id = (fun ~vgs ~vds -> n_current table ~shift:vt_shift ~vgs ~vds);
      cgs = (fun ~vgs ~vds -> fst (n_caps table ~shift:vt_shift ~vgs ~vds));
      cgd = (fun ~vgs ~vds -> snd (n_caps table ~shift:vt_shift ~vgs ~vds));
    }
  | P_type ->
    {
      Fet_model.name;
      id = (fun ~vgs ~vds -> -.n_current table ~shift:vt_shift ~vgs:(-.vgs) ~vds:(-.vds));
      cgs = (fun ~vgs ~vds -> fst (n_caps table ~shift:vt_shift ~vgs:(-.vgs) ~vds:(-.vds)));
      cgd = (fun ~vgs ~vds -> snd (n_caps table ~shift:vt_shift ~vgs:(-.vgs) ~vds:(-.vds)));
    }

let array_fet ?name ~polarity ~vt_shift tables =
  if tables = [] then invalid_arg "Gnr_model.array_fet: empty array";
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "gnrfet-%s-x%d"
        (match polarity with N_type -> "n" | P_type -> "p")
        (List.length tables)
  in
  Fet_model.parallel name (List.map (intrinsic ~polarity ~vt_shift) tables)

let vt_cache : (string, float) Hashtbl.t = Hashtbl.create 8

let vt_mutex = Mutex.create ()

let vt_nominal (table : Iv_table.t) =
  match Mutex.protect vt_mutex (fun () -> Hashtbl.find_opt vt_cache table.Iv_table.key) with
  | Some v -> v
  | None ->
    let v = Vt.extract_from_table table in
    Mutex.protect vt_mutex (fun () -> Hashtbl.replace vt_cache table.Iv_table.key v);
    v

let shift_for_vt table vt_target = vt_nominal table -. vt_target
