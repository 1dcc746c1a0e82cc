let extract_from_curve ~vg ~id =
  let n = Array.length vg in
  if n < 4 then invalid_arg "Vt.extract_from_curve: need at least 4 samples";
  if Array.length id <> n then invalid_arg "Vt.extract_from_curve: length mismatch";
  let sp = Interp.spline ~xs:vg ~ys:id in
  (* Locate max gm on a dense grid, then extrapolate the tangent. *)
  let dense = Vec.linspace vg.(0) vg.(n - 1) 201 in
  let gm = Array.map (fun v -> Interp.spline_deriv sp v) dense in
  let k = Vec.argmax gm in
  let v_star = dense.(k) in
  let g_star = gm.(k) in
  if g_star <= 0. then invalid_arg "Vt.extract_from_curve: non-increasing branch";
  v_star -. (Interp.spline_eval sp v_star /. g_star)

let extract p =
  (* Sweep the electron branch at VD = 0.05 V with 16 samples: from the
     ambipolar minimum (~VD/2 shifted by the gate offset) up to 0.75 V. *)
  let vd = 0.05 in
  let vg_min = (vd /. 2.) -. p.Params.gate_offset in
  let vg = Vec.linspace vg_min 0.75 16 in
  let init = ref None in
  let id =
    Array.map
      (fun v ->
        let s = Scf.solve ?init:!init p ~vg:v ~vd in
        init := Some s.Scf.potential;
        s.Scf.current)
      vg
  in
  extract_from_curve ~vg ~id

let extract_from_table (t : Iv_table.t) =
  (* Lowest strictly positive VD row. *)
  let jd =
    let rec find j =
      if j >= Array.length t.vd then invalid_arg "Vt.extract_from_table: no vd > 0"
      else if t.vd.(j) > 1e-9 then j
      else find (j + 1)
    in
    find 0
  in
  let vd = t.vd.(jd) in
  (* Electron branch only: start at the ambipolar minimum. *)
  let start_v = vd /. 2. in
  let points =
    Array.to_list
      (Array.mapi (fun ig v -> (v, t.current.(ig).(jd))) t.vg)
  in
  let branch = List.filter (fun (v, _) -> v >= start_v -. 1e-9) points in
  let vg = Array.of_list (List.map fst branch) in
  let id = Array.of_list (List.map snd branch) in
  extract_from_curve ~vg ~id
