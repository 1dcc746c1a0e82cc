let armchair_gap n =
  if n < 2 then invalid_arg "Analytic.armchair_gap: index must be >= 2";
  let best = ref infinity in
  for p = 1 to n do
    let q = Float.pi *. float_of_int p /. float_of_int (n + 1) in
    best := Float.min !best (Float.abs (1. +. (2. *. cos q)))
  done;
  2. *. Const.t_pz *. !best

let fermi_velocity () =
  (* E = hbar v_F k near the Dirac point: v_F = 3 t a_cc / (2 hbar), with
     t in joules. *)
  3. *. Const.t_pz *. Const.q *. Const.a_cc /. (2. *. Const.hbar)

let dirac_gap_estimate n =
  let width_e = float_of_int (n + 1) *. Const.a_graphene /. 2. in
  let hbar_vf = Const.hbar *. fermi_velocity () in
  (* In eV: 2 pi hbar v_F / (3 W), converting J -> eV. *)
  2. *. Float.pi *. hbar_vf /. (3. *. width_e) /. Const.q
