(* Tests for the 2D finite-volume stack solver, the 3D validation solver
   and the impurity model. *)

open Support

let stack ?(style = Stack2d.Plane) ?(nx = 21) ?(nz = 11) () =
  let xs = Vec.linspace 0. 20e-9 nx in
  let zs = Vec.linspace (-1.5e-9) 1.5e-9 nz in
  Stack2d.make ~contact_style:style ~xs ~zs ~eps_r:(fun _ _ -> 3.9)
    ~sheet_row:(nz / 2) ()

(* The Poisson stack [Scf.solve] builds for the default 15 nm device. *)
let default_device_stack () =
  let p = Params.default () in
  let xs = Array.concat [ [| 0. |]; Scf.site_positions p; [| p.Params.channel_length |] ] in
  let tox = p.Params.oxide_thickness in
  Stack2d.make ~contact_style:p.Params.contact_style ~xs
    ~zs:(Vec.linspace (-.tox) tox 13)
    ~eps_r:(fun _ _ -> p.Params.oxide_eps_r)
    ~sheet_row:6 ()

let no_charge t = Array.make (Stack2d.nx t - 2) 0.

let test_uniform_dirichlet () =
  let t = stack () in
  let bc = { Stack2d.left = 0.3; right = 0.3; bottom = 0.3; top = 0.3 } in
  let u = Stack2d.solve t ~bc ~sheet_charge:(no_charge t) in
  Array.iter
    (Array.iter (fun v -> approx ~eps:1e-10 "constant potential" 0.3 v))
    u

let test_plate_capacitor_profile () =
  (* Gates at different potentials, plane contacts equal to the local
     linear profile would distort; use a wide box and check the center
     column is linear in z. *)
  let t = stack ~nx:41 () in
  let bc = { Stack2d.left = 0.; right = 0.; bottom = 0.; top = 1. } in
  let u = Stack2d.solve t ~bc ~sheet_charge:(no_charge t) in
  let nx = Stack2d.nx t and nz = Stack2d.nz t in
  let mid = nx / 2 in
  (* Centre column: approximately linear between the plates. *)
  for j = 0 to nz - 1 do
    let expected = float_of_int j /. float_of_int (nz - 1) in
    approx ~eps:0.08 (Printf.sprintf "linear at j=%d" j) expected u.(mid).(j)
  done

let test_sheet_charge_sign () =
  let t = stack () in
  let bc = { Stack2d.left = 0.; right = 0.; bottom = 0.; top = 0. } in
  let sc = no_charge t in
  let mid = Array.length sc / 2 in
  sc.(mid) <- -1e-3 (* negative (electron) sheet charge, C/m^2 *);
  let u = Stack2d.solve t ~bc ~sheet_charge:sc in
  let plane = Stack2d.plane_potential t u in
  (* Electrons raise the mid-gap energy u. *)
  Alcotest.(check bool) "electron charge raises u" true (plane.(mid) > 1e-6);
  Alcotest.(check bool) "peaked at the charge" true
    (plane.(mid) > plane.(0) && plane.(mid) > plane.(Array.length plane - 1))

let test_superposition () =
  let t = stack () in
  let bc = { Stack2d.left = 0.1; right = -0.2; bottom = -0.3; top = -0.3 } in
  let n = Stack2d.nx t - 2 in
  let q1 = Array.make n 0. and q2 = Array.make n 0. in
  q1.(3) <- 2e-4;
  q2.(n - 4) <- -3e-4;
  let zero_bc = { Stack2d.left = 0.; right = 0.; bottom = 0.; top = 0. } in
  let u_bc = Stack2d.plane_potential t (Stack2d.solve t ~bc ~sheet_charge:(Array.make n 0.)) in
  let u1 = Stack2d.plane_potential t (Stack2d.solve t ~bc:zero_bc ~sheet_charge:q1) in
  let u2 = Stack2d.plane_potential t (Stack2d.solve t ~bc:zero_bc ~sheet_charge:q2) in
  let q12 = Array.mapi (fun i v -> v +. q2.(i)) q1 in
  let u_all = Stack2d.plane_potential t (Stack2d.solve t ~bc ~sheet_charge:q12) in
  Array.iteri
    (fun i v ->
      approx ~eps:1e-10 "linear superposition" v (u_bc.(i) +. u1.(i) +. u2.(i)))
    u_all

let test_point_contact_floats_oxide () =
  (* With Point contacts, only the sheet node is pinned at the sides: a
     gate-driven solve should pull the whole interior to the gate value
     except near the pinned channel ends. *)
  let t = stack ~style:Stack2d.Point ~nx:41 () in
  let bc = { Stack2d.left = 0.; right = 0.; bottom = -0.5; top = -0.5 } in
  let u = Stack2d.solve t ~bc ~sheet_charge:(no_charge t) in
  let plane = Stack2d.plane_potential t u in
  let mid = Array.length plane / 2 in
  (* channel centre follows the gate *)
  approx ~eps:0.02 "gate control at centre" (-0.5) plane.(mid);
  (* ends remain pinned by the contacts *)
  Alcotest.(check bool) "source end pinned" true (plane.(0) > -0.3)

let test_grid_validation () =
  check_raises_invalid "grid too small" (fun () ->
      Stack2d.make ~xs:[| 0.; 1. |] ~zs:[| 0.; 1.; 2. |]
        ~eps_r:(fun _ _ -> 1.) ~sheet_row:1 ());
  check_raises_invalid "sheet row boundary" (fun () ->
      Stack2d.make
        ~xs:[| 0.; 1.; 2. |]
        ~zs:[| 0.; 1.; 2. |]
        ~eps_r:(fun _ _ -> 1.) ~sheet_row:0 ())

let test_poisson3d_zero_charge () =
  let t = Poisson3d.make ~nx:7 ~ny:7 ~nz:7 ~spacing:1e-9 ~eps_r:(fun _ _ _ -> 3.9) in
  let u = Poisson3d.solve ~boundary:0.25 t ~charges:[] in
  Array.iter
    (Array.iter (Array.iter (fun v -> approx ~eps:1e-8 "uniform" 0.25 v)))
    u

let test_poisson3d_point_charge () =
  (* A negative point charge in a grounded box raises u nearby, decaying
     outward; compare against the unscreened Coulomb magnitude at one
     grid spacing (boxes screen, so expect same order, smaller). *)
  let h = 0.5e-9 in
  let n = 15 in
  let t = Poisson3d.make ~nx:n ~ny:n ~nz:n ~spacing:h ~eps_r:(fun _ _ _ -> 3.9) in
  let c = n / 2 in
  let u =
    Poisson3d.solve t
      ~charges:[ { Poisson3d.ix = c; iy = c; iz = c; coulombs = -.Const.q } ]
  in
  let coulomb_at r = Const.q /. (4. *. Float.pi *. Const.eps0 *. 3.9 *. r) in
  Alcotest.(check bool) "positive near charge" true (u.(c + 1).(c).(c) > 0.);
  Alcotest.(check bool) "below unscreened Coulomb" true
    (u.(c + 1).(c).(c) < coulomb_at h);
  Alcotest.(check bool) "above a tenth of Coulomb" true
    (u.(c + 1).(c).(c) > 0.1 *. coulomb_at h);
  (* symmetry *)
  approx ~eps:1e-9 "symmetry x/y" u.(c + 2).(c).(c) u.(c).(c + 2).(c);
  (* decay *)
  Alcotest.(check bool) "monotone decay" true (u.(c + 1).(c).(c) > u.(c + 4).(c).(c));
  let profile = Poisson3d.line_profile u ~iy:c ~iz:c in
  approx ~eps:1e-12 "profile extraction" u.(c + 3).(c).(c) profile.(c + 3)

let test_impurity_signs () =
  let neg = { Impurity.charge = -2.; position = 1.5e-9; distance = 0.4e-9 } in
  let pos = { neg with Impurity.charge = 2. } in
  let u_neg = Impurity.onsite_shift neg 1.5e-9 in
  let u_pos = Impurity.onsite_shift pos 1.5e-9 in
  Alcotest.(check bool) "negative charge raises u" true (u_neg > 0.1);
  approx ~eps:1e-12 "antisymmetric" (-.u_neg) u_pos

let test_impurity_decay () =
  let imp = Impurity.paper_default ~charge:(-1.) in
  let at x = Float.abs (Impurity.onsite_shift imp x) in
  let peak = at imp.Impurity.position in
  Alcotest.(check bool) "decays away" true
    (at (imp.Impurity.position +. 3e-9) < 0.2 *. peak);
  let profile =
    Impurity.profile imp (Vec.linspace 0. 15e-9 40)
  in
  let k = Vec.argmax (Array.map Float.abs profile) in
  Alcotest.(check bool) "peak near the impurity" true
    (Float.abs ((float_of_int k /. 39. *. 15e-9) -. imp.Impurity.position) < 1.2e-9)

let test_probe_matches_one_hot_solves () =
  (* [Stack2d.probe] must answer every one-hot solve bit for bit, on both
     contact styles and with every boundary value distinct and nonzero. *)
  let bc = { Stack2d.left = 0.05; right = -0.4; bottom = -0.7; top = -0.65 } in
  let s = 2.7e-3 in
  List.iter
    (fun (name, t) ->
      let n = Stack2d.nx t - 2 in
      let one_hot =
        Array.init n (fun i ->
            let sc = Array.make n 0. in
            sc.(i) <- s;
            (Stack2d.plane_potential t (Stack2d.solve t ~bc ~sheet_charge:sc)).(i))
      in
      check_bits name one_hot (Stack2d.probe t ~bc ~sheet_charge:s))
    [
      ("plane", stack ());
      ("point", stack ~style:Stack2d.Point ());
      ("point, default device", default_device_stack ());
    ]

let test_probe_counts_solves () =
  let t = stack () in
  let bc = { Stack2d.left = 0.; right = -0.1; bottom = 0.2; top = 0.2 } in
  let old = Obs.enabled Obs.global in
  Obs.set_enabled Obs.global true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled Obs.global old) @@ fun () ->
  let before = Obs.counter_value "stack2d.solves" in
  ignore (Stack2d.probe t ~bc ~sheet_charge:1e-3);
  Alcotest.(check int) "one stack2d.solves per probe" (Stack2d.nx t - 2)
    (Obs.counter_value "stack2d.solves" - before)

let test_solve_allocation () =
  (* Allocation guard: one default-device solve measured 1,095 minor
     words (1,099 with obs on), nearly all of it the returned node grid;
     the bound is 4x that. *)
  let t = default_device_stack () in
  let bc = { Stack2d.left = 0.; right = -0.3; bottom = -0.5; top = -0.5 } in
  let sheet_charge = Array.init (Stack2d.nx t - 2) (fun i -> 1e-3 *. float_of_int i) in
  let words = minor_words (fun () -> ignore (Stack2d.solve t ~bc ~sheet_charge)) in
  if words > 4. *. 1_099. then
    Alcotest.failf "Stack2d.solve allocated %.0f minor words (bound %.0f)" words
      (4. *. 1_099.)

let suite =
  [
    Alcotest.test_case "uniform dirichlet" `Quick test_uniform_dirichlet;
    Alcotest.test_case "plate capacitor profile" `Quick test_plate_capacitor_profile;
    Alcotest.test_case "sheet charge sign" `Quick test_sheet_charge_sign;
    Alcotest.test_case "superposition" `Quick test_superposition;
    Alcotest.test_case "point contacts" `Quick test_point_contact_floats_oxide;
    Alcotest.test_case "grid validation" `Quick test_grid_validation;
    Alcotest.test_case "poisson3d zero charge" `Quick test_poisson3d_zero_charge;
    Alcotest.test_case "poisson3d point charge" `Quick test_poisson3d_point_charge;
    Alcotest.test_case "impurity signs" `Quick test_impurity_signs;
    Alcotest.test_case "impurity decay" `Quick test_impurity_decay;
    Alcotest.test_case "probe matches one-hot solves" `Quick
      test_probe_matches_one_hot_solves;
    Alcotest.test_case "probe counts solves" `Quick test_probe_counts_solves;
    Alcotest.test_case "solve allocation" `Quick test_solve_allocation;
  ]
