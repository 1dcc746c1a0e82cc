(* Tests for the A-GNR lattice, tight-binding bands and mode-space
   reduction (plus Fermi statistics). *)

open Support

let test_fermi () =
  let kt = 0.0259 in
  approx "deep below" 1. (Fermi.occupation ~mu:0. ~kt (-1.));
  approx "deep above" 0. (Fermi.occupation ~mu:0. ~kt 1.);
  approx "at mu" 0.5 (Fermi.occupation ~mu:0. ~kt 0.)

let test_fermi_window () =
  let kt = 0.0259 in
  let w = Fermi.window ~mu1:0. ~mu2:(-0.5) ~kt (-0.25) in
  approx ~eps:1e-3 "window interior" 1. w;
  approx ~eps:1e-6 "window outside" 0. (Fermi.window ~mu1:0. ~mu2:(-0.5) ~kt 1.)

let test_lattice_geometry () =
  approx ~eps:1e-12 "width N=9" (8. *. Const.a_graphene /. 2.) (Lattice.width 9);
  approx ~eps:1e-12 "period" (3. *. Const.a_cc) Lattice.period;
  Alcotest.(check int) "atoms per cell" 24 (Lattice.atoms_per_cell 12);
  (* Width increment per dN=3 is ~3.7 A as the paper states. *)
  let dw = Lattice.width 12 -. Lattice.width 9 in
  approx ~eps:2e-11 "3.7 A step" 3.7e-10 dw

let test_lattice_bonds () =
  List.iter
    (fun n ->
      let within = List.length (Lattice.neighbours_within_cell n) in
      let inter = List.length (Lattice.neighbours_to_next_cell n) in
      Alcotest.(check int)
        (Printf.sprintf "bond count N=%d" n)
        ((3 * n) - 2)
        (within + inter))
    [ 5; 9; 12; 15; 18 ]

let test_lattice_edge_bonds () =
  let n = 12 in
  let edge_bonds =
    List.filter (Lattice.is_edge_bond n) (Lattice.neighbours_within_cell n)
  in
  (* One dimer bond per edge row per cell. *)
  Alcotest.(check int) "edge bonds per cell" 2 (List.length edge_bonds)

let test_family () =
  Alcotest.(check bool) "9 is 3q" true (Lattice.family 9 = Lattice.Family_3q);
  Alcotest.(check bool) "10 is 3q+1" true (Lattice.family 10 = Lattice.Family_3q1);
  Alcotest.(check bool) "11 is 3q+2" true (Lattice.family 11 = Lattice.Family_3q2);
  Alcotest.(check bool) "11 excluded" false (Lattice.is_semiconducting_for_fets 11);
  Alcotest.(check bool) "12 included" true (Lattice.is_semiconducting_for_fets 12)

let test_bloch_hermitian () =
  let tb = Tight_binding.make 9 in
  List.iter
    (fun ka ->
      let h = Tight_binding.bloch tb ka in
      let diff = Cmatrix.frobenius_diff h (Cmatrix.adjoint h) in
      Alcotest.(check bool) "H(k) hermitian" true (diff < 1e-12))
    [ 0.; 0.7; Float.pi ]

let test_h00_symmetric () =
  let tb = Tight_binding.make 7 in
  let h = tb.Tight_binding.h00 in
  let n, _ = Matrix.dims h in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      approx "h00 symmetric" (Matrix.get h i j) (Matrix.get h j i)
    done
  done

let test_gap_families () =
  let g9 = Bands.gap_of_index 9
  and g10 = Bands.gap_of_index 10
  and g11 = Bands.gap_of_index 11
  and g12 = Bands.gap_of_index 12 in
  Alcotest.(check bool) "3q+1 > 3q" true (g10 > g9);
  Alcotest.(check bool) "3q+2 smallest" true (g11 < g9 && g11 < g10);
  Alcotest.(check bool) "3q+2 still open (edge correction)" true (g11 > 0.01);
  Alcotest.(check bool) "N=12 gap ballpark" true (g12 > 0.4 && g12 < 0.8)

let test_gap_width_scaling () =
  (* Within the 3q family the gap decreases with width. *)
  let gaps = List.map Bands.gap_of_index [ 9; 12; 15; 18 ] in
  let rec decreasing = function
    | a :: (b :: _ as tl) -> a > b && decreasing tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing gaps)

let test_particle_hole_symmetry () =
  let b = Bands.compute ~nk:9 (Tight_binding.make 9) in
  Array.iter
    (fun es ->
      let n = Array.length es in
      for i = 0 to (n / 2) - 1 do
        approx ~eps:1e-8 "e-h symmetric spectrum" es.(i) (-.es.(n - 1 - i))
      done)
    b.Bands.energies

let test_modespace_parameters () =
  let ms = Modespace.reduce ~n_modes:2 12 in
  let m0 = ms.Modespace.modes.(0) in
  approx ~eps:1e-9 "lowest mode delta = Eg/2" (ms.Modespace.gap /. 2.) m0.Modespace.delta;
  Alcotest.(check bool) "t1 > t2 > 0" true (m0.Modespace.t1 > m0.Modespace.t2 && m0.Modespace.t2 > 0.);
  (* Dimer-chain band edges reproduce the subband edges by construction. *)
  approx ~eps:1e-9 "band min" m0.Modespace.delta (m0.Modespace.t1 -. m0.Modespace.t2);
  approx ~eps:1e-9 "band max" m0.Modespace.emax (m0.Modespace.t1 +. m0.Modespace.t2);
  let m1 = ms.Modespace.modes.(1) in
  Alcotest.(check bool) "modes ordered" true (m1.Modespace.delta > m0.Modespace.delta)

let test_sites_for_length () =
  let n = Modespace.sites_for_length 15e-9 in
  Alcotest.(check bool) "even" true (n mod 2 = 0);
  let span = float_of_int (n / 2) *. Lattice.period in
  Alcotest.(check bool) "covers the channel" true (Float.abs (span -. 15e-9) < Lattice.period);
  check_raises_invalid "non-positive" (fun () -> ignore (Modespace.sites_for_length 0.))

let suite =
  [
    Alcotest.test_case "fermi occupation" `Quick test_fermi;
    Alcotest.test_case "fermi window" `Quick test_fermi_window;
    Alcotest.test_case "lattice geometry" `Quick test_lattice_geometry;
    Alcotest.test_case "lattice bond counts" `Quick test_lattice_bonds;
    Alcotest.test_case "edge bonds" `Quick test_lattice_edge_bonds;
    Alcotest.test_case "families" `Quick test_family;
    Alcotest.test_case "bloch hermitian" `Quick test_bloch_hermitian;
    Alcotest.test_case "h00 symmetric" `Quick test_h00_symmetric;
    Alcotest.test_case "gap families" `Quick test_gap_families;
    Alcotest.test_case "gap width scaling" `Quick test_gap_width_scaling;
    Alcotest.test_case "particle-hole symmetry" `Quick test_particle_hole_symmetry;
    Alcotest.test_case "mode-space parameters" `Quick test_modespace_parameters;
    Alcotest.test_case "sites for length" `Quick test_sites_for_length;
  ]
