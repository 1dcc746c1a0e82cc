(* Tests for Interp and Contour. *)

open Support

let test_linear () =
  let xs = [| 0.; 1.; 3. |] and ys = [| 0.; 2.; 4. |] in
  approx "node" 2. (Interp.linear ~xs ~ys 1.);
  approx "midpoint" 1. (Interp.linear ~xs ~ys 0.5);
  approx "second segment" 3. (Interp.linear ~xs ~ys 2.);
  approx "clamp low" 0. (Interp.linear ~xs ~ys (-5.));
  approx "clamp high" 4. (Interp.linear ~xs ~ys 10.);
  check_raises_invalid "non-increasing" (fun () ->
      Interp.linear ~xs:[| 0.; 0. |] ~ys:[| 1.; 2. |] 0.)

let test_spline_nodes () =
  let xs = Vec.linspace 0. 4. 9 in
  let ys = Array.map (fun x -> sin x) xs in
  let s = Interp.spline ~xs ~ys in
  Array.iteri (fun i x -> approx ~eps:1e-12 "node value" ys.(i) (Interp.spline_eval s x)) xs;
  (* Between nodes the natural spline tracks sin well. *)
  approx ~eps:1e-3 "mid value" (sin 1.25) (Interp.spline_eval s 1.25);
  approx ~eps:2e-2 "derivative" (cos 1.25) (Interp.spline_deriv s 1.25)

let test_spline_linear_exact () =
  let xs = [| 0.; 1.; 2.; 5. |] in
  let ys = Array.map (fun x -> (3. *. x) -. 1. ) xs in
  let s = Interp.spline ~xs ~ys in
  approx ~eps:1e-12 "linear exact" 8. (Interp.spline_eval s 3.);
  approx ~eps:1e-10 "linear slope" 3. (Interp.spline_deriv s 3.)

let bilinear_fn x y = 2. +. (3. *. x) -. (1.5 *. y) +. (0.5 *. x *. y)

let test_grid2_exact () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 0.5; 2. |] in
  let values = Array.map (fun x -> Array.map (fun y -> bilinear_fn x y) ys) xs in
  let g = Interp.grid2 ~xs ~ys ~values in
  (* Bilinear interpolation reproduces bilinear functions exactly. *)
  List.iter
    (fun (x, y) ->
      approx ~eps:1e-12
        (Printf.sprintf "bilinear at (%g,%g)" x y)
        (bilinear_fn x y)
        (Interp.grid2_eval g x y))
    [ (0.3, 0.2); (1.5, 1.); (1., 0.5); (2., 2.); (0., 0.) ]

let test_grid2_derivatives () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 1.; 2. |] in
  let values = Array.map (fun x -> Array.map (fun y -> bilinear_fn x y) ys) xs in
  let g = Interp.grid2 ~xs ~ys ~values in
  (* d/dx = 3 + 0.5 y; d/dy = -1.5 + 0.5 x. *)
  approx ~eps:1e-12 "dx" (3. +. (0.5 *. 0.5)) (Interp.grid2_dx g 0.5 0.5);
  approx ~eps:1e-12 "dy" (-1.5 +. (0.5 *. 0.5)) (Interp.grid2_dy g 0.5 0.5)

let test_grid2_clamp () =
  let xs = [| 0.; 1. |] and ys = [| 0.; 1. |] in
  let values = [| [| 0.; 0. |]; [| 1.; 1. |] |] in
  let g = Interp.grid2 ~xs ~ys ~values in
  approx "clamped" 1. (Interp.grid2_eval g 5. 0.5)

let prop_grid2_within_bounds =
  qtest ~count:60 "bilinear stays within corner bounds"
    QCheck.(pair (float_range 0. 2.) (float_range 0. 2.))
    (fun (x, y) ->
      let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 1.; 2. |] in
      let values =
        Array.map (fun x -> Array.map (fun y -> sin (x +. y)) ys) xs
      in
      let g = Interp.grid2 ~xs ~ys ~values in
      let v = Interp.grid2_eval g x y in
      let lo = Array.fold_left (fun a r -> Float.min a (Vec.minimum r)) infinity values in
      let hi = Array.fold_left (fun a r -> Float.max a (Vec.maximum r)) neg_infinity values in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

(* Contour: radial field; the 1.0-level set of f = x^2 + y^2 is the unit
   circle. *)
let radial_grid n =
  let xs = Vec.linspace (-2.) 2. n and ys = Vec.linspace (-2.) 2. n in
  let values = Array.map (fun x -> Array.map (fun y -> (x *. x) +. (y *. y)) ys) xs in
  (xs, ys, values)

let test_contour_circle () =
  let xs, ys, values = radial_grid 41 in
  let points = List.concat (Contour.extract ~xs ~ys ~values ~level:1.) in
  Alcotest.(check bool) "points found" true (List.length points > 20);
  List.iter
    (fun (p : Contour.point) ->
      let r = Float.hypot p.Contour.x p.Contour.y in
      approx ~eps:0.02 "on unit circle" 1. r)
    points

let test_contour_chaining () =
  let xs, ys, values = radial_grid 21 in
  let polylines = Contour.extract ~xs ~ys ~values ~level:1. in
  (* One closed loop (possibly split in a few pieces by chaining order). *)
  Alcotest.(check bool) "few pieces" true (List.length polylines <= 3);
  let total = List.fold_left (fun acc pl -> acc + List.length pl) 0 polylines in
  Alcotest.(check bool) "enough points" true (total > 16)

let test_contour_empty () =
  let xs, ys, values = radial_grid 11 in
  Alcotest.(check int) "no contour at level 100" 0
    (List.length (Contour.extract ~xs ~ys ~values ~level:100.))

let suite =
  [
    Alcotest.test_case "linear interp" `Quick test_linear;
    Alcotest.test_case "spline nodes" `Quick test_spline_nodes;
    Alcotest.test_case "spline linear-exact" `Quick test_spline_linear_exact;
    Alcotest.test_case "grid2 bilinear-exact" `Quick test_grid2_exact;
    Alcotest.test_case "grid2 derivatives" `Quick test_grid2_derivatives;
    Alcotest.test_case "grid2 clamp" `Quick test_grid2_clamp;
    prop_grid2_within_bounds;
    Alcotest.test_case "contour circle" `Quick test_contour_circle;
    Alcotest.test_case "contour chaining" `Quick test_contour_chaining;
    Alcotest.test_case "contour empty" `Quick test_contour_empty;
  ]
