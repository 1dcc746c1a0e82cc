let wideband ~gamma = { Complex.re = 0.; im = -.gamma /. 2. }

let dimer_surface ?(eta = 1e-5) ~t1 ~t2 ~onsite e =
  let open Complex in
  let z = { re = e -. onsite; im = eta } in
  (* The device attaches to the lead surface site through a [t2] bond, so
     the surface site's inward bond is [t1] and the decimation fixed point
     g = 1/(z - t1^2/(z - t2^2 g)) satisfies the quadratic
     t2^2 z g^2 - (z^2 - t1^2 + t2^2) g + z = 0.
     With eta > 0 exactly one root is retarded (Im g < 0). *)
  let t1sq = { re = t1 *. t1; im = 0. } and t2sq = { re = t2 *. t2; im = 0. } in
  let a = mul t2sq z in
  let b = neg (add (sub (mul z z) t1sq) t2sq) in
  let c = z in
  let s = sqrt (sub (mul b b) (mul (mul { re = 4.; im = 0. } a) c)) in
  let g1 = div (add (neg b) s) (mul { re = 2.; im = 0. } a) in
  let g2 = div (sub (neg b) s) (mul { re = 2.; im = 0. } a) in
  (* Retarded branch: negative imaginary part; in the gap both are nearly
     real and the physical root is the bounded one. *)
  if g1.im < -1e-16 && g2.im < -1e-16 then if norm g1 <= norm g2 then g1 else g2
  else if g1.im < g2.im then g1
  else g2

(* Sancho–Rubio decimation: each iteration doubles the effective chain
   length, so the decimated couplings α, β shrink geometrically.  The
   products g·α and g·β are formed once per iteration and shared by the
   four updates (six multiplies plus one inverse per iteration). *)

let c_sancho_calls = Obs.Counter.make "self_energy.sancho_calls"

let h_sancho_iters = Obs.Histogram.make "self_energy.sancho_iterations"

let tm_sancho = Obs.Timer.make "self_energy.sancho_rubio"

let sancho_rubio ?(eta = 1e-6) ?(tol = 1e-12) ?(max_iter = 200) ~h00 ~h01 e =
  Obs.Counter.incr c_sancho_calls;
  let t0 = Obs.Timer.start tm_sancho in
  Fun.protect ~finally:(fun () -> Obs.Timer.stop tm_sancho t0) @@ fun () ->
  let n, _ = Cmatrix.dims h00 in
  let energy = Cmatrix.scale { Complex.re = e; im = eta } (Cmatrix.identity n) in
  let rec loop eps eps_s alpha beta k =
    let residual = Cmatrix.max_abs alpha in
    if residual < tol then begin
      Obs.Histogram.observe h_sancho_iters k;
      Cmatrix.inverse (Cmatrix.sub energy eps_s)
    end
    else if k >= max_iter then
      Robust_error.raise_
        (Robust_error.Iterative_no_convergence
           { solver = "Self_energy.sancho_rubio"; iterations = k; residual })
    else begin
      let g = Cmatrix.inverse (Cmatrix.sub energy eps) in
      let ga = Cmatrix.mul g alpha and gb = Cmatrix.mul g beta in
      (* ε += α g β + β g α;  ε_s += α g β;  α' = α g α;  β' = β g β. *)
      let agb = Cmatrix.mul alpha gb in
      let eps' = Cmatrix.add eps (Cmatrix.add agb (Cmatrix.mul beta ga)) in
      let eps_s' = Cmatrix.add eps_s agb in
      loop eps' eps_s' (Cmatrix.mul alpha ga) (Cmatrix.mul beta gb) (k + 1)
    end
  in
  loop h00 h00 h01 (Cmatrix.adjoint h01) 0
