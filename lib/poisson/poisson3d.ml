type t = {
  nx : int;
  ny : int;
  nz : int;
  spacing : float;
  matrix : Sparse.t;
}

let make ~nx ~ny ~nz ~spacing ~eps_r =
  if nx < 3 || ny < 3 || nz < 3 then invalid_arg "Poisson3d.make: grid too small";
  if spacing <= 0. then invalid_arg "Poisson3d.make: non-positive spacing";
  (* Interior unknowns only; Dirichlet boundaries eliminated. *)
  let mx = nx - 2 and my = ny - 2 and mz = nz - 2 in
  let idx i j k = (((i - 1) * my) + (j - 1)) * mz + (k - 1) in
  let builder = Sparse.Builder.create (mx * my * mz) in
  let eps i j k =
    (* Sample at node (i,j,k), in physical coordinates. *)
    Const.eps0
    *. eps_r (float_of_int i *. spacing) (float_of_int j *. spacing)
         (float_of_int k *. spacing)
  in
  let face_eps i j k i' j' k' =
    0.5 *. (eps i j k +. eps i' j' k')
  in
  for i = 1 to nx - 2 do
    for j = 1 to ny - 2 do
      for k = 1 to nz - 2 do
        let row = idx i j k in
        let neighbours =
          [
            (i - 1, j, k); (i + 1, j, k);
            (i, j - 1, k); (i, j + 1, k);
            (i, j, k - 1); (i, j, k + 1);
          ]
        in
        List.iter
          (fun (i', j', k') ->
            let c = face_eps i j k i' j' k' *. spacing in
            Sparse.Builder.add builder row row c;
            let interior =
              i' >= 1 && i' <= nx - 2 && j' >= 1 && j' <= ny - 2 && k' >= 1
              && k' <= nz - 2
            in
            if interior then Sparse.Builder.add builder row (idx i' j' k') (-.c))
          neighbours
      done
    done
  done;
  { nx; ny; nz; spacing; matrix = Sparse.Builder.finalize builder }

type charge = { ix : int; iy : int; iz : int; coulombs : float }

let obs_solves = Obs.Counter.make "poisson3d.solves"
let obs_cg_iters = Obs.Counter.make "poisson3d.cg_iterations"
let obs_solve_time = Obs.Timer.make "poisson3d.solve"
let obs_cg_retries = Obs.Counter.make "robust.poisson3d.cg_retries"
let obs_sor_fallbacks = Obs.Counter.make "robust.poisson3d.sor_fallbacks"

let solve ?(tol = 1e-10) ?(boundary = 0.) t ~charges =
  Obs.Counter.incr obs_solves;
  let t0 = Obs.Timer.start obs_solve_time in
  (* Stop on every path: the out-of-interior invalid_arg and a cg/SOR
     Iterative_no_convergence escaping the recovery ladder must not leak
     the sample (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_solve_time t0) @@ fun () ->
  let { nx; ny; nz; spacing; matrix } = t in
  let mx = nx - 2 and my = ny - 2 and mz = nz - 2 in
  let idx i j k = (((i - 1) * my) + (j - 1)) * mz + (k - 1) in
  let rhs = Array.make (mx * my * mz) 0. in
  (* div(eps grad u) = rho  ->  (sum c) u_c - sum c u_nb = -q_cell. *)
  List.iter
    (fun { ix; iy; iz; coulombs } ->
      if ix < 1 || ix > nx - 2 || iy < 1 || iy > ny - 2 || iz < 1 || iz > nz - 2
      then invalid_arg "Poisson3d.solve: charge outside interior";
      rhs.(idx ix iy iz) <- rhs.(idx ix iy iz) -. coulombs)
    charges;
  (* Dirichlet boundary contributions (uniform boundary value). *)
  ignore spacing;
  if boundary <> 0. then begin
    (* Uniform-boundary case: each boundary-touching face contributes
       c*boundary; with uniform permittivity every face conductance equals
       diagonal/6 (exact), and for smoothly varying permittivity the error
       is second order. *)
    for i = 1 to nx - 2 do
      for j = 1 to ny - 2 do
        for k = 1 to nz - 2 do
          let row = idx i j k in
          let boundary_faces =
            (if i = 1 then 1 else 0)
            + (if i = nx - 2 then 1 else 0)
            + (if j = 1 then 1 else 0)
            + (if j = ny - 2 then 1 else 0)
            + (if k = 1 then 1 else 0)
            + if k = nz - 2 then 1 else 0
          in
          if boundary_faces > 0 then begin
            (* Approximate: use the local diagonal/6 as the face
               conductance; exact for uniform permittivity. *)
            let d = (Sparse.diagonal matrix).(row) in
            rhs.(row) <- rhs.(row) +. (boundary *. d /. 6. *. float_of_int boundary_faces)
          end
        done
      done
    done
  end;
  (* Recovery ladder (docs/ROBUST.md): a cg failure is retried once (this
     sheds an injected transient fault; a genuine stagnation repeats
     deterministically) and then falls back to SOR, which trades speed for
     an iteration that cannot break down on this SPD operator.  Both
     solvers target the same tolerance, so the recovered potential is
     interchangeable with the fast path. *)
  let max_iter = 20 * mx * my * mz in
  let cg () = Sparse.cg ~tol ~max_iter matrix rhs in
  let x, iters =
    match cg () with
    | result -> result
    | exception Robust_error.Error (Robust_error.Iterative_no_convergence _)
      -> begin
      Obs.Counter.incr obs_cg_retries;
      match cg () with
      | result -> result
      | exception Robust_error.Error (Robust_error.Iterative_no_convergence _)
        ->
        Obs.Counter.incr obs_sor_fallbacks;
        Sparse.sor ~tol ~max_iter:(2 * max_iter) matrix rhs
    end
  in
  Obs.Counter.add obs_cg_iters iters;
  let u =
    Array.init nx (fun i ->
        Array.init ny (fun j ->
            Array.init nz (fun k ->
                if i = 0 || i = nx - 1 || j = 0 || j = ny - 1 || k = 0
                   || k = nz - 1
                then boundary
                else x.(idx i j k))))
  in
  u

let line_profile u ~iy ~iz = Array.map (fun plane -> plane.(iy).(iz)) u
