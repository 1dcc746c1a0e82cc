type contact_style = Plane | Point

type dirichlet = D_left | D_right | D_bottom | D_top

(* A Dirichlet neighbour of unknown [unknown] across a face of
   conductance [cond]: its known potential moves to the right-hand side. *)
type rhs_entry = { unknown : int; side : dirichlet; cond : float }

type t = {
  xs : float array;
  zs : float array;
  sheet_row : int;
  unknown_of : int array array; (* node -> unknown index, or -1 *)
  dirichlet_of : dirichlet option array array;
  matrix : Banded.t; (* factorized *)
  dirichlet_rhs : rhs_entry array; (* in assembly order *)
  sheet_width : float array; (* x-cell width of interior node i+1 *)
  n_unknowns : int;
}

type bc = { left : float; right : float; bottom : float; top : float }

let nx t = Array.length t.xs
let nz t = Array.length t.zs

let cell_size axis k =
  let n = Array.length axis in
  let lo = if k = 0 then axis.(0) else 0.5 *. (axis.(k - 1) +. axis.(k)) in
  let hi = if k = n - 1 then axis.(n - 1) else 0.5 *. (axis.(k) +. axis.(k + 1)) in
  hi -. lo

let make ?(contact_style = Point) ~xs ~zs ~eps_r ~sheet_row () =
  let nx = Array.length xs and nz = Array.length zs in
  if nx < 3 || nz < 3 then invalid_arg "Stack2d.make: grid too small";
  if sheet_row <= 0 || sheet_row >= nz - 1 then
    invalid_arg "Stack2d.make: sheet_row must be interior";
  let eps x z = Const.eps0 *. eps_r x z in
  let cond_east =
    Array.init (nx - 1) (fun i ->
        Array.init nz (fun j ->
            let xm = 0.5 *. (xs.(i) +. xs.(i + 1)) in
            eps xm zs.(j) *. cell_size zs j /. (xs.(i + 1) -. xs.(i))))
  in
  let cond_north =
    Array.init nx (fun i ->
        Array.init (nz - 1) (fun j ->
            let zm = 0.5 *. (zs.(j) +. zs.(j + 1)) in
            eps xs.(i) zm *. cell_size xs i /. (zs.(j + 1) -. zs.(j))))
  in
  (* Classify nodes: gates always Dirichlet; contacts per style. *)
  let dirichlet_of =
    Array.init nx (fun i ->
        Array.init nz (fun j ->
            if j = 0 then Some D_bottom
            else if j = nz - 1 then Some D_top
            else begin
              match contact_style with
              | Plane ->
                if i = 0 then Some D_left
                else if i = nx - 1 then Some D_right
                else None
              | Point ->
                if i = 0 && j = sheet_row then Some D_left
                else if i = nx - 1 && j = sheet_row then Some D_right
                else None
            end))
  in
  let unknown_of = Array.make_matrix nx nz (-1) in
  let count = ref 0 in
  for i = 0 to nx - 1 do
    for j = 1 to nz - 2 do
      if dirichlet_of.(i).(j) = None then begin
        unknown_of.(i).(j) <- !count;
        incr count
      end
    done
  done;
  let n_unknowns = !count in
  (* i-major with j fastest: neighbour offsets bounded by nz.  The
     Dirichlet right-hand-side stencil is recorded in the same pass, so
     [solve] replays it in exactly this order. *)
  let m = Banded.create ~n:n_unknowns ~bandwidth:nz in
  let rhs = ref [] in
  for i = 0 to nx - 1 do
    for j = 1 to nz - 2 do
      let k = unknown_of.(i).(j) in
      if k >= 0 then begin
        let stamp i' j' cond =
          Banded.add_to m k k cond;
          match dirichlet_of.(i').(j') with
          | Some side -> rhs := { unknown = k; side; cond } :: !rhs
          | None -> Banded.add_to m k unknown_of.(i').(j') (-.cond)
        in
        (* Outside the domain (no west/east neighbour): Neumann, zero flux. *)
        if i > 0 then stamp (i - 1) j cond_east.(i - 1).(j);
        if i < nx - 1 then stamp (i + 1) j cond_east.(i).(j);
        stamp i (j - 1) cond_north.(i).(j - 1);
        stamp i (j + 1) cond_north.(i).(j)
      end
    done
  done;
  Banded.factorize m;
  {
    xs;
    zs;
    sheet_row;
    unknown_of;
    dirichlet_of;
    matrix = m;
    dirichlet_rhs = Array.of_list (List.rev !rhs);
    sheet_width = Array.init (nx - 2) (fun i -> cell_size xs (i + 1));
    n_unknowns;
  }

let dirichlet_value bc = function
  | D_left -> bc.left
  | D_right -> bc.right
  | D_bottom -> bc.bottom
  | D_top -> bc.top

(* Direct (factorized banded) solver, so there is no iteration count to
   report — just how often SCF calls it and what each solve costs. *)
let obs_solves = Obs.Counter.make "stack2d.solves"
let obs_solve_time = Obs.Timer.make "stack2d.solve"

(* Right-hand side of a zero-charge solve: the Dirichlet stencil added
   into [rhs] entry by entry, in assembly order. *)
let add_dirichlet t bc rhs =
  let entries = t.dirichlet_rhs in
  for e = 0 to Array.length entries - 1 do
    let { unknown = k; side; cond } = entries.(e) in
    rhs.(k) <- rhs.(k) +. (cond *. dirichlet_value bc side)
  done

(* Sheet-row unknown of interior x node [i + 1] (the sheet row is
   interior, so it is never Dirichlet there). *)
let sheet_unknown t i = t.unknown_of.(i + 1).(t.sheet_row)

let solve t ~bc ~sheet_charge =
  Obs.Counter.incr obs_solves;
  let t0 = Obs.Timer.start obs_solve_time in
  (* Stop on every path: the sheet-charge-length invalid_arg and a
     singular factorization in Banded.solve must not leak the sample
     (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_solve_time t0) @@ fun () ->
  let nx = nx t and nz = nz t in
  if Array.length sheet_charge <> nx - 2 then
    invalid_arg "Stack2d.solve: sheet_charge must have nx-2 entries";
  let rhs = Array.make t.n_unknowns 0. in
  (* Sheet charge: div(eps grad u) = rho discretizes to
     (sum c) u_c - sum c u_nb = -rho_cell. *)
  for i = 0 to nx - 3 do
    let k = sheet_unknown t i in
    rhs.(k) <- rhs.(k) -. (sheet_charge.(i) *. t.sheet_width.(i))
  done;
  add_dirichlet t bc rhs;
  let x = Banded.solve t.matrix rhs in
  let u = Array.make_matrix nx nz 0. in
  for i = 0 to nx - 1 do
    let col = u.(i) and dir = t.dirichlet_of.(i) and unk = t.unknown_of.(i) in
    for j = 0 to nz - 1 do
      match dir.(j) with
      | Some d -> col.(j) <- dirichlet_value bc d
      | None -> col.(j) <- x.(unk.(j))
    done
  done;
  u

let probe t ~bc ~sheet_charge =
  let n = nx t - 2 in
  Obs.Counter.add obs_solves n;
  let t0 = Obs.Timer.start obs_solve_time in
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_solve_time t0) @@ fun () ->
  (* The zero-charge right-hand side and its forward substitute are
     shared by every probe: a one-hot charge at unknown [k] changes only
     row [k] of the right-hand side, so rows before [k] keep the shared
     forward substitute and only rows from [k] on are re-solved. *)
  let rhs0 = Array.make t.n_unknowns 0. in
  add_dirichlet t bc rhs0;
  let y0 = Array.copy rhs0 in
  Banded.forward_in_place t.matrix y0;
  let x = Array.make t.n_unknowns 0. in
  Array.init n (fun i ->
      let k = sheet_unknown t i in
      Array.blit y0 0 x 0 k;
      Array.blit rhs0 k x k (t.n_unknowns - k);
      (* Row [k] exactly as [solve] assembles it: the sheet term first,
         then the Dirichlet stencil in assembly order. *)
      x.(k) <- 0. -. (sheet_charge *. t.sheet_width.(i));
      Array.iter
        (fun { unknown; side; cond } ->
          if unknown = k then x.(k) <- x.(k) +. (cond *. dirichlet_value bc side))
        t.dirichlet_rhs;
      Banded.solve_tail t.matrix x ~from:k;
      x.(k))

let plane_potential t u =
  let nx = nx t in
  Array.init (nx - 2) (fun i -> u.(i + 1).(t.sheet_row))
