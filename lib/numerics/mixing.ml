type scheme =
  | Linear of float
  | Anderson of { history : int; alpha : float }

type t = {
  scheme : scheme;
  mutable xs : float array list; (* most recent first *)
  mutable rs : float array list; (* residuals g(x) - x, most recent first *)
}

let linear ~alpha =
  if alpha <= 0. || alpha > 1. then invalid_arg "Mixing.linear: alpha in (0,1]";
  { scheme = Linear alpha; xs = []; rs = [] }

let anderson ?(history = 4) ?(alpha = 0.3) () =
  if history < 1 then invalid_arg "Mixing.anderson: history must be positive";
  { scheme = Anderson { history; alpha }; xs = []; rs = [] }

let reset t =
  t.xs <- [];
  t.rs <- []

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | y :: tl -> y :: go (n - 1) tl
  in
  go n xs

(* Type-II Anderson: minimize || r_k + sum_j gamma_j (r_{k-j} - r_k) ||,
   then combine the corresponding x and r with the same weights. *)
let anderson_step ~history ~alpha t x r =
  (* The least-squares step needs at most dim(x) independent residual
     differences. *)
  let history = min history (Array.length x) in
  t.xs <- take (history + 1) (x :: t.xs);
  t.rs <- take (history + 1) (r :: t.rs);
  match (t.xs, t.rs) with
  | [ _ ], [ _ ] -> Vec.add x (Vec.scale alpha r)
  | xs, rs ->
    let m = List.length rs - 1 in
    let n = Array.length x in
    let r0 = List.hd rs in
    let older_r = List.tl rs and older_x = List.tl xs in
    (* Columns: r_old_j - r0. *)
    let a = Matrix.init n m (fun i j -> (List.nth older_r j).(i) -. r0.(i)) in
    let gamma =
      try Lstsq.solve a (Array.map (fun v -> -.v) r0)
      with Failure _ | Robust_error.Error (Robust_error.Singular _) ->
        Array.make m 0.
    in
    let xmix = Array.copy x and rmix = Array.copy r in
    List.iteri
      (fun j xj ->
        let g = gamma.(j) in
        if g <> 0. then begin
          let rj = List.nth older_r j in
          for i = 0 to n - 1 do
            xmix.(i) <- xmix.(i) +. (g *. (xj.(i) -. x.(i)));
            rmix.(i) <- rmix.(i) +. (g *. (rj.(i) -. r.(i)))
          done
        end)
      older_x;
    Vec.add xmix (Vec.scale alpha rmix)

let step t ~x ~gx =
  let r = Vec.sub gx x in
  match t.scheme with
  | Linear alpha -> Vec.add x (Vec.scale alpha r)
  | Anderson { history; alpha } -> anderson_step ~history ~alpha t x r
