type t = { mutable state : int64; mutable cached_normal : float option }

let create seed =
  { state = Int64.of_int seed; cached_normal = None }

(* splitmix64: fast, passes BigCrush, trivially seedable.  The state
   advances by the golden gamma, and each output is [Fault.splitmix64]
   (add the gamma, then mix) of the state before the step: one mixer
   shared with the fault-injection, campaign and client-jitter streams. *)
let int64 t =
  let s = t.state in
  t.state <- Int64.add s 0x9E3779B97F4A7C15L;
  Fault.splitmix64 s

let split t = { state = int64 t; cached_normal = None }

let float t =
  (* 53 high bits -> uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t a b = a +. ((b -. a) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for small n. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod n

let normal t =
  match t.cached_normal with
  | Some v ->
    t.cached_normal <- None;
    v
  | None ->
    (* Box-Muller on two uniforms, caching the second deviate. *)
    let rec nonzero () =
      let u = float t in
      if u > Tol.underflow_guard then u else nonzero ()
    in
    let u1 = nonzero () and u2 = float t in
    let r = sqrt (-2. *. log u1) in
    let theta = 2. *. Float.pi *. u2 in
    t.cached_normal <- Some (r *. sin theta);
    r *. cos theta

let gaussian t ~mean ~sigma = mean +. (sigma *. normal t)
