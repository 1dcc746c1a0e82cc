let linspace a b n =
  if n <= 0 then invalid_arg "Vec.linspace: n must be positive";
  if n = 1 then [| a |]
  else begin
    let h = (b -. a) /. float_of_int (n - 1) in
    Array.init n (fun i -> a +. (h *. float_of_int i))
  end

let dot x y =
  if Array.length x <> Array.length y then invalid_arg "Vec.dot: length mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let axpy a x y =
  if Array.length x <> Array.length y then invalid_arg "Vec.axpy: length mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let scale a x = Array.map (fun v -> a *. v) x

let add x y =
  if Array.length x <> Array.length y then invalid_arg "Vec.add: length mismatch";
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  if Array.length x <> Array.length y then invalid_arg "Vec.sub: length mismatch";
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. x

let max_abs_diff x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vec.max_abs_diff: length mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs (x.(i) -. y.(i)))
  done;
  !acc

let sum x = Array.fold_left ( +. ) 0. x

let mean x =
  if Array.length x = 0 then invalid_arg "Vec.mean: empty vector";
  sum x /. float_of_int (Array.length x)

let minimum x =
  if Array.length x = 0 then invalid_arg "Vec.minimum: empty vector";
  Array.fold_left Float.min x.(0) x

let maximum x =
  if Array.length x = 0 then invalid_arg "Vec.maximum: empty vector";
  Array.fold_left Float.max x.(0) x

let arg_extremum better x =
  if Array.length x = 0 then invalid_arg "Vec.arg_extremum: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if better x.(i) x.(!best) then best := i
  done;
  !best

let argmin x = arg_extremum ( < ) x

let argmax x = arg_extremum ( > ) x
