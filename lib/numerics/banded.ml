type t = {
  n : int;
  kl : int; (* half bandwidth *)
  data : float array; (* row-major band storage, width 2*kl+1 *)
  mutable factorized : bool;
}

let create ~n ~bandwidth =
  if n <= 0 then invalid_arg "Banded.create: n must be positive";
  if bandwidth < 0 then invalid_arg "Banded.create: negative bandwidth";
  { n; kl = bandwidth; data = Array.make (n * ((2 * bandwidth) + 1)) 0.; factorized = false }

let index t i j =
  let off = t.kl + j - i in
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg "Banded: index out of range";
  if off < 0 || off > 2 * t.kl then None else Some ((i * ((2 * t.kl) + 1)) + off)

let set t i j v =
  if t.factorized then invalid_arg "Banded.set: already factorized";
  match index t i j with
  | Some k -> t.data.(k) <- v
  | None -> invalid_arg "Banded.set: outside band"

let add_to t i j v =
  if t.factorized then invalid_arg "Banded.add_to: already factorized";
  match index t i j with
  | Some k -> t.data.(k) <- t.data.(k) +. v
  | None -> invalid_arg "Banded.add_to: outside band"

let get t i j = match index t i j with Some k -> t.data.(k) | None -> 0.

let raw_get t i j = t.data.((i * ((2 * t.kl) + 1)) + t.kl + j - i)

let raw_set t i j v = t.data.((i * ((2 * t.kl) + 1)) + t.kl + j - i) <- v

let factorize t =
  if t.factorized then invalid_arg "Banded.factorize: already factorized";
  let n = t.n and kl = t.kl in
  for k = 0 to n - 1 do
    let pivot = raw_get t k k in
    if Float.abs pivot < Tol.pivot then
      Robust_error.raise_
        (Robust_error.Singular
           {
             solver = "Banded.factorize";
             detail = Printf.sprintf "zero pivot at row %d" k;
           });
    let imax = min (n - 1) (k + kl) in
    for i = k + 1 to imax do
      let factor = raw_get t i k /. pivot in
      raw_set t i k factor;
      if factor <> 0. then begin
        let jmax = min (n - 1) (k + kl) in
        for j = k + 1 to jmax do
          raw_set t i j (raw_get t i j -. (factor *. raw_get t k j))
        done
      end
    done
  done;
  t.factorized <- true

(* The two triangular sweeps index [t.data] directly: row [i] of the
   band starts at [i * (2kl+1)] and holds column [j] at offset
   [kl + j - i], so [A(i,j)] sits at [i * 2kl + kl + j].  An out-of-line
   accessor would box every band element it returns. *)
let forward t x ~from =
  let n = t.n and kl = t.kl and data = t.data in
  for i = from to n - 1 do
    let row = (i * 2 * kl) + kl in
    let acc = ref x.(i) in
    for j = max 0 (i - kl) to i - 1 do
      acc := !acc -. (data.(row + j) *. x.(j))
    done;
    x.(i) <- !acc
  done

let backward t x ~from =
  let n = t.n and kl = t.kl and data = t.data in
  for i = n - 1 downto from do
    let row = (i * 2 * kl) + kl in
    let acc = ref x.(i) in
    for j = i + 1 to min (n - 1) (i + kl) do
      acc := !acc -. (data.(row + j) *. x.(j))
    done;
    x.(i) <- !acc /. data.(row + i)
  done

let check_solve t name len =
  if not t.factorized then invalid_arg (name ^ ": not factorized");
  if len <> t.n then invalid_arg (name ^ ": dimension mismatch")

let solve t b =
  check_solve t "Banded.solve" (Array.length b);
  let x = Array.copy b in
  forward t x ~from:0;
  backward t x ~from:0;
  x

let solve_tail t x ~from =
  check_solve t "Banded.solve_tail" (Array.length x);
  if from < 0 || from >= t.n then invalid_arg "Banded.solve_tail: row out of range";
  forward t x ~from;
  backward t x ~from

let forward_in_place t x =
  check_solve t "Banded.forward_in_place" (Array.length x);
  forward t x ~from:0
