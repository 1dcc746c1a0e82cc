type point = { x : float; y : float }
type polyline = point list

(* Linear interpolation of the crossing position between two nodes. *)
let crossing v0 v1 level p0 p1 =
  let t = if v1 = v0 then 0.5 else (level -. v0) /. (v1 -. v0) in
  let t = Float.max 0. (Float.min 1. t) in
  { x = p0.x +. (t *. (p1.x -. p0.x)); y = p0.y +. (t *. (p1.y -. p0.y)) }

(* Segments of the contour inside one grid cell, via the marching squares
   case table (ambiguous saddles resolved with the cell-center average). *)
let cell_segments xs ys values level i j =
  let p00 = { x = xs.(i); y = ys.(j) }
  and p10 = { x = xs.(i + 1); y = ys.(j) }
  and p01 = { x = xs.(i); y = ys.(j + 1) }
  and p11 = { x = xs.(i + 1); y = ys.(j + 1) } in
  let v00 = values.(i).(j)
  and v10 = values.(i + 1).(j)
  and v01 = values.(i).(j + 1)
  and v11 = values.(i + 1).(j + 1) in
  let b v = if v >= level then 1 else 0 in
  let code = b v00 lor (b v10 lsl 1) lor (b v11 lsl 2) lor (b v01 lsl 3) in
  let bottom () = crossing v00 v10 level p00 p10 in
  let right () = crossing v10 v11 level p10 p11 in
  let top () = crossing v01 v11 level p01 p11 in
  let left () = crossing v00 v01 level p00 p01 in
  match code with
  | 0 | 15 -> []
  | 1 | 14 -> [ (left (), bottom ()) ]
  | 2 | 13 -> [ (bottom (), right ()) ]
  | 3 | 12 -> [ (left (), right ()) ]
  | 4 | 11 -> [ (right (), top ()) ]
  | 6 | 9 -> [ (bottom (), top ()) ]
  | 7 | 8 -> [ (left (), top ()) ]
  | 5 | 10 ->
    let center = 0.25 *. (v00 +. v10 +. v01 +. v11) in
    if (center >= level) = (code = 5) then
      [ (left (), top ()); (bottom (), right ()) ]
    else [ (left (), bottom ()); (right (), top ()) ]
  | _ -> assert false

let degenerate (a, b) =
  Float.abs (a.x -. b.x) < 1e-12 && Float.abs (a.y -. b.y) < 1e-12

let all_segments ~xs ~ys ~values ~level =
  let nx = Array.length xs and ny = Array.length ys in
  let segs = ref [] in
  for i = 0 to nx - 2 do
    for j = 0 to ny - 2 do
      List.iter
        (fun s -> if not (degenerate s) then segs := s :: !segs)
        (cell_segments xs ys values level i j)
    done
  done;
  !segs

let close_enough a b =
  Float.abs (a.x -. b.x) < 1e-9 && Float.abs (a.y -. b.y) < 1e-9

(* Chain loose segments into polylines by repeatedly extending at both
   ends. Quadratic in segment count, fine at contour-extraction scale. *)
let chain segments =
  let remaining = ref segments in
  let polylines = ref [] in
  let take_matching endpoint =
    let rec go acc = function
      | [] -> None
      | (a, b) :: tl when close_enough a endpoint ->
        remaining := List.rev_append acc tl;
        Some b
      | (a, b) :: tl when close_enough b endpoint ->
        remaining := List.rev_append acc tl;
        Some a
      | s :: tl -> go (s :: acc) tl
    in
    go [] !remaining
  in
  let rec extend_front line =
    match take_matching (List.hd line) with
    | Some p -> extend_front (p :: line)
    | None -> line
  in
  while !remaining <> [] do
    match !remaining with
    | [] -> ()
    | (a, b) :: tl ->
      remaining := tl;
      let forward = extend_front [ b; a ] in
      let backward = extend_front (List.rev forward) in
      polylines := backward :: !polylines
  done;
  !polylines

let extract ~xs ~ys ~values ~level =
  chain (all_segments ~xs ~ys ~values ~level)
