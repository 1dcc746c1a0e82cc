type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  median : float;
}

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let mean = Vec.mean xs in
  let var =
    if n < 2 then 0.
    else begin
      let acc = ref 0. in
      Array.iter
        (fun v ->
          let d = v -. mean in
          acc := !acc +. (d *. d))
        xs;
      !acc /. float_of_int (n - 1)
    end
  in
  {
    n;
    mean;
    std = sqrt var;
    min = Vec.minimum xs;
    max = Vec.maximum xs;
    median = percentile xs 50.;
  }

type histogram = { lo : float; hi : float; counts : int array }

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty sample";
  let lo = Vec.minimum xs and hi = Vec.maximum xs in
  let lo, hi = if hi > lo then (lo, hi) else (lo -. 0.5, lo +. 0.5) in
  let counts = Array.make bins 0 in
  let w = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun v ->
      let b = int_of_float ((v -. lo) /. w) in
      let b = if b < 0 then 0 else if b >= bins then bins - 1 else b in
      counts.(b) <- counts.(b) + 1)
    xs;
  { lo; hi; counts }

let bin_centers h =
  let bins = Array.length h.counts in
  let w = (h.hi -. h.lo) /. float_of_int bins in
  Array.init bins (fun i -> h.lo +. (w *. (float_of_int i +. 0.5)))

let pp_histogram ?(width = 40) ppf h =
  let centers = bin_centers h in
  let peak = Array.fold_left max 1 h.counts in
  Array.iteri
    (fun i c ->
      let marks = c * width / peak in
      Format.fprintf ppf "%12.5g | %-*s %d@." centers.(i) width
        (String.make marks '#') c)
    h.counts
