let heading ppf title =
  Format.fprintf ppf "@.%s@.%s@." title (String.make (String.length title) '-')

let series ppf ~name ~xs ~ys =
  Format.fprintf ppf "%s@." name;
  Array.iteri
    (fun i x -> Format.fprintf ppf "  %10.4g  %12.5g@." x ys.(i))
    xs

let prefixes =
  [ (1e12, "T"); (1e9, "G"); (1e6, "M"); (1e3, "k"); (1., "");
    (1e-3, "m"); (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f");
    (1e-18, "a") ]

let si v =
  if v = 0. then "0 "
  else begin
    let mag = Float.abs v in
    let scale, prefix =
      match List.find_opt (fun (s, _) -> mag >= s) prefixes with
      | Some sp -> sp
      | None -> (1e-18, "a")
    in
    Printf.sprintf "%.3g %s" (v /. scale) prefix
  end
