type result = {
  gnrfet : Technology.row list;
  cmos : Technology.row list;
  edp_improvement_range : (float * float) option;
}

let run surface =
  let gnrfet = Technology.gnrfet_operating_points surface in
  let cmos = Technology.cmos_rows () in
  let reference =
    match List.find_opt (fun (r : Technology.row) -> r.Technology.label = "GNRFET B") gnrfet with
    | Some b -> Some b
    | None -> (match gnrfet with r :: _ -> Some r | [] -> None)
  in
  let edp_improvement_range =
    match reference with
    | None -> None
    | Some b ->
      (* The paper compares the *optimum* EDP of each CMOS node (its best
         supply) to GNRFET point B, quoting 40-168X across nodes. *)
      let by_node label =
        List.filter (fun (r : Technology.row) -> r.Technology.label = label) cmos
        |> List.map (fun r -> r.Technology.edp)
        |> List.fold_left Float.min infinity
      in
      let ratios =
        List.map
          (fun node -> by_node ("CMOS " ^ node) /. b.Technology.edp)
          [ "22nm"; "32nm"; "45nm" ]
        (* Missing CMOS rows or a degenerate reference EDP yield inf/NaN
           ratios; drop them so they can never reach the printed range. *)
        |> List.filter Float.is_finite
      in
      (match ratios with
      | [] -> None
      | _ ->
        Some
          ( List.fold_left Float.min infinity ratios,
            List.fold_left Float.max neg_infinity ratios ))
  in
  { gnrfet; cmos; edp_improvement_range }

let print_row ppf (r : Technology.row) =
  Format.fprintf ppf "%-14s VDD=%.2f VT=%.2f   f=%6.2f GHz   EDP=%10.4g fJ-ps   SNM=%.3f V@."
    r.Technology.label r.Technology.vdd r.Technology.vt
    (r.Technology.frequency /. 1e9)
    (r.Technology.edp /. 1e-27)
    r.Technology.snm

let print ppf r =
  Report.heading ppf "Table 1: GNRFET (A/B/C) vs scaled CMOS (22/32/45nm)";
  List.iter (print_row ppf) r.gnrfet;
  List.iter (print_row ppf) r.cmos;
  match r.edp_improvement_range with
  | None ->
    Format.fprintf ppf
      "CMOS-optimum / GNRFET-B EDP ratio: unavailable (no finite reference ratios)@."
  | Some (lo, hi) ->
    Format.fprintf ppf "CMOS-optimum / GNRFET-B EDP ratio: %.0fX - %.0fX (paper: 40-168X)@."
      lo hi
