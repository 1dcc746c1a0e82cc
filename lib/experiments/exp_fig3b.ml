type result = {
  surface : Explore.surface;
  min_edp : Explore.operating_point;
  point_a : Explore.operating_point option;
  point_b : Explore.operating_point option;
  point_c : Explore.operating_point option;
  freq_3ghz_contour : Contour.polyline list;
  snm_contours : (float * Contour.polyline list) list;
}

let run () =
  let table = Table_cache.get (Params.default ()) in
  let surface =
    Explore.surface ~vdds:(Vec.linspace 0.1 0.7 13) ~vts:(Vec.linspace 0. 0.3 13)
      table
  in
  let min_edp = Explore.min_edp surface in
  let point_a = Explore.min_edp_at_frequency surface ~ghz:3. in
  let point_b = Explore.min_edp_at_frequency_and_snm surface ~ghz:3. ~snm:0.1 in
  let point_c =
    match point_b with
    | Some b -> Explore.same_edp_higher_vt surface ~like:b
    | None -> None
  in
  let freq_3ghz_contour = Explore.contours surface Explore.Frequency ~level:3e9 in
  let snm_contours =
    List.map
      (fun level -> (level, Explore.contours surface Explore.Snm_margin ~level))
      [ 0.05; 0.075; 0.1; 0.125 ]
  in
  { surface; min_edp; point_a; point_b; point_c; freq_3ghz_contour; snm_contours }

let print_grid ppf (s : Explore.surface) name value =
  Format.fprintf ppf "%s (rows: VDD top-down, cols: VT left-right)@." name;
  Format.fprintf ppf "        ";
  Array.iter (fun vt -> Format.fprintf ppf "%8.3f" vt) s.Explore.vts;
  Format.fprintf ppf "@.";
  let nvdd = Array.length s.Explore.vdds in
  for i = nvdd - 1 downto 0 do
    Format.fprintf ppf "VDD %.2f:" s.Explore.vdds.(i);
    Array.iter (fun p -> Format.fprintf ppf "%8.3g" (value p)) s.Explore.points.(i);
    Format.fprintf ppf "@."
  done

let print_op ppf label = function
  | Some (p : Explore.operating_point) ->
    Format.fprintf ppf "%s: VDD = %.3f V, VT = %.3f V, EDP = %.3g fJ-ps@." label
      p.Explore.vdd p.Explore.vt
      (p.Explore.value /. 1e-27)
  | None -> Format.fprintf ppf "%s: not found on grid@." label

let print ppf r =
  Report.heading ppf "Fig 3(b): EDP / frequency / SNM exploration (15-stage FO4 RO)";
  print_grid ppf r.surface "ln(EDP [aJ-ps])" Explore.edp_ln_aj_ps;
  print_grid ppf r.surface "Frequency [GHz]" (fun p -> p.Explore.frequency /. 1e9);
  print_grid ppf r.surface "SNM [V]" (fun p -> p.Explore.snm);
  Format.fprintf ppf "minimum EDP: VDD = %.3f V, VT = %.3f V (paper: 0.15 V / 0.08 V)@."
    r.min_edp.Explore.vdd r.min_edp.Explore.vt;
  print_op ppf "point A (min EDP @ 3 GHz)          " r.point_a;
  print_op ppf "point B (3 GHz with SNM floor)     " r.point_b;
  print_op ppf "point C (same EDP, higher VT)      " r.point_c;
  Format.fprintf ppf "3 GHz frequency contour pieces: %d; SNM contour levels: %s@."
    (List.length r.freq_3ghz_contour)
    (String.concat ", "
       (List.map (fun (l, pls) -> Printf.sprintf "%.3g(%d)" l (List.length pls))
          r.snm_contours))
