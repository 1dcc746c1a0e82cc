type which = Width | Impurity | Combined

type result = { which : which; table : Variation.table }

let run which =
  let table =
    match which with
    | Width -> Variation.width_table ()
    | Impurity -> Variation.impurity_table ()
    | Combined -> Variation.combined_table ()
  in
  { which; table }

let spec_label (s : Variation.spec) =
  match s.Variation.charge with
  | 0. -> Printf.sprintf "N=%d" s.Variation.gnr_index
  | c when s.Variation.gnr_index = 12 -> Printf.sprintf "%+gq" c
  | c -> Printf.sprintf "N=%d,%+gq" s.Variation.gnr_index c

let title = function
  | Width -> "Table 2: width variation (n/p GNRFET channels), inverter @ B"
  | Impurity -> "Table 3: charge impurities (n/p GNRFET channels), inverter @ B"
  | Combined -> "Table 4: simultaneous width variation and impurities, inverter @ B"

let pct_cell ~nominal one all =
  (Variation.pct ~nominal one, Variation.pct ~nominal all)

let print_matrix ppf (t : Variation.table) name value =
  Format.fprintf ppf "%s (%%, one-of-four,all-four; rows: pGNRFET, cols: nGNRFET)@." name;
  Format.fprintf ppf "%14s" "";
  List.iter (fun c -> Format.fprintf ppf "%16s" (spec_label c)) t.Variation.cols;
  Format.fprintf ppf "@.";
  Array.iteri
    (fun i row ->
      Format.fprintf ppf "%14s" (spec_label (List.nth t.Variation.rows i));
      Array.iter
        (fun (e : Variation.entry) ->
          let one, all = value e in
          Format.fprintf ppf "%16s" (Printf.sprintf "%.0f,%.0f" one all))
        row;
      Format.fprintf ppf "@.")
    t.Variation.entries

let print ppf { which; table = t } =
  Report.heading ppf (title which);
  let nom = t.Variation.nominal in
  Format.fprintf ppf
    "nominal: delay = %.2f ps, Pstat = %.4g uW, Esw = %.4g fJ, SNM = %.3f V@."
    (nom.Metrics.tp *. 1e12)
    (nom.Metrics.p_static /. 1e-6)
    (nom.Metrics.e_switch /. 1e-15)
    nom.Metrics.snm;
  print_matrix ppf t "Delay" (fun e ->
      pct_cell ~nominal:nom.Metrics.tp e.Variation.one.Metrics.tp
        e.Variation.all.Metrics.tp);
  print_matrix ppf t "Static power" (fun e ->
      pct_cell ~nominal:nom.Metrics.p_static e.Variation.one.Metrics.p_static
        e.Variation.all.Metrics.p_static);
  print_matrix ppf t "Dynamic power" (fun e ->
      pct_cell ~nominal:nom.Metrics.e_switch e.Variation.one.Metrics.e_switch
        e.Variation.all.Metrics.e_switch);
  print_matrix ppf t "SNM" (fun e ->
      pct_cell ~nominal:nom.Metrics.snm e.Variation.one.Metrics.snm
        e.Variation.all.Metrics.snm)
