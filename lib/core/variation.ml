type op_point = { vdd : float; vt : float }

let point_b = { vdd = 0.4; vt = 0.13 }

type spec = { gnr_index : int; charge : float }

let nominal_spec = { gnr_index = 12; charge = 0. }

type entry = {
  p_spec : spec;
  n_spec : spec;
  one : Metrics.inverter_metrics;
  all : Metrics.inverter_metrics;
}

type table = {
  op : op_point;
  nominal : Metrics.inverter_metrics;
  rows : spec list;
  cols : spec list;
  entries : entry array array;
}

let params_of { gnr_index; charge } = Variants.width_impurity gnr_index charge

let table_of spec = Table_cache.get (params_of spec)

(* The p-type model is the mirror image of an n-type table (u -> -u), so a
   *physical* impurity charge Q next to a p-FET is represented by the
   n-type table computed with charge -Q — exactly the paper's observation
   that "+q has the same effect on a pGNRFET as -q on an nGNRFET". *)
let table_for_polarity polarity spec =
  match polarity with
  | Gnr_model.N_type -> table_of spec
  | Gnr_model.P_type -> table_of { spec with charge = -.spec.charge }

(* The gate metal (and hence the offset realizing the target VT) is chosen
   once, for the nominal device; variants inherit it. *)
let nominal_shift op =
  Gnr_model.shift_for_vt (table_of nominal_spec) op.vt

let fet_tables ~polarity ~spec ~all_four =
  let anomalous = table_for_polarity polarity spec in
  let nominal = table_of nominal_spec in
  if all_four then [ anomalous; anomalous; anomalous; anomalous ]
  else [ anomalous; nominal; nominal; nominal ]

let pair_for ~op ~n_spec ~p_spec ~all_four () =
  let shift = nominal_shift op in
  let n_tables = fet_tables ~polarity:Gnr_model.N_type ~spec:n_spec ~all_four in
  let p_tables = fet_tables ~polarity:Gnr_model.P_type ~spec:p_spec ~all_four in
  {
    Cells.nfet = Gnr_model.array_fet ~polarity:Gnr_model.N_type ~vt_shift:shift n_tables;
    pfet = Gnr_model.array_fet ~polarity:Gnr_model.P_type ~vt_shift:shift p_tables;
    ext = Gnr_model.default_extrinsic ();
  }

(* Inverter metrics are reused across tables (Table 4 shares corners with
   Tables 2 and 3) — memoize on the full configuration. *)
let metrics_cache : (string, Metrics.inverter_metrics) Hashtbl.t = Hashtbl.create 64

let metrics_for ~op ~n_spec ~p_spec ~all_four =
  let key =
    Printf.sprintf "%g/%g|n%d:%g|p%d:%g|%b" op.vdd op.vt n_spec.gnr_index
      n_spec.charge p_spec.gnr_index p_spec.charge all_four
  in
  match Hashtbl.find_opt metrics_cache key with
  | Some m -> m
  | None ->
    let pair = pair_for ~op ~n_spec ~p_spec ~all_four () in
    let m = Metrics.inverter_metrics ~pair ~vdd:op.vdd () in
    Hashtbl.replace metrics_cache key m;
    m

let inverter_table ?(op = point_b) ~rows ~cols () =
  let nominal =
    metrics_for ~op ~n_spec:nominal_spec ~p_spec:nominal_spec ~all_four:false
  in
  let entries =
    Array.map
      (fun p_spec ->
        Array.map
          (fun n_spec ->
            {
              p_spec;
              n_spec;
              one = metrics_for ~op ~n_spec ~p_spec ~all_four:false;
              all = metrics_for ~op ~n_spec ~p_spec ~all_four:true;
            })
          (Array.of_list cols))
      (Array.of_list rows)
  in
  { op; nominal; rows; cols; entries }

let width_spec n = { gnr_index = n; charge = 0. }

let charge_spec c = { gnr_index = 12; charge = c }

let width_table ?op () =
  let specs = List.map width_spec Variants.paper_widths in
  inverter_table ?op ~rows:specs ~cols:specs ()

let impurity_table ?op () =
  (* Paper's print order: p rows +2q..-2q, n cols -2q..+2q. *)
  let rows = List.map charge_spec [ 2.; 1.; 0.; -1.; -2. ] in
  let cols = List.map charge_spec [ -2.; -1.; 0.; 1.; 2. ] in
  inverter_table ?op ~rows ~cols ()

let combined_table ?op () =
  let specs =
    [
      { gnr_index = 9; charge = -1. };
      { gnr_index = 9; charge = 1. };
      { gnr_index = 18; charge = -1. };
      { gnr_index = 18; charge = 1. };
    ]
  in
  (* Paper's rows list the p-FET anomalies 9,+q / 9,-q / 18,+q / 18,-q. *)
  let rows =
    [
      { gnr_index = 9; charge = 1. };
      { gnr_index = 9; charge = -1. };
      { gnr_index = 18; charge = 1. };
      { gnr_index = 18; charge = -1. };
    ]
  in
  inverter_table ?op ~rows ~cols:specs ()

let pct ~nominal value =
  if nominal = 0. then 0. else (value -. nominal) /. nominal *. 100.

type latch_study = {
  label : string;
  butterfly : (float * float) list * (float * float) list;
  snm : float;
  static_power : float;
}

let latch ?(op = point_b) ~n_spec ~p_spec ~all_four () =
  let pair = pair_for ~op ~n_spec ~p_spec ~all_four () in
  (* Both inverters of the latch carry the same anomaly (paper Fig 7). *)
  let v = Cells.vtc ~pair ~vdd:op.vdd () in
  let snm = Snm.snm v v in
  let curves = Snm.butterfly v v in
  (* Static power at a stable state: solve the cross-coupled pair. *)
  let net = Netlist.create () in
  let vdd_node = Netlist.fresh_node net in
  Netlist.vdc net vdd_node op.vdd;
  let a = Netlist.fresh_node net and b = Netlist.fresh_node net in
  Cells.add_inverter net ~pair ~vdd_node ~input:a ~output:b;
  Cells.add_inverter net ~pair ~vdd_node ~input:b ~output:a;
  (* Seed Newton near a stable state (a low, b high). *)
  let x0 = Array.make (Netlist.node_count net) 0. in
  x0.(vdd_node) <- op.vdd;
  x0.(b) <- op.vdd;
  let dc = Mna.solve_dc ~x0 net in
  let static_power = Float.abs (Mna.dc_current net dc vdd_node) *. op.vdd in
  let label =
    Printf.sprintf "n(N=%d,%+gq) p(N=%d,%+gq) %s" n_spec.gnr_index
      n_spec.charge p_spec.gnr_index p_spec.charge
      (if all_four then "all GNRs" else "single GNR")
  in
  { label; butterfly = curves; snm; static_power }

let latch_worst_case ?op ~all_four () =
  latch ?op
    ~n_spec:{ gnr_index = 9; charge = 1. }
    ~p_spec:{ gnr_index = 18; charge = -1. }
    ~all_four ()

type write_result = { flipped : bool; settle : float }

(* Access resistance of the write port, an access-device stand-in. *)
let drive_ohms = 20e3

let latch_write ?(op = point_b) ~n_spec ~p_spec ~all_four ~pulse_width () =
  let pair = pair_for ~op ~n_spec ~p_spec ~all_four () in
  let net = Netlist.create () in
  let vdd_node = Netlist.fresh_node net in
  Netlist.vdc net vdd_node op.vdd;
  let a = Netlist.fresh_node net and b = Netlist.fresh_node net in
  Cells.add_inverter net ~pair ~vdd_node ~input:a ~output:b;
  Cells.add_inverter net ~pair ~vdd_node ~input:b ~output:a;
  (* Write port: pulse into node a through an access resistance. *)
  let port = Netlist.fresh_node net in
  let t_start = 0. in
  Netlist.vsource net port (fun t ->
      if t > t_start && t <= t_start +. pulse_width then op.vdd else 0.);
  Netlist.add net (Netlist.Resistor { a = port; b = a; ohms = drive_ohms });
  (* Start from the stable (a low, b high) state. *)
  let x0 = Array.make (Netlist.node_count net) 0. in
  x0.(vdd_node) <- op.vdd;
  x0.(b) <- op.vdd;
  let dc = Mna.solve_dc ~x0 net in
  let tau = Metrics.time_scale pair ~fanout:1 ~vdd:op.vdd in
  let t_stop = pulse_width +. (40. *. tau) in
  let wf = Mna.transient ~x0:dc net ~t_stop ~dt:(tau /. 10.) in
  let a_trace = Mna.node_trace wf a in
  let final = a_trace.(Array.length a_trace - 1) in
  let flipped = final > op.vdd /. 2. in
  let settle =
    (* First time after which a stays on its final side of VDD/2. *)
    let level = op.vdd /. 2. in
    let t = ref 0. in
    Array.iteri
      (fun k v ->
        let on_final_side = (v > level) = flipped in
        if not on_final_side then t := wf.Mna.times.(k))
      a_trace;
    !t
  in
  { flipped; settle }

let minimum_write_pulse ?op ~n_spec ~p_spec ~all_four () =
  let try_width w =
    (latch_write ?op ~n_spec ~p_spec ~all_four ~pulse_width:w ()).flipped
  in
  (* Find an upper bracket, then bisect. *)
  let pair_op = match op with Some o -> o | None -> point_b in
  let tau =
    Metrics.time_scale
      (pair_for ~op:pair_op ~n_spec ~p_spec ~all_four ())
      ~fanout:1 ~vdd:pair_op.vdd
  in
  let rec grow w tries =
    if tries > 12 then w
    else if try_width w then w
    else grow (2. *. w) (tries + 1)
  in
  let hi = grow tau 0 in
  let rec bisect lo hi it =
    if it = 0 then hi
    else begin
      let mid = 0.5 *. (lo +. hi) in
      if try_width mid then bisect lo mid (it - 1) else bisect mid hi (it - 1)
    end
  in
  bisect 0. hi 10
