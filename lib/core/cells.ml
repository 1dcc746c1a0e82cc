type pair = {
  nfet : Fet_model.t;
  pfet : Fet_model.t;
  ext : Gnr_model.extrinsic;
}

let no_parasitics = { Gnr_model.rs = 0.; rd = 0.; cgs_e = 0.; cgd_e = 0. }

(* A contact resistance below this threshold is treated as a short (no
   internal node). *)
let r_min = 1e-2

let via_resistor net external_node ohms =
  if ohms < r_min then external_node
  else begin
    let internal = Netlist.fresh_node net in
    Netlist.add net (Netlist.Resistor { a = external_node; b = internal; ohms });
    internal
  end

let add_cap net a b farads =
  if farads > 0. then Netlist.add net (Netlist.Capacitor { a; b; farads })

let add_inverter net ~pair ~vdd_node ~input ~output =
  let { nfet; pfet; ext } = pair in
  (* n-FET: source at ground, drain at output, through the contacts. *)
  let n_s = via_resistor net Netlist.gnd ext.Gnr_model.rs in
  let n_d = via_resistor net output ext.Gnr_model.rd in
  Netlist.add net (Netlist.Fet { g = input; d = n_d; s = n_s; model = nfet });
  (* p-FET: source at VDD, drain at output. *)
  let p_s = via_resistor net vdd_node ext.Gnr_model.rs in
  let p_d = via_resistor net output ext.Gnr_model.rd in
  Netlist.add net (Netlist.Fet { g = input; d = p_d; s = p_s; model = pfet });
  (* Extrinsic junction capacitances, gate to the external contacts. *)
  add_cap net input Netlist.gnd ext.Gnr_model.cgs_e;
  add_cap net input output ext.Gnr_model.cgd_e;
  add_cap net input vdd_node ext.Gnr_model.cgs_e;
  add_cap net input output ext.Gnr_model.cgd_e

let add_gate_load net ~pair ~vdd_node ~input =
  let { nfet; pfet; ext } = pair in
  (* Drain and source tied: the FET carries no current but presents its
     bias-dependent gate capacitance. *)
  Netlist.add net (Netlist.Fet { g = input; d = Netlist.gnd; s = Netlist.gnd; model = nfet });
  Netlist.add net (Netlist.Fet { g = input; d = vdd_node; s = vdd_node; model = pfet });
  add_cap net input Netlist.gnd (ext.Gnr_model.cgs_e +. ext.Gnr_model.cgd_e);
  add_cap net input vdd_node (ext.Gnr_model.cgs_e +. ext.Gnr_model.cgd_e)

let add_nand2 net ~pair ~vdd_node ~a ~b ~output =
  let { nfet; pfet; ext } = pair in
  (* Pull-down: a-gated on top of b-gated, sharing an internal node. *)
  let stack_mid = Netlist.fresh_node net in
  let n_top_d = via_resistor net output ext.Gnr_model.rd in
  Netlist.add net (Netlist.Fet { g = a; d = n_top_d; s = stack_mid; model = nfet });
  let n_bot_s = via_resistor net Netlist.gnd ext.Gnr_model.rs in
  Netlist.add net (Netlist.Fet { g = b; d = stack_mid; s = n_bot_s; model = nfet });
  (* Pull-up: two p-FETs in parallel. *)
  List.iter
    (fun g ->
      let p_s = via_resistor net vdd_node ext.Gnr_model.rs in
      let p_d = via_resistor net output ext.Gnr_model.rd in
      Netlist.add net (Netlist.Fet { g; d = p_d; s = p_s; model = pfet }))
    [ a; b ];
  List.iter
    (fun g ->
      add_cap net g Netlist.gnd ext.Gnr_model.cgs_e;
      add_cap net g output ext.Gnr_model.cgd_e;
      add_cap net g vdd_node ext.Gnr_model.cgs_e;
      add_cap net g output ext.Gnr_model.cgd_e)
    [ a; b ]

let add_nor2 net ~pair ~vdd_node ~a ~b ~output =
  let { nfet; pfet; ext } = pair in
  (* Pull-down: two n-FETs in parallel. *)
  List.iter
    (fun g ->
      let n_s = via_resistor net Netlist.gnd ext.Gnr_model.rs in
      let n_d = via_resistor net output ext.Gnr_model.rd in
      Netlist.add net (Netlist.Fet { g; d = n_d; s = n_s; model = nfet }))
    [ a; b ];
  (* Pull-up: series p-FET stack. *)
  let stack_mid = Netlist.fresh_node net in
  let p_top_s = via_resistor net vdd_node ext.Gnr_model.rs in
  Netlist.add net (Netlist.Fet { g = a; d = stack_mid; s = p_top_s; model = pfet });
  let p_bot_d = via_resistor net output ext.Gnr_model.rd in
  Netlist.add net (Netlist.Fet { g = b; d = p_bot_d; s = stack_mid; model = pfet });
  List.iter
    (fun g ->
      add_cap net g Netlist.gnd ext.Gnr_model.cgs_e;
      add_cap net g output ext.Gnr_model.cgd_e;
      add_cap net g vdd_node ext.Gnr_model.cgs_e;
      add_cap net g output ext.Gnr_model.cgd_e)
    [ a; b ]

type inverter_bench = {
  net : Netlist.t;
  vdd_node : Netlist.node;
  input : Netlist.node;
  output : Netlist.node;
  source : Netlist.node;
}

let inverter_fo4 ~pair ?(fanout = 4) ~vdd ~wave () =
  let net = Netlist.create () in
  let vdd_node = Netlist.fresh_node net in
  Netlist.vdc net vdd_node vdd;
  let source = Netlist.fresh_node net in
  Netlist.vsource net source wave;
  let input = Netlist.fresh_node net in
  let output = Netlist.fresh_node net in
  (* Driver stage shapes the DUT input edge realistically. *)
  add_inverter net ~pair ~vdd_node ~input:source ~output:input;
  add_inverter net ~pair ~vdd_node ~input ~output;
  for _ = 1 to fanout do
    add_gate_load net ~pair ~vdd_node ~input:output
  done;
  { net; vdd_node; input; output; source }

type ring = {
  net : Netlist.t;
  vdd_node : Netlist.node;
  taps : Netlist.node array;
}

let ring_oscillator ~stages ?(dummy_loads = 3) ~vdd () =
  let n = Array.length stages in
  if n < 3 || n mod 2 = 0 then
    invalid_arg "Cells.ring_oscillator: need an odd stage count >= 3";
  let net = Netlist.create () in
  let vdd_node = Netlist.fresh_node net in
  Netlist.vdc net vdd_node vdd;
  let taps = Array.init n (fun _ -> Netlist.fresh_node net) in
  Array.iteri
    (fun i pair ->
      let input = taps.((i + n - 1) mod n) in
      add_inverter net ~pair ~vdd_node ~input ~output:taps.(i);
      for _ = 1 to dummy_loads do
        add_gate_load net ~pair ~vdd_node ~input:taps.(i)
      done)
    stages;
  { net; vdd_node; taps }

let vtc ~pair ~vdd ?(n = 101) () =
  let net = Netlist.create () in
  let vdd_node = Netlist.fresh_node net in
  Netlist.vdc net vdd_node vdd;
  let input = Netlist.fresh_node net in
  (* Encode the swept input voltage as the source "time". *)
  Netlist.vsource net input (fun t -> t);
  let output = Netlist.fresh_node net in
  add_inverter net ~pair ~vdd_node ~input ~output;
  let vin = Vec.linspace 0. vdd n in
  let prev = ref None in
  let vout =
    Array.map
      (fun v ->
        let state = Mna.solve_dc ?x0:!prev ~time:v net in
        prev := Some state;
        state.(output))
      vin
  in
  { Snm.vin; vout }
