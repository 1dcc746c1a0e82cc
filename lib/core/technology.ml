type row = {
  label : string;
  vdd : float;
  vt : float;
  frequency : float;
  edp : float;
  snm : float;
}

let row_of_point label surface (op : Explore.operating_point) =
  (* Pull the full metrics of the chosen grid point. *)
  let found = ref None in
  Array.iter
    (Array.iter (fun (p : Explore.point) ->
         if p.Explore.vdd = op.Explore.vdd && p.Explore.vt = op.Explore.vt then
           found := Some p))
    surface.Explore.points;
  match !found with
  | Some p ->
    {
      label;
      vdd = p.Explore.vdd;
      vt = p.Explore.vt;
      frequency = p.Explore.frequency;
      edp = p.Explore.edp;
      snm = p.Explore.snm;
    }
  | None -> invalid_arg "Technology.row_of_point: point not on surface"

let gnrfet_operating_points s =
  let a = Explore.min_edp_at_frequency s ~ghz:3. in
  let b = Explore.min_edp_at_frequency_and_snm s ~ghz:3. ~snm:0.1 in
  let rows = ref [] in
  (match a with
  | Some p -> rows := [ row_of_point "GNRFET A" s p ]
  | None -> ());
  (match b with
  | Some p ->
    rows := !rows @ [ row_of_point "GNRFET B" s p ];
    (match Explore.same_edp_higher_vt s ~like:p with
    | Some c -> rows := !rows @ [ row_of_point "GNRFET C" s c ]
    | None -> ())
  | None -> ());
  !rows

let cmos_pair node =
  {
    Cells.nfet = Node.nfet node;
    pfet = Node.pfet node;
    ext = Cells.no_parasitics;
  }

let cmos_rows () =
  let stages = 15 in
  List.concat_map
    (fun node ->
      List.map
        (fun vdd ->
          let pair = cmos_pair node in
          let m = Metrics.inverter_metrics ~pair ~vdd () in
          {
            label = Printf.sprintf "CMOS %s" node.Node.label;
            vdd;
            vt = node.Node.nmos.Compact.vt;
            frequency = Metrics.ro_frequency m ~stages;
            edp = Metrics.edp m ~stages;
            snm = m.Metrics.snm;
          })
        [ 0.8; 0.6; 0.4 ])
    Node.all
