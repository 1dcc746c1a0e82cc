let ( let* ) = Result.bind

type op =
  | Ping
  | Stats
  | Table of { params : Params.t; grid : Iv_table.grid_spec option }
  | Iv of {
      params : Params.t;
      grid : Iv_table.grid_spec option;
      vg : float;
      vd : float;
    }
  | Shutdown

type request = { id : int option; op : op }

type error = { kind : string; detail : string; retry_after_ms : int option }

type response = { r_id : int option; result : (Sjson.t, error) result }

(* ------------------------------------------------------------------ *)
(* Params payload                                                      *)

let check_keys ~what ~allowed fields =
  List.fold_left
    (fun acc (k, _) ->
      let* () = acc in
      if List.mem k allowed then Ok ()
      else Error (Printf.sprintf "%s: unknown field %S" what k))
    (Ok ()) fields

let field fields k = List.assoc_opt k fields

let float_field fields k default =
  match field fields k with
  | None -> Ok default
  | Some j ->
    (match Sjson.to_float j with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "params.%s: expected a number" k))

let int_field fields k default =
  match field fields k with
  | None -> Ok default
  | Some j ->
    (match Sjson.to_int j with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "params.%s: expected an integer" k))

let params_keys =
  [
    "gnr_index"; "channel_length"; "oxide_thickness"; "oxide_eps_r";
    "temperature"; "n_modes"; "gate_offset"; "contact_gamma"; "width_fringe";
    "energy_step"; "energy_margin"; "impurity_charge"; "contact_style";
  ]

let params_of_json j =
  match j with
  | Sjson.Obj fields ->
    let* () = check_keys ~what:"params" ~allowed:params_keys fields in
    let d = Params.default () in
    let* gnr_index = int_field fields "gnr_index" d.Params.gnr_index in
    let* channel_length =
      float_field fields "channel_length" d.Params.channel_length
    in
    let* oxide_thickness =
      float_field fields "oxide_thickness" d.Params.oxide_thickness
    in
    let* oxide_eps_r = float_field fields "oxide_eps_r" d.Params.oxide_eps_r in
    let* temperature = float_field fields "temperature" d.Params.temperature in
    let* n_modes = int_field fields "n_modes" d.Params.n_modes in
    let* gate_offset = float_field fields "gate_offset" d.Params.gate_offset in
    let* contact_gamma =
      float_field fields "contact_gamma" d.Params.contact_gamma
    in
    let* width_fringe =
      float_field fields "width_fringe" d.Params.width_fringe
    in
    let* energy_step = float_field fields "energy_step" d.Params.energy_step in
    let* energy_margin =
      float_field fields "energy_margin" d.Params.energy_margin
    in
    let* contact_style =
      match field fields "contact_style" with
      | None -> Ok d.Params.contact_style
      | Some j ->
        (match Sjson.to_str j with
        | Some "point" -> Ok Stack2d.Point
        | Some "plane" -> Ok Stack2d.Plane
        | Some other ->
          Error
            (Printf.sprintf
               "params.contact_style: expected \"point\" or \"plane\", got %S"
               other)
        | None -> Error "params.contact_style: expected a string")
    in
    let p =
      {
        d with
        Params.gnr_index;
        channel_length;
        oxide_thickness;
        oxide_eps_r;
        temperature;
        n_modes;
        gate_offset;
        contact_gamma;
        width_fringe;
        energy_step;
        energy_margin;
        contact_style;
      }
    in
    let* p =
      match field fields "impurity_charge" with
      | None -> Ok p
      | Some j ->
        (match Sjson.to_float j with
        | Some q -> Ok (Params.with_impurity_charge p q)
        | None -> Error "params.impurity_charge: expected a number")
    in
    Ok p
  | Sjson.Null -> Ok (Params.default ())
  | _ -> Error "params: expected an object"

let params_to_json (p : Params.t) =
  let base =
    [
      ("gnr_index", Sjson.Num (float_of_int p.Params.gnr_index));
      ("channel_length", Sjson.Num p.Params.channel_length);
      ("oxide_thickness", Sjson.Num p.Params.oxide_thickness);
      ("oxide_eps_r", Sjson.Num p.Params.oxide_eps_r);
      ("temperature", Sjson.Num p.Params.temperature);
      ("n_modes", Sjson.Num (float_of_int p.Params.n_modes));
      ("gate_offset", Sjson.Num p.Params.gate_offset);
      ("contact_gamma", Sjson.Num p.Params.contact_gamma);
      ("width_fringe", Sjson.Num p.Params.width_fringe);
      ("energy_step", Sjson.Num p.Params.energy_step);
      ("energy_margin", Sjson.Num p.Params.energy_margin);
      ( "contact_style",
        Sjson.Str
          (match p.Params.contact_style with
          | Stack2d.Point -> "point"
          | Stack2d.Plane -> "plane") );
    ]
  in
  let imp =
    match p.Params.impurities with
    | [ i ] when i = Impurity.paper_default ~charge:i.Impurity.charge ->
      [ ("impurity_charge", Sjson.Num i.Impurity.charge) ]
    | _ -> []
  in
  Sjson.Obj (base @ imp)

(* ------------------------------------------------------------------ *)
(* Grid payload                                                        *)

let grid_keys = [ "vg_min"; "vg_max"; "n_vg"; "vd_max"; "n_vd" ]

let grid_of_json j =
  match j with
  | Sjson.Obj fields ->
    let* () = check_keys ~what:"grid" ~allowed:grid_keys fields in
    let dg = Iv_table.default_grid in
    let* vg_min = float_field fields "vg_min" dg.Iv_table.vg_min in
    let* vg_max = float_field fields "vg_max" dg.Iv_table.vg_max in
    let* n_vg = int_field fields "n_vg" dg.Iv_table.n_vg in
    let* vd_max = float_field fields "vd_max" dg.Iv_table.vd_max in
    let* n_vd = int_field fields "n_vd" dg.Iv_table.n_vd in
    if n_vg < 2 || n_vd < 2 then
      Error "grid: n_vg and n_vd must both be >= 2"
    else if not (vg_max > vg_min) then Error "grid: vg_max must exceed vg_min"
    else if not (vd_max > 0.) then Error "grid: vd_max must be positive"
    else Ok { Iv_table.vg_min; vg_max; n_vg; vd_max; n_vd }
  | _ -> Error "grid: expected an object"

let grid_to_json (g : Iv_table.grid_spec) =
  Sjson.Obj
    [
      ("vg_min", Sjson.Num g.Iv_table.vg_min);
      ("vg_max", Sjson.Num g.Iv_table.vg_max);
      ("n_vg", Sjson.Num (float_of_int g.Iv_table.n_vg));
      ("vd_max", Sjson.Num g.Iv_table.vd_max);
      ("n_vd", Sjson.Num (float_of_int g.Iv_table.n_vd));
    ]

(* A table crosses the wire as the lowercase hex of the exact bytes
   Tbl_format writes to disk (docs/SERVE.md): one codec for both, floats
   bit for bit, every section under its CRC. *)
let hex_digits = "0123456789abcdef"

let table_to_json (t : Iv_table.t) =
  let bin = Tbl_format.encode ~cache_key:t.Iv_table.key t in
  let hex = Bytes.create (2 * String.length bin) in
  for i = 0 to String.length bin - 1 do
    let b = Char.code (String.unsafe_get bin i) in
    Bytes.unsafe_set hex (2 * i) (String.unsafe_get hex_digits (b lsr 4));
    Bytes.unsafe_set hex ((2 * i) + 1) (String.unsafe_get hex_digits (b land 15))
  done;
  Sjson.Obj
    [
      ("key", Sjson.Str t.Iv_table.key);
      ("gnrtbl", Sjson.Str (Bytes.unsafe_to_string hex));
    ]

(* The value of each byte as a lowercase hex digit, -1 for any other. *)
let nibble =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | _ -> -1)

let bytes_of_hex hex =
  let n = String.length hex / 2 in
  let bin = Bytes.create n in
  let rec fill i =
    if i = n then Ok (Bytes.unsafe_to_string bin)
    else
      let hi = Array.unsafe_get nibble (Char.code (String.unsafe_get hex (2 * i)))
      and lo =
        Array.unsafe_get nibble (Char.code (String.unsafe_get hex ((2 * i) + 1)))
      in
      if hi < 0 || lo < 0 then
        Error
          (Printf.sprintf "table.gnrtbl: byte %d is not a lowercase hex digit"
             (if hi < 0 then 2 * i else (2 * i) + 1))
      else begin
        Bytes.unsafe_set bin i (Char.unsafe_chr ((hi lsl 4) lor lo));
        fill (i + 1)
      end
  in
  if String.length hex mod 2 <> 0 then
    Error "table.gnrtbl: odd-length hex payload"
  else fill 0

let table_of_json j =
  let str k = Option.bind (Sjson.member k j) Sjson.to_str in
  match (str "key", str "gnrtbl") with
  | None, _ -> Error "table: missing string \"key\""
  | _, None -> Error "table: missing string \"gnrtbl\""
  | Some key, Some hex -> (
    let* bin = bytes_of_hex hex in
    match Tbl_format.decode ~path:"table.gnrtbl" bin with
    | { Tbl_format.v_table = t; _ } when String.equal t.Iv_table.key key -> Ok t
    | _ -> Error "table: \"key\" does not match the gnrtbl payload"
    | exception Robust_error.Error (Robust_error.Cache_corrupt { reason; _ }) ->
      Error
        (Printf.sprintf "table.gnrtbl: %s (%s)"
           (Robust_error.corrupt_label reason)
           (Robust_error.corrupt_reason_to_string reason)))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let request_keys = [ "id"; "op"; "params"; "grid"; "vg"; "vd" ]

let opt_sub fields k of_json =
  match field fields k with
  | None | Some Sjson.Null -> Ok None
  | Some j ->
    let* v = of_json j in
    Ok (Some v)

let parse_request line =
  let* j = Sjson.parse line in
  match j with
  | Sjson.Obj fields ->
    let* () = check_keys ~what:"request" ~allowed:request_keys fields in
    let* id =
      match field fields "id" with
      | None | Some Sjson.Null -> Ok None
      | Some j ->
        (match Sjson.to_int j with
        | Some i -> Ok (Some i)
        | None -> Error "id: expected an integer")
    in
    let* op_name =
      match field fields "op" with
      | Some j ->
        (match Sjson.to_str j with
        | Some s -> Ok s
        | None -> Error "op: expected a string")
      | None -> Error "request: missing \"op\""
    in
    let table_payload () =
      let* params =
        match field fields "params" with
        | None -> Ok (Params.default ())
        | Some j -> params_of_json j
      in
      let* grid = opt_sub fields "grid" grid_of_json in
      Ok (params, grid)
    in
    let* op =
      match op_name with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | "table" ->
        let* params, grid = table_payload () in
        Ok (Table { params; grid })
      | "iv" ->
        let* params, grid = table_payload () in
        let req_float k =
          match field fields k with
          | Some j ->
            (match Sjson.to_float j with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "%s: expected a number" k))
          | None -> Error (Printf.sprintf "op \"iv\": missing %S" k)
        in
        let* vg = req_float "vg" in
        let* vd = req_float "vd" in
        if vd < 0. then
          Error "vd: must be >= 0 (the circuit layer owns VDS reflection)"
        else Ok (Iv { params; grid; vg; vd })
      | other -> Error (Printf.sprintf "op: unknown operation %S" other)
    in
    Ok { id; op }
  | _ -> Error "request: expected a JSON object"

let request_to_line { id; op } =
  let id_field =
    match id with Some i -> [ ("id", Sjson.Num (float_of_int i)) ] | None -> []
  in
  let body =
    match op with
    | Ping -> [ ("op", Sjson.Str "ping") ]
    | Stats -> [ ("op", Sjson.Str "stats") ]
    | Shutdown -> [ ("op", Sjson.Str "shutdown") ]
    | Table { params; grid } ->
      ("op", Sjson.Str "table")
      :: ("params", params_to_json params)
      :: (match grid with
         | Some g -> [ ("grid", grid_to_json g) ]
         | None -> [])
    | Iv { params; grid; vg; vd } ->
      ("op", Sjson.Str "iv")
      :: ("params", params_to_json params)
      :: ("vg", Sjson.Num vg)
      :: ("vd", Sjson.Num vd)
      :: (match grid with
         | Some g -> [ ("grid", grid_to_json g) ]
         | None -> [])
  in
  Sjson.to_string (Sjson.Obj (id_field @ body))

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let id_json = function
  | Some i -> Sjson.Num (float_of_int i)
  | None -> Sjson.Null

let ok_line ~id result =
  Sjson.to_string
    (Sjson.Obj
       [ ("id", id_json id); ("ok", Sjson.Bool true); ("result", result) ])

let error_line ~id { kind; detail; retry_after_ms } =
  let err =
    [ ("kind", Sjson.Str kind); ("detail", Sjson.Str detail) ]
    @
    match retry_after_ms with
    | Some ms -> [ ("retry_after_ms", Sjson.Num (float_of_int ms)) ]
    | None -> []
  in
  Sjson.to_string
    (Sjson.Obj
       [
         ("id", id_json id);
         ("ok", Sjson.Bool false);
         ("error", Sjson.Obj err);
       ])

let parse_response line =
  let* j = Sjson.parse line in
  match j with
  | Sjson.Obj fields ->
    let r_id = Option.bind (field fields "id") Sjson.to_int in
    let* ok =
      match Option.bind (field fields "ok") Sjson.to_bool with
      | Some b -> Ok b
      | None -> Error "response: missing boolean \"ok\""
    in
    if ok then
      match field fields "result" with
      | Some r -> Ok { r_id; result = Ok r }
      | None -> Error "response: ok without \"result\""
    else (
      match field fields "error" with
      | Some (Sjson.Obj e) ->
        let str k = Option.bind (field e k) Sjson.to_str in
        let* kind =
          match str "kind" with
          | Some k -> Ok k
          | None -> Error "response: error without \"kind\""
        in
        let detail = Option.value (str "detail") ~default:"" in
        let retry_after_ms =
          Option.bind (field e "retry_after_ms") Sjson.to_int
        in
        Ok { r_id; result = Error { kind; detail; retry_after_ms } }
      | _ -> Error "response: not ok but no \"error\" object")
  | _ -> Error "response: expected a JSON object"

let error_of_robust (e : Robust_error.t) =
  let kind =
    match e with
    | Robust_error.Scf_stalled _ -> "scf_stalled"
    | Robust_error.Scf_max_iter _ -> "scf_max_iter"
    | Robust_error.Iterative_no_convergence _ -> "iterative_no_convergence"
    | Robust_error.Newton_failure _ -> "newton_failure"
    | Robust_error.Cache_corrupt _ -> "cache_corrupt"
    | Robust_error.Injected_fault _ -> "injected_fault"
    | Robust_error.Unrecovered _ -> "unrecovered"
    | Robust_error.Client_timeout _ -> "client_timeout"
    | Robust_error.Client_disconnected _ -> "client_disconnected"
    | Robust_error.Checkpoint_torn _ -> "checkpoint_torn"
  in
  { kind; detail = Robust_error.to_string e; retry_after_ms = None }
