(** Wire protocol of the table-serving daemon (gnrfet-serve-v2).

    Newline-delimited JSON: each request is one JSON object on one
    line, answered by exactly one JSON object on one line, in request
    order per connection.  The full schema (field inventory, error
    kinds, examples) lives in docs/SERVE.md; this module is the single
    encoder/decoder both the server and the client use.

    Requests: [{"id": n, "op": "ping" | "stats" | "table" | "iv" |
    "shutdown", ...}] with [params]/[grid]/[vg]/[vd] payload fields for
    the table ops.  Responses: [{"id": n, "ok": true, "result": ...}]
    or [{"id": n, "ok": false, "error": {"kind": ..., "detail": ...,
    "retry_after_ms": ...?}}].  A whole table travels as the hex of
    its {!Tbl_format} bytes, so the disk and the wire share one table
    codec. *)

type op =
  | Ping
  | Stats  (** obs counter snapshot of the server registry *)
  | Table of { params : Params.t; grid : Iv_table.grid_spec option }
      (** the full ID/Q table (generating it on miss) *)
  | Iv of {
      params : Params.t;
      grid : Iv_table.grid_spec option;
      vg : float;
      vd : float;
    }  (** one bilinearly interpolated (ID, Q) point off the table *)
  | Shutdown

type request = { id : int option; op : op }

val parse_request : string -> (request, string) result
(** Decode one request line.  Strict: unknown [op], unknown [params]
    field, or a malformed grid is an [Error] (the server answers those
    with a [bad_request] response carrying whatever [id] could be
    recovered). *)

val request_to_line : request -> string
(** Encode (client side); single line, no trailing newline. *)

(** {2 Params/grid payloads} *)

val params_of_json : Sjson.t -> (Params.t, string) result
(** Build from {!Params.default} with per-field overrides: [gnr_index],
    [channel_length], [oxide_thickness], [oxide_eps_r], [temperature],
    [n_modes], [gate_offset], [contact_gamma], [width_fringe],
    [energy_step], [energy_margin], [contact_style] ("point"/"plane"),
    [impurity_charge] (the paper's standard oxide impurity, in units of
    |q|).  Unknown fields are rejected, not ignored. *)

val params_to_json : Params.t -> Sjson.t
(** Inverse for the fields above (impurities render as
    [impurity_charge] only when the list is exactly the paper default
    shape; richer impurity lists are not representable on the wire). *)

val grid_of_json : Sjson.t -> (Iv_table.grid_spec, string) result

val grid_to_json : Iv_table.grid_spec -> Sjson.t

val table_to_json : Iv_table.t -> Sjson.t
(** [{"key": <table key>, "gnrtbl": <hex>}], where [<hex>] is the
    lowercase hex of [Tbl_format.encode ~cache_key:key t]: the bytes a
    cached table has on disk (docs/FORMAT.md), so every float, NaN
    payloads, signed zeros and subnormals included, and the failed
    points cross the wire bit for bit. *)

val table_of_json : Sjson.t -> (Iv_table.t, string) result
(** Inverse of {!table_to_json}, for clients reconstructing a full
    table from a [table] response (the campaign engine's serve
    executor): hex-decodes [gnrtbl] and validates it with
    {!Tbl_format.decode}.  A missing field, an odd-length or non-hex
    payload, a payload that fails validation, or a [key] that is not
    the payload's table key is an [Error], so a corrupted response
    surfaces as a typed client failure.  A validation failure names its
    {!Robust_error.corrupt_label} and, for a CRC mismatch, the section
    (["table.gnrtbl: crc_mismatch (CRC-32C mismatch in section
    \"current\")"]). *)

(** {2 Responses} *)

type error = {
  kind : string;
      (** ["busy"] (backpressure reject; check [retry_after_ms]),
          ["bad_request"], ["shutting_down"], a {!Robust_error.t}
          constructor in snake case (["singular"],
          ["iterative_no_convergence"], ["unrecovered"], ...), or
          ["internal"] *)
  detail : string;
  retry_after_ms : int option;
}

type response = {
  r_id : int option;
  result : (Sjson.t, error) result;
}

val ok_line : id:int option -> Sjson.t -> string
(** Encode a success response; single line, no trailing newline. *)

val error_line : id:int option -> error -> string

val parse_response : string -> (response, string) result
(** Decode one response line (client side). *)

val error_of_robust : Robust_error.t -> error
(** Serialize a typed solver failure (PR 4 taxonomy) into a wire error:
    the constructor name in snake case plus its rendered detail. *)
