(** Minimal JSON for the serve protocol.

    The container image carries no JSON dependency (obs hand-rolls its
    emitter), so the newline-delimited serve protocol
    (docs/SERVE.md) gets a small self-contained value type, parser and
    printer here.  The parser accepts strict JSON (RFC 8259: UTF-8
    input, [\uXXXX] escapes decoded to UTF-8, no trailing garbage); the
    printer emits one line with no internal newlines, floats rendered
    with round-trip precision ([%.17g]-style shortest form). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val parse : string -> (t, string) result
(** [Error msg] carries a byte offset and description; never raises. *)

val to_string : t -> string
(** Compact single-line rendering.  [Num] values that are integral (and
    within int range) print without a decimal point, so request ids
    round-trip textually. *)

(** {2 Accessors} — all total, [None]/default on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] on missing field or non-object). *)

val to_float : t -> float option

val to_int : t -> int option
(** [Num] within [int] range and integral. *)

val to_str : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option
