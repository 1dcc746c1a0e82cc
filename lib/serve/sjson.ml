type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)
(* ------------------------------------------------------------------ *)

(* Index of the first byte at or after [i] that a JSON string cannot
   carry as is ('"', '\\' or a control byte), or the length of [s].
   Three tests in a row, not a [match]: a match on byte ranges compiles
   to a decision tree whose branches hex digits mispredict. *)
let rec plain_end s i =
  if i >= String.length s then i
  else
    let c = Char.code (String.unsafe_get s i) in
    if c < 0x20 || c = Char.code '"' || c = Char.code '\\' then i
    else plain_end s (i + 1)

let add_escaped buf s =
  Buffer.add_char buf '"';
  let rec go i =
    let j = plain_end s i in
    Buffer.add_substring buf s i (j - i);
    if j < String.length s then begin
      (match String.unsafe_get s j with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      go (j + 1)
    end
  in
  go 0;
  Buffer.add_char buf '"'

let add_num buf v =
  if Float.is_integer v && Float.abs v <= 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else if Float.is_nan v then Buffer.add_string buf "null"
  else if v = Float.infinity then Buffer.add_string buf "1e999"
  else if v = Float.neg_infinity then Buffer.add_string buf "-1e999"
  else begin
    (* Shortest decimal that round-trips the double. *)
    let s = Printf.sprintf "%.15g" v in
    let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
    Buffer.add_string buf s
  end

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> add_num buf v
  | Str s -> add_escaped buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected '%c', got '%c'" c got)
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  (* Append a unicode scalar value as UTF-8. *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "invalid \\u escape"
    in
    let v =
      (hex s.[!pos] lsl 12)
      lor (hex s.[!pos + 1] lsl 8)
      lor (hex s.[!pos + 2] lsl 4)
      lor hex s.[!pos + 3]
    in
    pos := !pos + 4;
    v
  in
  (* The string from [start] on, whose first byte that is not plain is
     at [stop] and is not the closing quote: each plain run goes into
     the buffer with one [Buffer.add_substring], escapes one at a time. *)
  let parse_escaped start stop =
    pos := stop;
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf s start (stop - start);
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         let c = s.[!pos] in
         advance ();
         match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let hi = hex4 () in
           if hi >= 0xD800 && hi <= 0xDBFF then begin
             (* Surrogate pair: the low half must follow as \uXXXX. *)
             if
               !pos + 2 <= n
               && s.[!pos] = '\\'
               && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate";
               add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
             end
             else fail "lone high surrogate"
           end
           else if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
           else add_utf8 buf hi
         | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | _ ->
        let stop = plain_end s !pos in
        Buffer.add_substring buf s !pos (stop - !pos);
        pos := stop;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  (* A string without escapes is one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_end s start in
    if stop < n && s.[stop] = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else parse_escaped start stop
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "malformed number"
    in
    (* RFC 8259 integer part: "0" or [1-9][0-9]*, no leading zeros. *)
    (match peek () with
    | Some '0' -> advance ()
    | Some ('1' .. '9') -> digits ()
    | _ -> fail "malformed number");
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Bad (pos, msg) -> Error (Printf.sprintf "byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 ->
    Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List xs -> Some xs | _ -> None
