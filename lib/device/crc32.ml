(* Slicing-by-4 CRC-32C over four 256-entry tables of the reflected
   polynomial 0x82F63B78.  [table] is the byte-at-a-time table;
   [table_k.(b)] is the CRC of byte [b] followed by [k] zero bytes, so
   one step folds four input bytes with four lookups. *)

let table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let shift t = Array.map (fun c -> table.(c land 0xFF) lxor (c lsr 8)) t

let table1 = shift table

let table2 = shift table1

let table3 = shift table2

let string s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg
      (Printf.sprintf "Crc32.string: range [%d, %d+%d) outside 0..%d" pos pos
         len (String.length s));
  let crc = ref 0xFFFFFFFF in
  let stop = pos + len in
  let i = ref pos in
  while !i + 4 <= stop do
    let c = !crc lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    (* Every index is a byte: [c] is below 2^32. *)
    crc :=
      Array.unsafe_get table3 (c land 0xFF)
      lxor Array.unsafe_get table2 ((c lsr 8) land 0xFF)
      lxor Array.unsafe_get table1 ((c lsr 16) land 0xFF)
      lxor Array.unsafe_get table (c lsr 24);
    i := !i + 4
  done;
  for j = !i to stop - 1 do
    crc := table.((!crc lxor Char.code s.[j]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
