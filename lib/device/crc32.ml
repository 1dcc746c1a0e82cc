(* Byte-at-a-time CRC-32C over one 256-entry table of the reflected
   polynomial 0x82F63B78. *)

let table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let string s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg
      (Printf.sprintf "Crc32.string: range [%d, %d+%d) outside 0..%d" pos pos
         len (String.length s));
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
