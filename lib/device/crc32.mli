(** CRC-32C (Castagnoli, polynomial 0x1EDC6F41) for the [gnrtbl]
    on-disk table format and the campaign journal.

    A byte-at-a-time loop over one 256-entry table, in plain OCaml: a
    few hundred MB/s, which is more than a table read needs (a
    default-grid table is about 15 KB; docs/FORMAT.md).

    The checksum of the empty range is [0]; results are one-shot
    (pre/post conditioning included) and always in [0, 2{^32}).
    Reference value: CRC-32C of ["123456789"] is [0xE3069283]. *)

val string : string -> pos:int -> len:int -> int
(** CRC-32C of [s.[pos .. pos+len-1]].
    @raise Invalid_argument when the range is outside the string. *)
