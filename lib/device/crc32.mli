(** CRC-32C (Castagnoli, polynomial 0x1EDC6F41) for the [gnrtbl]
    on-disk table format and the campaign journal.

    Slicing-by-4 in plain OCaml: four 256-entry tables fold four bytes
    per step, and a byte-at-a-time loop does the tail: 545–665 MB/s on
    a 2-vCPU x86-64 VM, against 235–245 MB/s for the byte loop alone,
    so a default-grid table of about 15 KB costs 26–28 µs
    (docs/FORMAT.md).

    The checksum of the empty range is [0]; results are one-shot
    (pre/post conditioning included) and always in [0, 2{^32}).
    Reference value: CRC-32C of ["123456789"] is [0xE3069283]. *)

val string : string -> pos:int -> len:int -> int
(** CRC-32C of [s.[pos .. pos+len-1]].
    @raise Invalid_argument when the range is outside the string. *)
