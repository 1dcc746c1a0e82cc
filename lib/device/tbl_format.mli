(** [gnrtbl] — the versioned, checksummed binary columnar on-disk
    layout for {!Iv_table.t} (format spec: docs/FORMAT.md).

    A [gnrtbl] file carries a fixed little-endian header (magic
    [GNRTBL], format version, key strings, column counts and offsets),
    raw float64 column planes at 8-byte-aligned offsets, and a CRC-32C
    per section, so corruption is detected and attributed to its
    section instead of surfacing as a parse failure.

    {b Reading}: {!decode} is the one validator.  It checks a file's
    bytes in the order below and builds the {!Iv_table.t} directly;
    {!read} reads the whole file into a string and calls it.  Floats
    are reproduced bit-for-bit, including NaN payloads, signed zeros
    and subnormals.

    {b Validation} is total and typed: every malformed input raises
    [Robust_error.Error (Cache_corrupt {path; reason})] with a
    checksum-precise {!Robust_error.corrupt_reason} — never [Failure],
    never a crash, never a silently wrong table.  The validation order
    (checked first wins) is part of the format contract and is what the
    corruption-matrix fuzz harness asserts against:

    + file shorter than the fixed header → [Truncated]
    + wrong magic → [Bad_magic]
    + wrong version → [Bad_version]
    + file shorter than header + its CRC field → [Truncated]
    + header CRC (covers the fixed fields and both padded key strings)
      → [Crc_mismatch {section = "header"}]
    + file length ≠ the header's [total_len] → [Truncated]
    + per-column CRC → [Crc_mismatch {section = "vg"|"vd"|"current"|"charge"}]
    + failed-points CRC → [Crc_mismatch {section = "failed_points"}]

    Every byte of a well-formed file is covered by exactly one CRC
    (string padding and CRC-field high words are zero {e by
    definition} and checked), so any single-bit flip is detected and
    attributed to its section. *)

type view = {
  v_cache_key : string;
      (** the full {!Table_cache.key} the table was stored under;
          compared on load so stale files degrade to a miss *)
  v_table : Iv_table.t;  (** the decoded table *)
}
(** A validated file. *)

val version : int
(** Format version this module writes (1). *)

val magic : string
(** The 6-byte magic, ["GNRTBL"]. *)

module Layout : sig
  (** Byte layout of a version-1 file, derived from the header
      quantities.  Exposed so tests (golden fixtures, the fuzz
      harness's mutation oracle) and docs compute section boundaries
      from one audited source.  All offsets are 8-byte aligned; every
      section is its data bytes immediately followed by an 8-byte CRC
      field (little-endian u32 CRC-32C, then a u32 that must be 0). *)

  type t = {
    ckl : int;  (** cache-key length (unpadded) *)
    tkl : int;  (** table-key length (unpadded) *)
    n_vg : int;
    n_vd : int;
    n_failed : int;
    hdr_end : int;
        (** header data is bytes [0, hdr_end); its CRC field sits at
            [hdr_end] *)
    col_off : int array;
        (** data offsets of the vg / vd / current / charge planes *)
    col_len : int array;  (** data byte lengths of the four planes *)
    failed_off : int;  (** data offset of the failed-points pairs *)
    failed_len : int;  (** [8 * n_failed] *)
    total : int;  (** total file size, also stored in the header *)
  }

  val make :
    cache_key:string -> table_key:string -> n_vg:int -> n_vd:int ->
    n_failed:int -> t

  val fixed_header_size : int
  (** Bytes before the (padded) key strings: 80. *)

  val min_file_size : int
  (** Smallest well-formed file (empty keys, before the size check
      against the header's own totals): 88. *)
end

val encode : cache_key:string -> Iv_table.t -> string
(** Serialize to the exact byte string {!write} puts on disk
    (deterministic; the golden-fixture tests assert byte equality).
    @raise Invalid_argument if the table is ragged ([current]/[charge]
    rows not all of length [Array.length vd]). *)

val write : path:string -> cache_key:string -> Iv_table.t -> unit
(** [encode] to a file (plain create-and-write; {!Table_cache} owns
    tmp-file + rename atomicity).  @raise Sys_error on I/O failure. *)

val read : path:string -> view
(** Read the whole file and {!decode} it.
    @raise Robust_error.Error with [Cache_corrupt {path; reason}] on
    any malformed content (see the validation order above).
    @raise Sys_error when the file cannot be opened or read (absent,
    permissions) — absence is not corruption. *)

val decode : ?path:string -> string -> view
(** Validate and decode a file's bytes.  Raises the typed errors of
    {!read}, with [path] (default ["<bytes>"]) reported in the
    [Cache_corrupt]. *)

val to_table : view -> Iv_table.t
(** The decoded table, [v.v_table]. *)
