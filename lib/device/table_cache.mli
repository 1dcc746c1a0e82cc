(** On-disk cache of generated device tables.

    Table generation costs tens of seconds per device variant; the
    variation studies need ~20 variants and the serving tier re-reads
    tables orders of magnitude more often than it generates them.
    Tables are stored under the directory named by [GNRFET_TABLE_DIR]
    (default [_tables/] in the current working tree), content-addressed
    by the device cache key, in the [gnrtbl] binary columnar format
    ({!Tbl_format}, docs/FORMAT.md): a disk hit reads the file and
    validates every section's CRC-32C as it decodes it.  Files in any
    other layout, such as the pre-gnrtbl Marshal [<digest>.table], are
    ignored.  The fixed-name [table_cache.*] counters register when
    the module initialises, so a snapshot lists them before the first
    lookup. *)

val cache_dir : unit -> string

val key : ?grid:Iv_table.grid_spec -> Params.t -> string
(** The full content key a [(p, grid)] request is cached under
    (key-format version + device cache key + {!Iv_table.grid_key};
    [grid] defaults to {!Iv_table.default_grid}).  The serve layer's
    single-flight map keys on this, so its identity is exactly the
    cache's. *)

val gnrtbl_path : string -> string
(** On-disk path of the [gnrtbl] file for a full {!key} (exists or
    not); the perfbench and test harnesses use it to write, read and
    corrupt files directly. *)

type disk_outcome =
  | Table of Iv_table.t  (** [gnrtbl] hit: read and validated *)
  | Absent  (** no file (or unreadable): a plain miss *)
  | Stale  (** file present but stored under a different key *)
  | Corrupt of Robust_error.corrupt_reason
      (** validation failed; the file has been quarantined and the
          reason counted — see {!lookup} *)

val probe_disk : ?grid:Iv_table.grid_spec -> Params.t -> disk_outcome
(** The disk half of {!lookup}, with the outcome made explicit:
    corruption surfaces as the typed checksum-precise reason the
    [gnrtbl] validator raised instead of being collapsed into [None].
    Performs the same quarantine + counting side effects as {!lookup};
    never raises on malformed input (the corruption-matrix fuzz
    harness drives ≥200 mutations through here and {!lookup}).  Does
    not touch the in-memory cache or the hit/miss counters. *)

val lookup : ?grid:Iv_table.grid_spec -> Params.t -> Iv_table.t option
(** Load from memory or disk; [None] when absent, stale or corrupt.
    Every call bumps exactly one of [table_cache.memory_hits],
    [table_cache.disk_hits] or [table_cache.misses]; every disk hit
    also bumps
    [table_cache.mmap_hits], a copy of [table_cache.disk_hits] kept for
    perfbench and daemon [stats] readers.  See docs/OBS.md.

    {b Corruption hardening} (docs/ROBUST.md): a [gnrtbl] file that
    fails validation is quarantined — renamed to [<name>.corrupt],
    counted in [table_cache.corrupt_quarantined] {e and} in the
    per-reason counter [table_cache.corrupt.<label>]
    ([bad_magic]/[bad_version]/[crc_mismatch]/[truncated]/[undecodable],
    {!Robust_error.corrupt_label}) — and the lookup degrades to a miss.
    A failed quarantine rename (read-only cache directory) counts
    [table_cache.quarantine_failed] and still degrades to a miss,
    never raises.  A file whose stored key does not match reads as a
    plain miss without quarantine. *)

val get : ?grid:Iv_table.grid_spec -> Params.t -> Iv_table.t
(** Load or generate (and persist). Thread through all experiment code.
    A generation bumps [table_cache.generates] on top of the {!lookup}
    miss.  Persisting writes [gnrtbl] atomically (tmp file + rename)
    and is best-effort: a failed write never fails the caller but
    counts in [table_cache.store_failures]. *)

val get_many : ?grid:Iv_table.grid_spec -> Params.t list -> Iv_table.t list
(** Like {!get} for a batch.  The missing tables are generated by one
    {!Parallel.map} over the devices, and each device's energy runs
    nest in that same pool, so the pool is saturated without
    oversubscribing the cores and every table is bit-identical to
    generating its device alone, at any width (see docs/PERF.md).  A
    single missing table is generated on the calling domain with the
    energy runs using the whole pool.  Counter accounting per
    request: a missing device costs one miss + one generate (plus one
    memory hit when the result list is assembled); a batch whose tables
    all exist costs memory hits only — the
    [test/test_device.ml] cache-accounting test pins this down.

    Duplicate [Params.t] entries in the request list are generated only
    once: the missing set is deduplicated by {!key} before generation
    (each dropped duplicate counts in [table_cache.deduped]) and the
    duplicates resolve to memory hits when the result list — whose order
    always matches the request list — is assembled. *)

val clear_memory : unit -> unit
(** Drop the in-memory cache (tests). *)
