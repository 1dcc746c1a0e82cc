(* Tests for the gnrtbl table format (Tbl_format,
   docs/FORMAT.md) and its Table_cache integration:

   - the corruption-matrix fuzzer: deterministic seeded mutations
     (truncation at every section boundary, single-bit flips across
     every region, zero-length files) driven through both the decoder
     and the full cache read path, each checked against a
     byte-position oracle for the exact typed [Cache_corrupt] reason —
     never a crash, never a silently-wrong table;
   - the differential round-trip property: random tables (including
     NaN, infinities, -0.0 and subnormals) survive write -> read and
     encode -> decode bit-for-bit, agreeing with a legacy Marshal
     round trip;
   - the golden binary fixtures: two checked-in hand-verified gnrtbl
     files re-encode byte-exactly (format drift breaks this first);
   - quarantine-failure accounting when the quarantine rename itself
     cannot succeed. *)

open Support

let tiny = tiny_device ()

let micro_grid =
  { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }

(* --- checksum self-test ----------------------------------------------- *)

(* Table-free bitwise CRC-32C: the definition the table-driven
   [Crc32.string] must agree with. *)
let crc32c_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 1 to 8 do
        crc :=
          if !crc land 1 = 1 then 0x82F63B78 lxor (!crc lsr 1)
          else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

(* Pin the polynomial (CRC-32C "check" vector) and the table against
   the bitwise definition.  A divergence here would fork the on-disk
   format, so this runs before any fixture test. *)
let test_crc32c_self () =
  Alcotest.(check int)
    "CRC-32C(\"123456789\") = 0xE3069283" 0xE3069283
    (Crc32.string "123456789" ~pos:0 ~len:9);
  Alcotest.(check int) "empty range" 0 (Crc32.string "" ~pos:0 ~len:0);
  let n = 15_000 in
  let big = String.init n (fun i -> Char.chr ((i * 131 + (i / 251)) land 0xFF)) in
  for len = 0 to 16 do
    let pos = n - ((len * 7) mod 64) - len in
    Alcotest.(check int)
      (Printf.sprintf "table = bitwise (len %d)" len)
      (crc32c_bitwise (String.sub big pos len))
      (Crc32.string big ~pos ~len)
  done;
  Alcotest.(check int) "table = bitwise (15 KB)" (crc32c_bitwise big)
    (Crc32.string big ~pos:0 ~len:n);
  (* Every length around the four-byte steps, at every alignment, and
     the size of a default-grid gnrtbl file. *)
  for pos = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "table = bitwise (pos %d, len %d)" pos len)
        (crc32c_bitwise (String.sub big pos len))
        (Crc32.string big ~pos ~len)
    done
  done;
  let file = String.init 15_328 (fun i -> Char.chr (((i * 61) + (i / 97)) land 0xFF)) in
  Alcotest.(check int) "table = bitwise (15,328 bytes)" (crc32c_bitwise file)
    (Crc32.string file ~pos:0 ~len:15_328);
  List.iter
    (fun (pos, len) ->
      check_raises_invalid
        (Printf.sprintf "range %d+%d rejected" pos len)
        (fun () -> ignore (Crc32.string "abcd" ~pos ~len : int)))
    [ (-1, 2); (0, -1); (3, 2); (5, 0) ]

(* --- deterministic fuzz RNG (shared splitmix64 mix) ------------------- *)

let fuzz_seed =
  match Sys.getenv_opt "GNRFET_TBL_FUZZ_SEED" with
  | Some s ->
    (try int_of_string (String.trim s)
     with Failure _ ->
       Alcotest.failf "GNRFET_TBL_FUZZ_SEED must be an integer, got %S" s)
  | None -> 0x5EED_0008

(* Counter-mode splitmix64: stream k of the campaign seed.  Same audited
   mixing function as the fault harness (Fault.splitmix64), so the
   mutation schedule is reproducible from the single printed seed. *)
let make_rng seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    Fault.splitmix64 !state

let rand_below rng n =
  if n <= 0 then invalid_arg "rand_below";
  Int64.to_int (Int64.rem (Int64.logand (rng ()) Int64.max_int) (Int64.of_int n))

(* --- fixture tables --------------------------------------------------- *)

let nan_pinned = Int64.float_of_bits 0x7FF8000000000000L

(* A small table exercising every special float the format must carry
   losslessly: quiet NaN (pinned bit pattern), both infinities, signed
   zero, a subnormal, and extreme magnitudes — plus failed points.
   The denormal/tiny literals are round-trip payloads, not tolerances. *)
let specials_table () =
  {
    Iv_table.key = "specials";
    (* gnrlint: allow magic-tol *)
    vg = [| -0.0; 4.9e-324; Float.max_float |];
    vd = [| neg_infinity; 0.0 |];
    current =
      [|
        (* gnrlint: allow magic-tol *)
        [| nan_pinned; 1e-300 |];
        [| infinity; -0.0 |];
        [| Float.min_float; -1.5e-6 |];
      |];
    charge =
      (* gnrlint: allow magic-tol *)
      [| [| 0.25; -0.25 |]; [| 4.9e-324; -4.9e-324 |]; [| 1e308; -1e308 |] |];
    failed_points = [ (0, 1); (2, 0) ];
  }

let bits = Int64.bits_of_float

let check_bits label a b =
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s[%d]: %Lx <> %Lx" label i (bits x) (bits b.(i)))
    a

let check_table_bits label (a : Iv_table.t) (b : Iv_table.t) =
  Alcotest.(check string) (label ^ ": key") a.Iv_table.key b.Iv_table.key;
  check_bits (label ^ ": vg") a.Iv_table.vg b.Iv_table.vg;
  check_bits (label ^ ": vd") a.Iv_table.vd b.Iv_table.vd;
  Array.iteri
    (fun i row -> check_bits (Printf.sprintf "%s: current[%d]" label i) row
        b.Iv_table.current.(i))
    a.Iv_table.current;
  Array.iteri
    (fun i row -> check_bits (Printf.sprintf "%s: charge[%d]" label i) row
        b.Iv_table.charge.(i))
    a.Iv_table.charge;
  Alcotest.(check (list (pair int int))) (label ^ ": failed_points")
    a.Iv_table.failed_points b.Iv_table.failed_points

(* --- oracle: byte position / truncation length -> typed reason -------- *)

(* Mirrors the validation order documented in tbl_format.mli (the format
   contract): size gate, magic, version, key-length bound, header CRC,
   total length, per-section CRCs. *)

let layout_of (t : Iv_table.t) ~cache_key =
  Tbl_format.Layout.make ~cache_key ~table_key:t.Iv_table.key
    ~n_vg:(Array.length t.Iv_table.vg) ~n_vd:(Array.length t.Iv_table.vd)
    ~n_failed:(List.length t.Iv_table.failed_points)

let truncation_oracle (lay : Tbl_format.Layout.t) len =
  let min_size = Tbl_format.Layout.min_file_size in
  if len < min_size then
    Robust_error.Truncated { expected = min_size; got = len }
  else if lay.Tbl_format.Layout.hdr_end + 8 > len then
    Robust_error.Truncated { expected = lay.Tbl_format.Layout.hdr_end + 8; got = len }
  else Robust_error.Truncated { expected = lay.Tbl_format.Layout.total; got = len }

(* Expected reason for a mutation that flips bit [bit] of byte [pos] of
   an otherwise-intact file.  Every byte of the file is covered by
   exactly one checksum, so every position maps to exactly one reason. *)
let flip_oracle (good : string) (lay : Tbl_format.Layout.t) ~pos ~bit =
  let got = String.length good in
  if pos < 6 then Robust_error.Bad_magic
  else if pos < 8 then begin
    let lo = Char.code good.[6] and hi = Char.code good.[7] in
    let v = lo lor (hi lsl 8) in
    let flipped = v lxor (1 lsl (bit + (8 * (pos - 6)))) in
    Robust_error.Bad_version { found = flipped }
  end
  else if pos < 16 then begin
    (* ckl (8..12) or tkl (12..16): the derived header span moves; the
       reader truncation-checks the new span before the header CRC. *)
    let field b0 =
      Char.code good.[b0] lor (Char.code good.[b0 + 1] lsl 8)
      lor (Char.code good.[b0 + 2] lsl 16) lor (Char.code good.[b0 + 3] lsl 24)
    in
    let ckl = field 8 and tkl = field 12 in
    let delta = 1 lsl (bit + (8 * ((pos - 8) mod 4))) in
    let ckl' = if pos < 12 then ckl lxor delta else ckl in
    let tkl' = if pos >= 12 then tkl lxor delta else tkl in
    let pad8 n = (n + 7) land lnot 7 in
    let hdr_end' = Tbl_format.Layout.fixed_header_size + pad8 ckl' + pad8 tkl' in
    if hdr_end' + 8 > got || hdr_end' < 0 (* flipped sign/high bits *) then
      Robust_error.Truncated { expected = hdr_end' + 8; got }
    else Robust_error.Crc_mismatch { section = "header" }
  end
  else if pos < lay.Tbl_format.Layout.hdr_end + 8 then
    (* Rest of the fixed header, the keys + padding, or the header CRC
       field itself: the header checksum catches all of them before any
       derived field is trusted. *)
    Robust_error.Crc_mismatch { section = "header" }
  else begin
    let col = [| "vg"; "vd"; "current"; "charge" |] in
    let sec = ref (Robust_error.Crc_mismatch { section = "failed_points" }) in
    Array.iteri
      (fun i off ->
        if pos >= off && pos < off + lay.Tbl_format.Layout.col_len.(i) + 8 then
          sec := Robust_error.Crc_mismatch { section = col.(i) })
      lay.Tbl_format.Layout.col_off;
    !sec
  end

let reason_str = Robust_error.corrupt_reason_to_string

let decode_reason bytes =
  match Tbl_format.decode bytes with
  | (_ : Tbl_format.view) -> None
  | exception Robust_error.Error (Robust_error.Cache_corrupt { reason; _ }) ->
    Some reason
  | exception e ->
    Alcotest.failf "decode leaked an untyped exception: %s"
      (Printexc.to_string e)

(* --- the corruption matrix -------------------------------------------- *)

let with_temp_cache f =
  let dir = Filename.temp_file "gnrfet_tblfmt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GNRFET_TABLE_DIR" "_tables";
      Table_cache.clear_memory ();
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
    (fun () ->
      Table_cache.clear_memory ();
      f dir)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let flip_bit s ~pos ~bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.unsafe_to_string b

(* Section boundaries of a layout: every offset at which one region of
   the file ends and the next begins.  The deterministic leg of the
   matrix truncates at each one. *)
let boundaries (lay : Tbl_format.Layout.t) =
  let b = ref [ 0; 1; 6; 8; 16; 32; 72; 80; lay.Tbl_format.Layout.hdr_end;
                lay.Tbl_format.Layout.hdr_end + 8 ] in
  Array.iteri
    (fun i off ->
      b := off :: (off + lay.Tbl_format.Layout.col_len.(i))
           :: (off + lay.Tbl_format.Layout.col_len.(i) + 8) :: !b)
    lay.Tbl_format.Layout.col_off;
  b := lay.Tbl_format.Layout.failed_off
       :: (lay.Tbl_format.Layout.failed_off + lay.Tbl_format.Layout.failed_len)
       :: !b;
  List.sort_uniq compare
    (List.filter (fun x -> x < lay.Tbl_format.Layout.total) !b)

let min_fuzz_iterations = 200

let test_corruption_matrix () =
  skip_if_fault_armed [ "table_cache.read" ];
  with_temp_cache @@ fun _dir ->
  let obs = Obs.create ~enabled:true () in
  let table = specials_table () in
  let key = Table_cache.key ~grid:micro_grid tiny in
  let good = Tbl_format.encode ~cache_key:key table in
  let lay = layout_of table ~cache_key:key in
  Alcotest.(check int) "layout total matches encoder" (String.length good)
    lay.Tbl_format.Layout.total;
  let path = Table_cache.gnrtbl_path key in
  let check_case ~label ~expected bytes =
    (* Decoder: the exact typed reason, never an untyped exception. *)
    (match decode_reason bytes with
    | Some reason ->
      if reason <> expected then
        Alcotest.failf "%s: expected %s, got %s" label (reason_str expected)
          (reason_str reason)
    | None -> Alcotest.failf "%s: mutation decoded as valid" label);
    (* Full cache path: quarantined with the same reason, lookup a miss. *)
    write_file path bytes;
    Table_cache.clear_memory ();
    let q0 = Obs.counter_value ~obs "table_cache.corrupt_quarantined" in
    (match Table_cache.probe_disk ~grid:micro_grid ~obs tiny with
    | Table_cache.Corrupt reason ->
      if reason <> expected then
        Alcotest.failf "%s: probe_disk expected %s, got %s" label
          (reason_str expected) (reason_str reason)
    | Table_cache.Table _ ->
      Alcotest.failf "%s: probe_disk accepted a mutated file" label
    | Table_cache.Absent | Table_cache.Stale ->
      Alcotest.failf "%s: probe_disk missed the corruption" label
    | exception e ->
      Alcotest.failf "%s: probe_disk leaked %s" label (Printexc.to_string e));
    Alcotest.(check int) (label ^ ": quarantined") (q0 + 1)
      (Obs.counter_value ~obs "table_cache.corrupt_quarantined");
    if Sys.file_exists (path ^ ".corrupt") then Sys.remove (path ^ ".corrupt");
    (* lookup never raises and degrades to a miss (file already gone). *)
    Table_cache.clear_memory ();
    match Table_cache.lookup ~grid:micro_grid ~obs tiny with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: lookup returned a table" label
    | exception e ->
      Alcotest.failf "%s: lookup leaked %s" label (Printexc.to_string e)
  in
  let mutations = ref 0 in
  let run () =
    (* Zero-length and sub-minimum files. *)
    check_case ~label:"empty file"
      ~expected:
        (Robust_error.Truncated
           { expected = Tbl_format.Layout.min_file_size; got = 0 })
      "";
    incr mutations;
    (* Deterministic leg: truncation at every section boundary. *)
    List.iter
      (fun len ->
        incr mutations;
        check_case
          ~label:(Printf.sprintf "truncated at boundary %d" len)
          ~expected:(truncation_oracle lay len)
          (String.sub good 0 len))
      (boundaries lay);
    (* Randomized leg: seeded truncations and single-bit flips across
       every region, each with an exact expected reason. *)
    let rng = make_rng fuzz_seed in
    let total = String.length good in
    while !mutations < min_fuzz_iterations + 16 do
      incr mutations;
      match rand_below rng 4 with
      | 0 ->
        let len = rand_below rng total in
        check_case
          ~label:(Printf.sprintf "fuzz truncate %d" len)
          ~expected:(truncation_oracle lay len)
          (String.sub good 0 len)
      | 1 ->
        (* Bias toward the header: it has the densest decision logic. *)
        let pos = rand_below rng (lay.Tbl_format.Layout.hdr_end + 8) in
        let bit = rand_below rng 8 in
        check_case
          ~label:(Printf.sprintf "fuzz header flip %d.%d" pos bit)
          ~expected:(flip_oracle good lay ~pos ~bit)
          (flip_bit good ~pos ~bit)
      | _ ->
        let pos = rand_below rng total in
        let bit = rand_below rng 8 in
        check_case
          ~label:(Printf.sprintf "fuzz flip %d.%d" pos bit)
          ~expected:(flip_oracle good lay ~pos ~bit)
          (flip_bit good ~pos ~bit)
    done;
    (* The intact bytes still read back, exactly. *)
    write_file path good;
    Table_cache.clear_memory ();
    match Table_cache.lookup ~grid:micro_grid ~obs tiny with
    | Some t -> check_table_bits "post-fuzz intact read" table t
    | None -> Alcotest.fail "intact file must read back after the fuzz run"
  in
  (try run ()
   with e ->
     Printf.eprintf
       "\ntbl_format corruption matrix failed after %d mutations; reproduce \
        with GNRFET_TBL_FUZZ_SEED=%d\n%!"
       !mutations fuzz_seed;
     raise e);
  if !mutations < min_fuzz_iterations then
    Alcotest.failf "only %d mutations exercised (want >= %d)" !mutations
      min_fuzz_iterations

(* --- differential round-trip ------------------------------------------ *)

let test_roundtrip_specials () =
  let table = specials_table () in
  let cache_key = "rt|specials" in
  let enc = Tbl_format.encode ~cache_key table in
  (* encode -> decode. *)
  let v = Tbl_format.decode enc in
  Alcotest.(check string) "cache key survives" cache_key
    v.Tbl_format.v_cache_key;
  check_table_bits "decode" table (Tbl_format.to_table v);
  (* write -> read. *)
  let path = Filename.temp_file "gnrfet_tblfmt_rt" ".gnrtbl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Tbl_format.write ~path ~cache_key table;
  let back = Tbl_format.to_table (Tbl_format.read ~path) in
  check_table_bits "read" table back;
  (* Differential: the gnrtbl round trip agrees with a Marshal round
     trip of the same table, field for field, bit for bit. *)
  let marshaled : Iv_table.t =
    Marshal.from_string (Marshal.to_string table []) 0
  in
  check_table_bits "marshal agreement" marshaled back

let table_gen =
  QCheck.Gen.(
    let special =
      (* round-trip payloads, not tolerances.  gnrlint: allow magic-tol *)
      oneofl
        (* gnrlint: allow magic-tol *)
        [ nan_pinned; infinity; neg_infinity; -0.0; 0.0; 4.9e-324;
          -4.9e-324; Float.max_float; -.Float.max_float; Float.min_float ]
    in
    let value = frequency [ (4, float); (1, special) ] in
    let* n_vg = 1 -- 6 in
    let* n_vd = 1 -- 5 in
    let* vg = array_size (return n_vg) value in
    let* vd = array_size (return n_vd) value in
    let matrix = array_size (return n_vg) (array_size (return n_vd) value) in
    let* current = matrix in
    let* charge = matrix in
    let* n_failed = 0 -- 4 in
    let* failed =
      list_size (return n_failed)
        (pair (int_bound (n_vg - 1)) (int_bound (n_vd - 1)))
    in
    let* keylen = 0 -- 40 in
    let* key = string_size ~gen:printable (return keylen) in
    return
      { Iv_table.key; vg; vd; current; charge;
        failed_points = List.sort_uniq compare failed })

let prop_roundtrip =
  qtest ~count:120 "gnrtbl round trip is bit-exact (random tables)"
    (QCheck.make table_gen) (fun table ->
      let cache_key = "rt|" ^ table.Iv_table.key in
      let v = Tbl_format.decode (Tbl_format.encode ~cache_key table) in
      let back = Tbl_format.to_table v in
      check_table_bits "qcheck roundtrip" table back;
      (* And agreement with the legacy Marshal layer's round trip. *)
      let m : Iv_table.t = Marshal.from_string (Marshal.to_string table []) 0 in
      check_table_bits "qcheck marshal agreement" m back;
      true)

let test_encode_rejects_ragged () =
  let t = specials_table () in
  let bad = { t with Iv_table.current = [| [| 1.0 |]; [| 2.0; 3.0 |]; [| 4.0; 5.0 |] |] } in
  check_raises_invalid "ragged matrix rejected" (fun () ->
      ignore (Tbl_format.encode ~cache_key:"k" bad : string))

(* --- golden binary fixtures ------------------------------------------- *)

(* test/golden/tiny.gnrtbl — hand-verified 304-byte fixture; regenerate
   with `dune exec test/gen_golden.exe` only after an INTENTIONAL format
   change (and bump Tbl_format.version).  Hex dump of its header:

     00000000: 474e 5254 424c 0100 1500 0000 0b00 0000  GNRTBL..........
     00000010: 0200 0000 0300 0000 0000 0000 0400 0000  ................
     00000020: 3001 0000 0000 0000 8000 0000 0000 0000  0...............
     00000030: 9800 0000 0000 0000 b800 0000 0000 0000  ................
     00000040: f000 0000 0000 0000 2801 0000 0000 0000  ........(.......
     00000050: 676f 6c64 656e 2d63 6163 6865 2d6b 6579  golden-cache-key
     00000060: 2d74 696e 7900 0000 676f 6c64 656e 2d74  -tiny...golden-t
     00000070: 696e 7900 0000 0000 7ef9 fbc1 0000 0000  iny.....~.......

   Reading off the fields (all little-endian, docs/FORMAT.md): magic
   "GNRTBL"; version 1; ckl 0x15 = 21 ("golden-cache-key-tiny"); tkl
   0x0b = 11 ("golden-tiny"); n_vg 2; n_vd 3; n_failed 0; n_cols 4;
   total 0x130 = 304; column offsets 0x80/0x98/0xb8/0xf0 (vg 2x8B,
   vd 3x8B, current and charge 6x8B, each +8B CRC field); failed-points
   offset 0x128; zero-padded keys at 0x50 and 0x68; header CRC-32C
   field 0xc1fbf97e at 0x78. *)

let golden_tiny_table () =
  {
    Iv_table.key = "golden-tiny";
    vg = [| 0.0; 0.5 |];
    vd = [| 0.0; 0.25; 0.5 |];
    current = [| [| 1e-9; 2e-9; 3e-9 |]; [| 4e-9; 5e-9; 6e-9 |] |];
    charge = [| [| -1e-19; -2e-19; -3e-19 |]; [| -4e-19; -5e-19; -6e-19 |] |];
    failed_points = [];
  }

let golden_tiny_cache_key = "golden-cache-key-tiny"

let golden_specials_cache_key = "golden-cache-key-specials"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_path name = Filename.concat "golden" name

let check_golden ~name ~cache_key table =
  let file = read_file (golden_path name) in
  (* 1. The checked-in bytes decode to exactly the expected table. *)
  let v = Tbl_format.decode ~path:name file in
  Alcotest.(check string) (name ^ ": cache key") cache_key
    v.Tbl_format.v_cache_key;
  check_table_bits (name ^ ": decoded") table (Tbl_format.to_table v);
  (* 2. Re-encoding the decoded table reproduces the file byte for
     byte: any encoder drift against the on-disk population fails here
     before it ships. *)
  Alcotest.(check int) (name ^ ": length") (String.length file)
    (String.length (Tbl_format.encode ~cache_key table));
  Alcotest.(check bool) (name ^ ": byte-exact re-encode") true
    (String.equal file (Tbl_format.encode ~cache_key table));
  v

let test_golden_tiny () =
  let v =
    check_golden ~name:"tiny.gnrtbl" ~cache_key:golden_tiny_cache_key
      (golden_tiny_table ())
  in
  (* Spot-check the hand-verified header fields against the raw file. *)
  let file = read_file (golden_path "tiny.gnrtbl") in
  Alcotest.(check string) "magic" "GNRTBL" (String.sub file 0 6);
  Alcotest.(check int) "version word" Tbl_format.version
    (Char.code file.[6] lor (Char.code file.[7] lsl 8));
  Alcotest.(check int) "ckl" (String.length golden_tiny_cache_key)
    (Char.code file.[8] lor (Char.code file.[9] lsl 8));
  Alcotest.(check int) "n_vg" 2 (Char.code file.[16]);
  Alcotest.(check int) "n_vd" 3 (Char.code file.[20]);
  Alcotest.(check int) "n_failed" 0 (Char.code file.[24]);
  Alcotest.(check int) "n_cols" 4 (Char.code file.[28]);
  Alcotest.(check int) "total length field" (String.length file)
    (Char.code file.[32] lor (Char.code file.[33] lsl 8)
    lor (Char.code file.[34] lsl 16));
  Alcotest.(check int) "decoded n_vg" 2
    (Array.length (Tbl_format.to_table v).Iv_table.vg)

let test_golden_specials () =
  ignore
    (check_golden ~name:"specials.gnrtbl" ~cache_key:golden_specials_cache_key
       (specials_table ())
      : Tbl_format.view)

(* --- quarantine failure accounting ------------------------------------ *)

let test_quarantine_rename_failure_counted () =
  skip_if_fault_armed [ "table_cache.read" ];
  with_temp_cache @@ fun _dir ->
  let obs = Obs.create ~enabled:true () in
  let key = Table_cache.key ~grid:micro_grid tiny in
  let path = Table_cache.gnrtbl_path key in
  write_file path (String.make 96 'x');
  (* Renaming a regular file onto an existing directory fails (EISDIR)
     even for root, so this pins the quarantine-rename failure path
     without needing an unwritable cache directory. *)
  Sys.mkdir (path ^ ".corrupt") 0o755;
  (match Table_cache.lookup ~grid:micro_grid ~obs tiny with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt file must read as a miss"
  | exception e ->
    Alcotest.failf "quarantine failure leaked %s" (Printexc.to_string e));
  Alcotest.(check int) "corruption still counted" 1
    (Obs.counter_value ~obs "table_cache.corrupt_quarantined");
  Alcotest.(check int) "per-reason counter still bumped" 1
    (Obs.counter_value ~obs "table_cache.corrupt.bad_magic");
  Alcotest.(check int) "failed rename counted" 1
    (Obs.counter_value ~obs "table_cache.quarantine_failed");
  Alcotest.(check bool) "file left in place (not renamed)" true
    (Sys.file_exists path)

(* --- probe_disk outcome taxonomy -------------------------------------- *)

let test_probe_disk_outcomes () =
  skip_if_fault_armed [ "table_cache.read" ];
  with_temp_cache @@ fun _dir ->
  let obs = Obs.create ~enabled:true () in
  let key = Table_cache.key ~grid:micro_grid tiny in
  let table = specials_table () in
  let is_absent = function Table_cache.Absent -> true | _ -> false in
  Alcotest.(check bool) "no file -> Absent" true
    (is_absent (Table_cache.probe_disk ~grid:micro_grid ~obs tiny));
  (* gnrtbl stored under a different cache key -> Stale, untouched. *)
  write_file (Table_cache.gnrtbl_path key)
    (Tbl_format.encode ~cache_key:"some-other-key" table);
  (match Table_cache.probe_disk ~grid:micro_grid ~obs tiny with
  | Table_cache.Stale -> ()
  | _ -> Alcotest.fail "wrong-key gnrtbl must probe as Stale");
  Alcotest.(check bool) "stale file left in place" true
    (Sys.file_exists (Table_cache.gnrtbl_path key));
  (* Correct key -> Table, bit-exact. *)
  write_file (Table_cache.gnrtbl_path key)
    (Tbl_format.encode ~cache_key:key table);
  (match Table_cache.probe_disk ~grid:micro_grid ~obs tiny with
  | Table_cache.Table t -> check_table_bits "probe Table" table t
  | _ -> Alcotest.fail "matching gnrtbl must probe as Table");
  (* A pre-gnrtbl Marshal [<digest>.table] next to a missing gnrtbl is
     not read: Absent, left in place, no corruption counted. *)
  Sys.remove (Table_cache.gnrtbl_path key);
  let marshal_path =
    Filename.chop_suffix (Table_cache.gnrtbl_path key) ".gnrtbl" ^ ".table"
  in
  let oc = open_out_bin marshal_path in
  Marshal.to_channel oc (key, table) [];
  close_out oc;
  Alcotest.(check bool) "Marshal file -> Absent" true
    (is_absent (Table_cache.probe_disk ~grid:micro_grid ~obs tiny));
  Alcotest.(check bool) "Marshal file left in place" true
    (Sys.file_exists marshal_path);
  let corrupt_counts =
    List.filter
      (fun (name, v) ->
        v > 0 && String.starts_with ~prefix:"table_cache.corrupt" name)
      (Obs.snapshot ~obs ()).Obs.snap_counters
  in
  Alcotest.(check int) "no corrupt counter bumped" 0 (List.length corrupt_counts)

let suite =
  [
    Alcotest.test_case "crc32c self-test (vector + bitwise reference)" `Quick
      test_crc32c_self;
    Alcotest.test_case "corruption matrix (seeded fuzz)" `Quick
      test_corruption_matrix;
    Alcotest.test_case "round trip preserves special floats" `Quick
      test_roundtrip_specials;
    prop_roundtrip;
    Alcotest.test_case "encode rejects ragged matrices" `Quick
      test_encode_rejects_ragged;
    Alcotest.test_case "golden fixture: tiny" `Quick test_golden_tiny;
    Alcotest.test_case "golden fixture: specials" `Quick test_golden_specials;
    Alcotest.test_case "quarantine rename failure counted" `Quick
      test_quarantine_rename_failure_counted;
    Alcotest.test_case "probe_disk outcome taxonomy" `Quick
      test_probe_disk_outcomes;
  ]
