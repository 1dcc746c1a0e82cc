(* gnrtbl v1 byte layout (docs/FORMAT.md is the normative spec; the
   Layout submodule below is the one computed source of offsets).

   All integers little-endian.  pad8(n) rounds n up to a multiple of 8.

     0   6  magic "GNRTBL"
     6   2  u16 format version = 1
     8   4  u32 cache-key length (ckl)
     12  4  u32 table-key length (tkl)
     16  4  u32 n_vg
     20  4  u32 n_vd
     24  4  u32 n_failed
     28  4  u32 n_cols = 4
     32  8  u64 total file length
     40  32 u64 column data offsets: vg, vd, current, charge
     72  8  u64 failed-points data offset
     80  pad8(ckl)  cache key, zero-padded
     ..  pad8(tkl)  table key, zero-padded
     hdr_end = 80 + pad8(ckl) + pad8(tkl)
     hdr_end  8  header CRC field

   then four column sections and the failed-points section, each
   "data ++ CRC field" at the offsets the header names.  A CRC field
   is a u32 CRC-32C of the section's data bytes followed by a u32 that
   must be zero, so every section (and the file total) stays 8-byte
   aligned and every byte of the file is covered by exactly one
   checksum. *)

type view = { v_cache_key : string; v_table : Iv_table.t }

let version = 1

let magic = "GNRTBL"

let pad8 n = (n + 7) land lnot 7

module Layout = struct
  type t = {
    ckl : int;
    tkl : int;
    n_vg : int;
    n_vd : int;
    n_failed : int;
    hdr_end : int;
    col_off : int array;
    col_len : int array;
    failed_off : int;
    failed_len : int;
    total : int;
  }

  let fixed_header_size = 80

  let min_file_size = fixed_header_size + 8

  let of_lengths ~ckl ~tkl ~n_vg ~n_vd ~n_failed =
    let hdr_end = fixed_header_size + pad8 ckl + pad8 tkl in
    let plane = n_vg * n_vd * 8 in
    let col_len = [| n_vg * 8; n_vd * 8; plane; plane |] in
    let col_off = Array.make 4 0 in
    let off = ref (hdr_end + 8) in
    Array.iteri
      (fun i len ->
        col_off.(i) <- !off;
        off := !off + len + 8)
      col_len;
    let failed_off = !off in
    let failed_len = 8 * n_failed in
    {
      ckl;
      tkl;
      n_vg;
      n_vd;
      n_failed;
      hdr_end;
      col_off;
      col_len;
      failed_off;
      failed_len;
      total = failed_off + failed_len + 8;
    }

  let make ~cache_key ~table_key ~n_vg ~n_vd ~n_failed =
    of_lengths ~ckl:(String.length cache_key) ~tkl:(String.length table_key)
      ~n_vg ~n_vd ~n_failed
end

let col_names = [| "vg"; "vd"; "current"; "charge" |]

let corrupt ~path reason =
  Robust_error.raise_ (Robust_error.Cache_corrupt { path; reason })

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let set_u32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

let set_u64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

(* Compute a section's CRC over the just-written data bytes and store
   it in the 8-byte CRC field that follows (high u32 stays zero from
   Bytes.make). *)
let seal b ~pos ~len =
  set_u32 b (pos + len) (Crc32.string (Bytes.unsafe_to_string b) ~pos ~len)

let encode ~cache_key (t : Iv_table.t) =
  let n_vg = Array.length t.Iv_table.vg and n_vd = Array.length t.Iv_table.vd in
  let ragged plane =
    Array.length plane <> n_vg
    || Array.exists (fun row -> Array.length row <> n_vd) plane
  in
  if ragged t.Iv_table.current || ragged t.Iv_table.charge then
    invalid_arg "Tbl_format.encode: current/charge not an n_vg x n_vd matrix";
  let n_failed = List.length t.Iv_table.failed_points in
  let lay =
    Layout.make ~cache_key ~table_key:t.Iv_table.key ~n_vg ~n_vd ~n_failed
  in
  let b = Bytes.make lay.Layout.total '\000' in
  Bytes.blit_string magic 0 b 0 6;
  Bytes.set_uint16_le b 6 version;
  set_u32 b 8 lay.Layout.ckl;
  set_u32 b 12 lay.Layout.tkl;
  set_u32 b 16 n_vg;
  set_u32 b 20 n_vd;
  set_u32 b 24 n_failed;
  set_u32 b 28 4;
  set_u64 b 32 lay.Layout.total;
  Array.iteri (fun i off -> set_u64 b (40 + (8 * i)) off) lay.Layout.col_off;
  set_u64 b 72 lay.Layout.failed_off;
  Bytes.blit_string cache_key 0 b 80 lay.Layout.ckl;
  Bytes.blit_string t.Iv_table.key 0 b (80 + pad8 lay.Layout.ckl) lay.Layout.tkl;
  seal b ~pos:0 ~len:lay.Layout.hdr_end;
  let put_f64 pos v = Bytes.set_int64_le b pos (Int64.bits_of_float v) in
  let write_plane i fill =
    let pos = lay.Layout.col_off.(i) in
    fill pos;
    seal b ~pos ~len:lay.Layout.col_len.(i)
  in
  write_plane 0 (fun pos ->
      Array.iteri (fun k v -> put_f64 (pos + (8 * k)) v) t.Iv_table.vg);
  write_plane 1 (fun pos ->
      Array.iteri (fun k v -> put_f64 (pos + (8 * k)) v) t.Iv_table.vd);
  let write_matrix i m =
    write_plane i (fun pos ->
        Array.iteri
          (fun ig row ->
            Array.iteri
              (fun jd v -> put_f64 (pos + (8 * ((ig * n_vd) + jd))) v)
              row)
          m)
  in
  write_matrix 2 t.Iv_table.current;
  write_matrix 3 t.Iv_table.charge;
  List.iteri
    (fun k (ivg, ivd) ->
      let pos = lay.Layout.failed_off + (8 * k) in
      set_u32 b pos ivg;
      set_u32 b (pos + 4) ivd)
    t.Iv_table.failed_points;
  seal b ~pos:lay.Layout.failed_off ~len:lay.Layout.failed_len;
  Bytes.unsafe_to_string b

let write ~path ~cache_key t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode ~cache_key t))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

let decode ?(path = "<bytes>") s =
  let fail reason = corrupt ~path reason in
  let u32 pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFF_FFFF in
  (* Only read after the header CRC has been verified, so the writer's
     value (always a sane file size) is what we get; the top bit that
     does not fit an OCaml int is never set for an honest file. *)
  let u64 pos = Int64.to_int (String.get_int64_le s pos) in
  let f64 pos = Int64.float_of_bits (String.get_int64_le s pos) in
  let check_crc ~section ~pos ~len =
    if u32 (pos + len + 4) <> 0 || u32 (pos + len) <> Crc32.string s ~pos ~len
    then fail (Robust_error.Crc_mismatch { section })
  in
  let got = String.length s in
  if got < Layout.min_file_size then
    fail (Robust_error.Truncated { expected = Layout.min_file_size; got });
  if not (String.starts_with ~prefix:magic s) then fail Robust_error.Bad_magic;
  let v = String.get_uint16_le s 6 in
  if v <> version then fail (Robust_error.Bad_version { found = v });
  let ckl = u32 8 and tkl = u32 12 in
  let hdr_end = Layout.fixed_header_size + pad8 ckl + pad8 tkl in
  if hdr_end + 8 > got then
    fail (Robust_error.Truncated { expected = hdr_end + 8; got });
  check_crc ~section:"header" ~pos:0 ~len:hdr_end;
  (* The header is now trusted: every field below is what the writer
     wrote, so the remaining failure modes are truncation (size
     mismatch) and per-section bit rot (column CRCs). *)
  let n_vg = u32 16 and n_vd = u32 20 in
  let n_failed = u32 24 and n_cols = u32 28 in
  let total = u64 32 in
  if total <> got then fail (Robust_error.Truncated { expected = total; got });
  let lay = Layout.of_lengths ~ckl ~tkl ~n_vg ~n_vd ~n_failed in
  (* Defensive consistency of the stored offsets against the derived
     layout: unreachable for files produced by [encode] (the header CRC
     already passed), kept so a buggy foreign writer cannot steer reads
     out of bounds. *)
  if
    n_cols <> 4
    || lay.Layout.total <> total
    || u64 72 <> lay.Layout.failed_off
    || Array.exists Fun.id
         (Array.mapi
            (fun i off -> u64 (40 + (8 * i)) <> off)
            lay.Layout.col_off)
  then fail (Robust_error.Crc_mismatch { section = "header" });
  Array.iteri
    (fun i section ->
      check_crc ~section ~pos:lay.Layout.col_off.(i) ~len:lay.Layout.col_len.(i))
    col_names;
  check_crc ~section:"failed_points" ~pos:lay.Layout.failed_off
    ~len:lay.Layout.failed_len;
  let failed_points =
    List.init n_failed (fun k ->
        let pos = lay.Layout.failed_off + (8 * k) in
        let ivg = u32 pos and ivd = u32 (pos + 4) in
        if ivg >= n_vg || ivd >= n_vd then
          fail (Robust_error.Crc_mismatch { section = "failed_points" });
        (ivg, ivd))
  in
  let column i n =
    Array.init n (fun k -> f64 (lay.Layout.col_off.(i) + (8 * k)))
  in
  let plane i =
    Array.init n_vg (fun ig ->
        Array.init n_vd (fun jd ->
            f64 (lay.Layout.col_off.(i) + (8 * ((ig * n_vd) + jd)))))
  in
  {
    v_cache_key = String.sub s Layout.fixed_header_size ckl;
    v_table =
      {
        Iv_table.key = String.sub s (Layout.fixed_header_size + pad8 ckl) tkl;
        vg = column 0 n_vg;
        vd = column 1 n_vd;
        current = plane 2;
        charge = plane 3;
        failed_points;
      };
  }

let read ~path =
  decode ~path (In_channel.with_open_bin path In_channel.input_all)

let to_table v = v.v_table
