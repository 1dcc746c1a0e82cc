type corrupt_reason =
  | Bad_magic
  | Bad_version of { found : int }
  | Crc_mismatch of { section : string }
  | Truncated of { expected : int; got : int }
  | Undecodable of { detail : string }

type torn_reason =
  | Torn_bad_header of { detail : string }
  | Torn_spec_mismatch of { expected : string; found : string }
  | Torn_truncated of { offset : int }
  | Torn_crc of { record : int; offset : int }
  | Torn_out_of_order of { record : int; expected : int; found : int }

type t =
  | Singular of { solver : string; detail : string }
  | Iterative_no_convergence of {
      solver : string;
      iterations : int;
      residual : float;
    }
  | Newton_failure of { analysis : string; time : float }
  | Cache_corrupt of { path : string; reason : corrupt_reason }
  | Injected_fault of { site : string; hit : int }
  | Unrecovered of { stage : string; attempts : int; detail : string }
  | Client_timeout of { op : string; deadline_s : float }
  | Client_disconnected of { op : string; detail : string }
  | Checkpoint_torn of { path : string; reason : torn_reason }

exception Error of t

let corrupt_label = function
  | Bad_magic -> "bad_magic"
  | Bad_version _ -> "bad_version"
  | Crc_mismatch _ -> "crc_mismatch"
  | Truncated _ -> "truncated"
  | Undecodable _ -> "undecodable"

let corrupt_reason_to_string = function
  | Bad_magic -> "bad magic (not a gnrtbl file)"
  | Bad_version { found } -> Printf.sprintf "unsupported format version %d" found
  | Crc_mismatch { section } ->
    Printf.sprintf "CRC-32C mismatch in section %S" section
  | Truncated { expected; got } ->
    Printf.sprintf "truncated (expected %d bytes, got %d)" expected got
  | Undecodable { detail } -> Printf.sprintf "undecodable (%s)" detail

let torn_label = function
  | Torn_bad_header _ -> "bad_header"
  | Torn_spec_mismatch _ -> "spec_mismatch"
  | Torn_truncated _ -> "truncated"
  | Torn_crc _ -> "crc"
  | Torn_out_of_order _ -> "out_of_order"

let torn_reason_to_string = function
  | Torn_bad_header { detail } -> Printf.sprintf "bad header (%s)" detail
  | Torn_spec_mismatch { expected; found } ->
    Printf.sprintf "journal belongs to a different spec (expected %s, found %s)"
      expected found
  | Torn_truncated { offset } ->
    Printf.sprintf "torn tail: truncated record at byte %d" offset
  | Torn_crc { record; offset } ->
    Printf.sprintf "torn tail: CRC-32C mismatch in record %d at byte %d" record
      offset
  | Torn_out_of_order { record; expected; found } ->
    Printf.sprintf
      "torn tail: record %d out of order (expected sample %d, found %d)" record
      expected found

let to_string = function
  | Singular { solver; detail } -> Printf.sprintf "%s: %s" solver detail
  | Iterative_no_convergence { solver; iterations; residual } ->
    Printf.sprintf "%s did not converge (%d iterations, residual %.3g)" solver
      iterations residual
  | Newton_failure { analysis; time } ->
    if analysis = "dc" then "MNA Newton failed (dc operating point)"
    else Printf.sprintf "MNA Newton failed (%s, t=%.4g s)" analysis time
  | Cache_corrupt { path; reason } ->
    Printf.sprintf "corrupt table cache file %s (%s); quarantined" path
      (corrupt_reason_to_string reason)
  | Injected_fault { site; hit } ->
    Printf.sprintf "injected fault at site %s (hit %d)" site hit
  | Unrecovered { stage; attempts; detail } ->
    Printf.sprintf "%s unrecovered after %d attempts: %s" stage attempts detail
  | Client_timeout { op; deadline_s } ->
    Printf.sprintf "serve client: %s timed out after %g s" op deadline_s
  | Client_disconnected { op; detail } ->
    Printf.sprintf "serve client: disconnected during %s (%s)" op detail
  | Checkpoint_torn { path; reason } ->
    Printf.sprintf "checkpoint journal %s: %s" path
      (torn_reason_to_string reason)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Robust_error.Error: " ^ to_string e)
    | _ -> None)

let raise_ e = raise (Error e)
