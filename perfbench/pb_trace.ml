(* In-memory span recorder for the traced run.

   Spans are recorded around the benchmark's own calls into each layer
   (name, request id, parent span, start, stop) and kept in memory until
   the run ends.  Untraced runs never enable the recorder, so [run] is
   then exactly [f ()].  Spans nest per systhread: the serve-mix client
   threads each get their own stack. *)

type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  rid : int;  (** request id shared by all spans of one request; -1 if none *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false

let mu = Mutex.create ()

let spans : span list ref = ref []

let next_id = ref 0

let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

let run ?(rid = -1) name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      Mutex.protect mu (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> -1))
    in
    let start = Pb_util.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Pb_util.now () in
        Mutex.protect mu (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | Some [] | None -> ());
            spans := { id; parent; rid; name; start; stop } :: !spans))
  end

(* Total and self milliseconds per span name.  Self time is a span's
   duration minus the time its direct children cover. *)
let totals () =
  let all = Mutex.protect mu (fun () -> !spans) in
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent) in
        Hashtbl.replace child_ms s.parent (prev +. ((s.stop -. s.start) *. 1e3)))
    all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ms = (s.stop -. s.start) *. 1e3 in
      let self = ms -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id) in
      let n, t, st = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. ms, st +. self))
    all;
  acc

let total_ms name =
  match Hashtbl.find_opt (totals ()) name with Some (_, t, _) -> t | None -> 0.

(* Spans written per run are capped so a long serve-mix trace stays a
   few megabytes; the per-name totals always cover every span. *)
let max_written = 20_000

let write path =
  let all = List.rev (Mutex.protect mu (fun () -> !spans)) in
  let t0 = match all with s :: _ -> s.start | [] -> 0. in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"schema\":\"perfbench-spans-v1\",\"totals\":{";
  let first = ref true in
  Hashtbl.iter
    (fun name (n, t, st) ->
      if not !first then output_char oc ',';
      first := false;
      Printf.fprintf oc "%S:{\"count\":%d,\"total_ms\":%.6f,\"self_ms\":%.6f}" name n t st)
    (totals ());
  Printf.fprintf oc "},\"recorded\":%d,\"spans\":[\n" (List.length all);
  List.iteri
    (fun i s ->
      if i < max_written then
        Printf.fprintf oc "%s{\"id\":%d,\"parent\":%d,\"rid\":%d,\"name\":%S,\"start_ms\":%.4f,\"dur_ms\":%.4f}\n"
          (if i = 0 then "" else ",")
          s.id s.parent s.rid s.name
          ((s.start -. t0) *. 1e3)
          ((s.stop -. s.start) *. 1e3))
    all;
  output_string oc "]}\n"
