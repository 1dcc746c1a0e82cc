(* Observability registry: counters, timers, histograms, spans.

   Everything here is designed around two constraints: a disabled
   registry must cost a single branch per operation on solver hot paths
   (no allocation, no clock reads, no atomics), and snapshots must be
   deterministic in structure (sorted by name) so reports diff cleanly
   across runs.  Metric cells are Atomics so worker domains can bump
   them without locks; the registry tables themselves are only touched
   under a mutex at registration/snapshot/reset time. *)

let now () = Unix.gettimeofday ()

type counter_cell = { c_name : string; cell : int Atomic.t }

type timer_cell = {
  tm_name : string;
  tm_calls : int Atomic.t;
  tm_total_ns : int Atomic.t;
}

let hist_buckets = 63 (* bucket i: values with highest set bit i *)

type hist_cell = {
  hg_name : string;
  hg_count : int Atomic.t;
  hg_sum : int Atomic.t;
  hg_max : int Atomic.t;
  hg_bins : int Atomic.t array;
}

type span_frame = { sp_name : string; sp_t0 : float }

type t = {
  mutable on : bool;
  mutex : Mutex.t;
  counters : (string, counter_cell) Hashtbl.t;
  timers : (string, timer_cell) Hashtbl.t;
  histograms : (string, hist_cell) Hashtbl.t;
  (* Per-thread stacks of open spans, one table per domain (DLS).
     Per-domain alone is not enough: systhreads sharing a domain (the
     serve daemon's per-connection threads) would interleave push/pop
     on one stack, and a perfectly balanced span could try to pop a
     frame another thread pushed — a spurious Mismatch.  The table is
     guarded by the registry mutex; each stack ref is then only ever
     touched by its own thread.  Entries of finished threads linger,
     bounded by the peak thread count of the domain. *)
  span_stack : (int, span_frame list ref) Hashtbl.t Domain.DLS.key;
}

let env_enables_obs () =
  match Sys.getenv_opt "GNRFET_OBS" with
  | None | Some ("0" | "false" | "off" | "") -> false
  | Some _ -> true

let global =
  {
    on = env_enables_obs ();
    mutex = Mutex.create ();
    counters = Hashtbl.create 64;
    timers = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
    span_stack = Domain.DLS.new_key (fun () -> Hashtbl.create 8);
  }

let enabled reg = reg.on

let set_enabled reg flag = reg.on <- flag

(* Find-or-create under the registry mutex; registration is rare (module
   init, or a name built from a reason label), so the lock is
   uncontended. *)
let intern table name build =
  Mutex.protect global.mutex (fun () ->
      match Hashtbl.find_opt table name with
      | Some cell -> cell
      | None ->
        let cell = build () in
        Hashtbl.replace table name cell;
        cell)

module Counter = struct
  type nonrec t = counter_cell

  let make name =
    intern global.counters name (fun () -> { c_name = name; cell = Atomic.make 0 })

  let incr c = if global.on then ignore (Atomic.fetch_and_add c.cell 1)

  let add c n = if global.on && n > 0 then ignore (Atomic.fetch_and_add c.cell n)

  let value c = Atomic.get c.cell

  let name c = c.c_name
end

module Timer = struct
  type nonrec t = timer_cell

  let make name =
    intern global.timers name (fun () ->
        { tm_name = name; tm_calls = Atomic.make 0; tm_total_ns = Atomic.make 0 })

  let record tm seconds =
    if global.on then begin
      let ns = int_of_float (Float.max 0. seconds *. 1e9) in
      ignore (Atomic.fetch_and_add tm.tm_calls 1);
      ignore (Atomic.fetch_and_add tm.tm_total_ns ns)
    end

  let start _ = if global.on then now () else 0.

  let stop tm t0 = if global.on && t0 > 0. then record tm (now () -. t0)

  let calls tm = Atomic.get tm.tm_calls

  let total_s tm = float_of_int (Atomic.get tm.tm_total_ns) *. 1e-9
end

module Histogram = struct
  type nonrec t = hist_cell

  let make name =
    intern global.histograms name (fun () ->
        {
          hg_name = name;
          hg_count = Atomic.make 0;
          hg_sum = Atomic.make 0;
          hg_max = Atomic.make 0;
          hg_bins = Array.init hist_buckets (fun _ -> Atomic.make 0);
        })

  let bucket_of v =
    let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
    min (hist_buckets - 1) (bits 0 v)

  (* Lock-free max: retry the CAS until our value is no longer larger. *)
  let rec bump_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v

  let observe h v =
    if global.on then begin
      let v = max 0 v in
      ignore (Atomic.fetch_and_add h.hg_count 1);
      ignore (Atomic.fetch_and_add h.hg_sum v);
      bump_max h.hg_max v;
      ignore (Atomic.fetch_and_add h.hg_bins.(bucket_of v) 1)
    end

  let count h = Atomic.get h.hg_count

  let sum h = Atomic.get h.hg_sum

  let max_value h = Atomic.get h.hg_max
end

module Span = struct
  exception Mismatch of string

  let thread_stack () =
    let tbl = Domain.DLS.get global.span_stack in
    let id = Thread.id (Thread.self ()) in
    Mutex.protect global.mutex (fun () ->
        match Hashtbl.find_opt tbl id with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.replace tbl id s;
          s)

  let depth () = List.length !(thread_stack ())

  let stack () = List.map (fun f -> f.sp_name) !(thread_stack ())

  let exit_span tm name =
    let stack = thread_stack () in
    match !stack with
    | { sp_name; sp_t0 } :: rest when String.equal sp_name name ->
      stack := rest;
      Timer.record tm (now () -. sp_t0)
    | _ -> raise (Mismatch name)

  let run name f =
    if not global.on then f ()
    else begin
      let tm = Timer.make name in
      let stack = thread_stack () in
      stack := { sp_name = name; sp_t0 = now () } :: !stack;
      match f () with
      | result ->
        exit_span tm name;
        result
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        exit_span tm name;
        Printexc.raise_with_backtrace e bt
    end
end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

type timer_stat = { t_calls : int; total_ms : float }

type hist_stat = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type snapshot = {
  snap_enabled : bool;
  snap_counters : (string * int) list;
  snap_timers : (string * timer_stat) list;
  snap_histograms : (string * hist_stat) list;
}

let sorted_by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let snapshot () =
  Mutex.protect global.mutex (fun () ->
      let counters =
        Hashtbl.fold (fun name c acc -> (name, Counter.value c) :: acc)
          global.counters []
      in
      let timers =
        Hashtbl.fold
          (fun name tm acc ->
            ( name,
              { t_calls = Timer.calls tm; total_ms = Timer.total_s tm *. 1e3 } )
            :: acc)
          global.timers []
      in
      let histograms =
        Hashtbl.fold
          (fun name h acc ->
            let buckets = ref [] in
            for i = hist_buckets - 1 downto 0 do
              let c = Atomic.get h.hg_bins.(i) in
              if c > 0 then buckets := (1 lsl i, c) :: !buckets
            done;
            ( name,
              {
                h_count = Histogram.count h;
                h_sum = Histogram.sum h;
                h_max = Histogram.max_value h;
                h_buckets = !buckets;
              } )
            :: acc)
          global.histograms []
      in
      {
        snap_enabled = global.on;
        snap_counters = sorted_by_name counters;
        snap_timers = sorted_by_name timers;
        snap_histograms = sorted_by_name histograms;
      })

let counter_value name =
  match
    Mutex.protect global.mutex (fun () -> Hashtbl.find_opt global.counters name)
  with
  | Some c -> Counter.value c
  | None -> 0

let reset () =
  Mutex.protect global.mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) global.counters;
      Hashtbl.iter
        (fun _ tm ->
          Atomic.set tm.tm_calls 0;
          Atomic.set tm.tm_total_ns 0)
        global.timers;
      Hashtbl.iter
        (fun _ h ->
          Atomic.set h.hg_count 0;
          Atomic.set h.hg_sum 0;
          Atomic.set h.hg_max 0;
          Array.iter (fun bin -> Atomic.set bin 0) h.hg_bins)
        global.histograms)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ?(indent = "") snap =
  let buf = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf indent;
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let sep i n = if i = n - 1 then "" else "," in
  line "{";
  line "  \"schema\": \"gnrfet-obs-v1\",";
  line "  \"enabled\": %b," snap.snap_enabled;
  line "  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      line "    \"%s\": %d%s" (json_escape name) v
        (sep i (List.length snap.snap_counters)))
    snap.snap_counters;
  line "  },";
  line "  \"timers\": {";
  List.iteri
    (fun i (name, st) ->
      line "    \"%s\": {\"calls\": %d, \"total_ms\": %.6g}%s"
        (json_escape name) st.t_calls st.total_ms
        (sep i (List.length snap.snap_timers)))
    snap.snap_timers;
  line "  },";
  line "  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      let buckets =
        h.h_buckets
        |> List.map (fun (ub, c) -> Printf.sprintf "[%d, %d]" ub c)
        |> String.concat ", "
      in
      line "    \"%s\": {\"count\": %d, \"sum\": %d, \"max\": %d, \"buckets\": [%s]}%s"
        (json_escape name) h.h_count h.h_sum h.h_max buckets
        (sep i (List.length snap.snap_histograms)))
    snap.snap_histograms;
  line "  }";
  Buffer.add_string buf indent;
  Buffer.add_string buf "}";
  Buffer.contents buf

let pp ppf snap =
  Format.fprintf ppf "obs snapshot (%s)@."
    (if snap.snap_enabled then "enabled" else "disabled");
  if snap.snap_counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-34s %12d@." name v)
      snap.snap_counters
  end;
  if snap.snap_timers <> [] then begin
    Format.fprintf ppf "timers:@.";
    List.iter
      (fun (name, st) ->
        let per_call =
          if st.t_calls > 0 then st.total_ms /. float_of_int st.t_calls else 0.
        in
        Format.fprintf ppf "  %-34s %8d calls %12.3f ms total %10.4f ms/call@."
          name st.t_calls st.total_ms per_call)
      snap.snap_timers
  end;
  if snap.snap_histograms <> [] then begin
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "  %-34s count %-8d sum %-10d max %-8d@." name
          h.h_count h.h_sum h.h_max;
        List.iter
          (fun (ub, c) -> Format.fprintf ppf "    < %-10d %d@." ub c)
          h.h_buckets)
      snap.snap_histograms
  end
