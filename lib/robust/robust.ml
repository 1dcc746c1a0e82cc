module Report = struct
  type t = { fault_spec : string option; counters : (string * int) list }

  let prefixed prefix name =
    String.length name >= String.length prefix
    && String.sub name 0 (String.length prefix) = prefix

  let relevant name =
    prefixed "robust." name
    || name = "table_cache.corrupt_quarantined"
    || name = "table_cache.store_failures"

  let collect ?obs () =
    let snap = Obs.snapshot ?obs () in
    {
      fault_spec = Fault.current_spec ();
      counters = List.filter (fun (n, _) -> relevant n) snap.Obs.snap_counters;
    }

  let total_injected t =
    List.fold_left
      (fun acc (n, v) -> if prefixed "robust.fault." n then acc + v else acc)
      0 t.counters

  let pp ppf t =
    (match t.fault_spec with
    | Some spec -> Format.fprintf ppf "fault campaign: %s@." spec
    | None -> Format.fprintf ppf "fault campaign: none@.");
    if t.counters = [] then
      Format.fprintf ppf "no robustness counters registered@."
    else begin
      let width =
        List.fold_left (fun w (n, _) -> max w (String.length n)) 0 t.counters
      in
      List.iter
        (fun (n, v) -> Format.fprintf ppf "  %-*s %d@." width n v)
        t.counters
    end
end
