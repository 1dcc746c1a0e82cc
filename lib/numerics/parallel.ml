(* An empty GNRFET_DOMAINS counts as unset: OCaml's Unix has no
   unsetenv, so restoring an unset variable leaves it empty. *)
let num_domains () =
  match Option.map String.trim (Sys.getenv_opt "GNRFET_DOMAINS") with
  | None | Some "" -> max 1 (Domain.recommended_domain_count () - 1)
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)

type 'b outcome = Value of 'b | Error of exn

exception Missing_result

(* ------------------------------------------------------------------ *)
(* Persistent domain pool.                                            *)
(*                                                                    *)
(* Workers are spawned once (lazily, up to the largest parallelism a  *)
(* run has asked for) and fed through a single task queue, so the     *)
(* thousands of map_reduce calls an SCF sweep makes do not pay a      *)
(* Domain.spawn/join round-trip each.  A caller waiting for its run   *)
(* to finish helps by executing queued tasks (possibly its own), so a *)
(* nested run started from inside a pool worker can never deadlock:   *)
(* the nested caller drains its own sub-tasks if no worker is free.   *)
(* ------------------------------------------------------------------ *)

type pool = {
  mutex : Mutex.t;
  wake : Condition.t;  (** signals both "task queued" and "slot finished" *)
  tasks : (unit -> unit) Queue.t;
  mutable spawned : int;
  mutable handles : unit Domain.t list;
  mutable stop : bool;
}

let pool =
  {
    mutex = Mutex.create ();
    wake = Condition.create ();
    tasks = Queue.create ();
    spawned = 0;
    handles = [];
    stop = false;
  }

(* Pool observability (docs/OBS.md): how many runs hit the pool, how the
   executed tasks spread across workers vs the helping caller, and how
   long tasks sat queued before a domain picked them up.  Counters only —
   never anything that could perturb scheduling or results. *)
let obs_runs = Obs.Counter.make "parallel.runs"
let obs_pool_tasks = Obs.Counter.make "parallel.pool_tasks"
let obs_helped_tasks = Obs.Counter.make "parallel.helped_tasks"
let obs_queue_wait = Obs.Timer.make "parallel.queue_wait"

(* Stamp a task with its enqueue time so the executing domain can record
   the queue wait; identity when the registry is disabled. *)
let with_queue_stamp task =
  if not (Obs.enabled Obs.global) then task
  else begin
    let t_enq = Obs.now () in
    fun () ->
      Obs.Timer.record obs_queue_wait (Obs.now () -. t_enq);
      task ()
  end

(* Tasks are wrapped at submission so they never raise (run_slots folds
   exceptions into per-run state); the worker loop therefore needs no
   catch-all of its own. *)
let rec worker_loop tasks_done =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.tasks && not pool.stop do
    Condition.wait pool.wake pool.mutex
  done;
  if Queue.is_empty pool.tasks then Mutex.unlock pool.mutex (* stop *)
  else begin
    let task = Queue.pop pool.tasks in
    Mutex.unlock pool.mutex;
    task ();
    Obs.Counter.incr tasks_done;
    Obs.Counter.incr obs_pool_tasks;
    worker_loop tasks_done
  end

let shutdown_pool () =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.wake;
  let handles = pool.handles in
  pool.handles <- [];
  pool.spawned <- 0;
  Mutex.unlock pool.mutex;
  List.iter Domain.join handles

let () = at_exit shutdown_pool

(* Workers communicate only through the mutex-protected queue; submitted
   tasks own disjoint result slots.  gnrlint: allow-shared *)
let spawn_worker idx =
  let tasks_done = Obs.Counter.make (Printf.sprintf "parallel.worker.%d.tasks" idx) in
  Domain.spawn (fun () -> worker_loop tasks_done)

let ensure_workers n =
  Mutex.lock pool.mutex;
  while pool.spawned < n && not pool.stop do
    pool.spawned <- pool.spawned + 1;
    pool.handles <- spawn_worker (pool.spawned - 1) :: pool.handles
  done;
  Mutex.unlock pool.mutex

(* Run [job 0 .. job (slots-1)], slot 0 on the calling domain, the rest
   through the pool.  Exceptions raised by jobs are collected and the
   first one is re-raised after every slot has finished. *)
let run_slots ~slots job =
  if slots <= 1 then job 0
  else begin
    ensure_workers (slots - 1);
    Obs.Counter.incr obs_runs;
    let remaining = ref slots in
    let failures = ref [] in
    let wrapped slot () =
      (try job slot
       with e ->
         Mutex.lock pool.mutex;
         failures := e :: !failures;
         Mutex.unlock pool.mutex);
      Mutex.lock pool.mutex;
      decr remaining;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.mutex
    in
    Mutex.lock pool.mutex;
    for s = 1 to slots - 1 do
      Queue.push (with_queue_stamp (wrapped s)) pool.tasks
    done;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex;
    wrapped 0 ();
    Mutex.lock pool.mutex;
    let rec wait () =
      if !remaining > 0 then
        if not (Queue.is_empty pool.tasks) then begin
          (* Help: run queued tasks (ours or another run's) instead of
             blocking a domain on the condition variable. *)
          let task = Queue.pop pool.tasks in
          Mutex.unlock pool.mutex;
          task ();
          Obs.Counter.incr obs_helped_tasks;
          Mutex.lock pool.mutex;
          wait ()
        end
        else begin
          Condition.wait pool.wake pool.mutex;
          wait ()
        end
    in
    wait ();
    let failed = !failures in
    Mutex.unlock pool.mutex;
    match failed with [] -> () | e :: _ -> raise e
  end

(* ------------------------------------------------------------------ *)
(* Chunked primitives.                                                *)
(*                                                                    *)
(* The chunk grid depends only on [n] and [chunk] — never on the      *)
(* worker count or the scheduling — and partial results are combined  *)
(* in ascending chunk order, so the result is bit-for-bit identical   *)
(* for every GNRFET_DOMAINS setting (the determinism contract the     *)
(* NEGF observables rely on; see docs/PERF.md).                       *)
(* ------------------------------------------------------------------ *)

let default_chunk = 16

let map_reduce ?domains ?(chunk = default_chunk) ~n ~worker ~body ~combine init =
  if n <= 0 then init
  else begin
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let requested =
      match domains with Some d -> max 1 d | None -> num_domains ()
    in
    let slots = min requested nchunks in
    let partials = Array.make nchunks None in
    let bounds i = (i * chunk, min n ((i + 1) * chunk)) in
    if slots <= 1 then begin
      let w = worker 0 in
      for i = 0 to nchunks - 1 do
        let lo, hi = bounds i in
        partials.(i) <- Some (body w ~lo ~hi)
      done
    end
    else begin
      let next = Atomic.make 0 in
      (* Slots claim disjoint [partials] entries via the atomic counter. *)
      run_slots ~slots (fun slot ->
          let w = worker slot in
          let rec go () =
            let i = Atomic.fetch_and_add next 1 in
            if i < nchunks then begin
              let lo, hi = bounds i in
              partials.(i) <- Some (body w ~lo ~hi);
              go ()
            end
          in
          go ())
    end;
    Array.fold_left
      (fun acc p ->
        match p with Some p -> combine acc p | None -> raise Missing_result)
      init partials
  end

let parallel_for ?domains ?chunk ~n body =
  map_reduce ?domains ?chunk ~n
    ~worker:(fun _ -> ())
    ~body:(fun () ~lo ~hi -> body ~lo ~hi)
    ~combine:(fun () () -> ())
    ()

let map ?domains f inputs =
  let n = Array.length inputs in
  let requested =
    match domains with Some d -> max 1 d | None -> num_domains ()
  in
  let slots = min requested n in
  if slots <= 1 || n <= 1 then Array.map f inputs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Slots claim disjoint [results] entries via the atomic counter. *)
    run_slots ~slots (fun _slot ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let r = try Value (f inputs.(i)) with e -> Error e in
            results.(i) <- Some r;
            go ()
          end
        in
        go ());
    Array.map
      (fun r ->
        match r with
        | Some (Value v) -> v
        | Some (Error e) -> raise e
        | None -> raise Missing_result)
      results
  end
