(* An empty GNRFET_DOMAINS counts as unset: OCaml's Unix has no
   unsetenv, so restoring an unset variable leaves it empty. *)
let num_domains () =
  match Option.map String.trim (Sys.getenv_opt "GNRFET_DOMAINS") with
  | None | Some "" -> max 1 (Domain.recommended_domain_count ())
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)

type 'b outcome = Value of 'b | Error of exn

exception Missing_result

(* ------------------------------------------------------------------ *)
(* Scoped domain pool.                                                *)
(*                                                                    *)
(* Workers are spawned lazily (up to the largest parallelism a run    *)
(* has asked for) and fed through a single task queue, so the         *)
(* thousands of map_reduce calls an SCF sweep makes do not pay a      *)
(* Domain.spawn/join round-trip each.  They live only as long as the  *)
(* outermost scope: when the last open scope closes they are told to  *)
(* stop and are joined, so no idle domain is left to join every       *)
(* stop-the-world collection of the code that runs next.  A caller    *)
(* waiting for its run to finish helps by executing queued tasks      *)
(* (possibly its own), so a nested run started from inside a pool     *)
(* worker can never deadlock.                                         *)
(* ------------------------------------------------------------------ *)

(* Minor heap, in words, of every domain that takes part in a pool run
   (the runtime's default is 256k).  Each domain's minor heap is its
   own, so a second 256k-word domain costs peak RSS that the benchmark's
   bound does not allow; 32k words was slower and saved no memory
   (docs/PERF.md). *)
let minor_heap_words = 65_536

(* [Gc.set] resizes the calling domain's minor heap only. *)
let use_small_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size > minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }

type pool = {
  mutex : Mutex.t;
  wake : Condition.t;  (** signals "task queued", "slot finished" and "retire" *)
  tasks : (unit -> unit) Queue.t;
  mutable depth : int;  (** open scopes, runs included *)
  mutable generation : int;  (** bumped at retire: older workers stop *)
  mutable handles : unit Domain.t list;  (** the current generation's workers *)
  mutable live : int;  (** workers spawned and not yet joined, any generation *)
}

let pool =
  {
    mutex = Mutex.create ();
    wake = Condition.create ();
    tasks = Queue.create ();
    depth = 0;
    generation = 0;
    handles = [];
    live = 0;
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
   catch-all of its own.  A worker of a retired generation exits without
   taking another task: a retire happens only with no run open, so the
   queue then holds nothing of its generation. *)
let rec worker_loop generation tasks_done =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.tasks && pool.generation = generation do
    Condition.wait pool.wake pool.mutex
  done;
  if pool.generation <> generation then begin
    Mutex.unlock pool.mutex;
    (* The runtime keeps a joined domain's minor heap committed: shrink
       it to the runtime's minimum (4096 words) on the way out. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4096 }
  end
  else begin
    let task = Queue.pop pool.tasks in
    Mutex.unlock pool.mutex;
    task ();
    Obs.Counter.incr tasks_done;
    Obs.Counter.incr obs_pool_tasks;
    worker_loop generation tasks_done
  end

(* Close one scope, or at exit every open one ([~all:true]).  When none
   is left open, the current generation's workers are told to stop and
   are joined outside the mutex, so a scope that opens meanwhile spawns
   a generation of its own.  Every task a pool worker runs belongs to a
   run, and a run is a scope that stays open until all its tasks are
   done, so the last scope closes only on a caller outside the pool: a
   worker never joins itself. *)
let close_scope ~all =
  let retired =
    Mutex.protect pool.mutex (fun () ->
        pool.depth <- (if all then 0 else pool.depth - 1);
        if pool.depth > 0 then []
        else begin
          let handles = pool.handles in
          pool.generation <- pool.generation + 1;
          pool.handles <- [];
          Condition.broadcast pool.wake;
          handles
        end)
  in
  if retired <> [] then begin
    List.iter Domain.join retired;
    Mutex.protect pool.mutex (fun () -> pool.live <- pool.live - List.length retired)
  end

(* The net for an [exit] taken inside a scope. *)
let () = at_exit (fun () -> close_scope ~all:true)

let live_domains () = Mutex.protect pool.mutex (fun () -> pool.live)

let scoped body =
  Mutex.protect pool.mutex (fun () -> pool.depth <- pool.depth + 1);
  Fun.protect body ~finally:(fun () -> close_scope ~all:false)

(* Workers communicate only through the mutex-protected queue; submitted
   tasks own disjoint result slots.  gnrlint: allow-shared *)
let spawn_worker generation idx =
  let tasks_done = Obs.Counter.make (Printf.sprintf "parallel.worker.%d.tasks" idx) in
  Domain.spawn (fun () ->
      use_small_minor_heap ();
      worker_loop generation tasks_done)

let ensure_workers n =
  Mutex.lock pool.mutex;
  let spawned = List.length pool.handles in
  for idx = spawned to n - 1 do
    pool.handles <- spawn_worker pool.generation idx :: pool.handles;
    pool.live <- pool.live + 1
  done;
  Mutex.unlock pool.mutex

(* Run [job 0 .. job (slots-1)], slot 0 on the calling domain, the rest
   through the pool, inside a scope of its own.  Exceptions raised by
   jobs are collected and the first one is re-raised after every slot
   has finished. *)
let run_slots ~slots job =
  if slots <= 1 then job 0
  else
    scoped @@ fun () ->
    use_small_minor_heap ();
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

let map_reduce ?(chunk = default_chunk) ~n ~worker ~body ~combine init =
  if n <= 0 then init
  else begin
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let slots = min (num_domains ()) nchunks in
    let first slot = slot * nchunks / slots in
    let partials = Array.make nchunks None in
    let acc = ref init in
    (* Slot [s] runs the contiguous chunks [s·c/w, (s+1)·c/w) in
       ascending order, so which chunks one worker's scratch sees in a
       row depends on the width alone, never on the schedule.  Slot 0's
       run is the prefix of the fold, so it folds each partial as it
       comes; the other slots write disjoint [partials] entries. *)
    run_slots ~slots (fun slot ->
        let w = worker slot in
        for i = first slot to first (slot + 1) - 1 do
          let lo = i * chunk in
          let p = body w ~lo ~hi:(min n (lo + chunk)) in
          if slot = 0 then acc := combine !acc p else partials.(i) <- Some p
        done);
    for i = first 1 to nchunks - 1 do
      match partials.(i) with
      | Some p -> acc := combine !acc p
      | None -> raise Missing_result
    done;
    !acc
  end

let map f inputs =
  let n = Array.length inputs in
  let slots = min (num_domains ()) n in
  if slots <= 1 then Array.map f inputs
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
