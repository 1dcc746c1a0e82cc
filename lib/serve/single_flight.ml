type 'a entry = {
  mutable result : ('a, exn) result option;  (* None while in flight *)
  done_ : Condition.t;
}

type 'a t = {
  capacity : int;
  mu : Mutex.t;
  inflight : (string, 'a entry) Hashtbl.t;
}

type 'a outcome = { value : 'a; coalesced : bool }

exception Full

let create ~capacity =
  if capacity < 0 then invalid_arg "Single_flight.create: negative capacity";
  { capacity; mu = Mutex.create (); inflight = Hashtbl.create 16 }

let in_flight t = Mutex.protect t.mu (fun () -> Hashtbl.length t.inflight)

let run t key f =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.inflight key with
  | Some entry ->
    (* Follower: wait for the leader to publish, then share its fate.
       The entry stays valid after the leader removes the key — we hold
       a direct reference. *)
    let rec await () =
      match entry.result with
      | Some r -> r
      | None ->
        Condition.wait entry.done_ t.mu;
        await ()
    in
    let r = await () in
    Mutex.unlock t.mu;
    (match r with
    | Ok value -> { value; coalesced = true }
    | Error e -> raise e)
  | None when Hashtbl.length t.inflight >= t.capacity ->
    Mutex.unlock t.mu;
    raise Full
  | None ->
    (* Leader: publish the entry, compute outside the lock, then
       broadcast.  The key is removed before waking followers so the
       next request after completion starts fresh. *)
    let entry = { result = None; done_ = Condition.create () } in
    Hashtbl.replace t.inflight key entry;
    Mutex.unlock t.mu;
    let r = match f () with v -> Ok v | exception e -> Error e in
    Mutex.lock t.mu;
    entry.result <- Some r;
    Hashtbl.remove t.inflight key;
    Condition.broadcast entry.done_;
    Mutex.unlock t.mu;
    (match r with
    | Ok value -> { value; coalesced = false }
    | Error e -> raise e)
