(* Intrusive doubly-linked recency list: [first] is most recent, [last]
   least.  Nodes are never shared between caches. *)
type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* toward most recent *)
  mutable next : 'a node option;  (* toward least recent *)
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable first : 'a node option;
  mutable last : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { cap = capacity; table = Hashtbl.create (max 8 capacity); first = None; last = None }

let capacity t = t.cap

let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  node.prev <- None;
  (match t.first with Some f -> f.prev <- Some node | None -> t.last <- Some node);
  t.first <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let add t key value =
  if t.cap = 0 then None
  else
    match Hashtbl.find_opt t.table key with
    | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node;
      None
    | None ->
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node;
      if Hashtbl.length t.table <= t.cap then None
      else begin
        match t.last with
        | Some victim ->
          unlink t victim;
          Hashtbl.remove t.table victim.key;
          Some victim.key
        | None -> None (* cap >= 1 and length >= 2: unreachable *)
      end
