(** Fixed-capacity LRU map (string keys), the in-memory serving layer
    the daemon puts in front of {!Table_cache}.

    O(1) find/add via a hash table over an intrusive doubly-linked
    recency list.  {b Not thread-safe} — the server serializes access
    under its own mutex (docs/SERVE.md). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity <= 0] degenerates to a cache that stores nothing (every
    [find] misses); negative capacities raise [Invalid_argument]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Hit refreshes the entry's recency. *)

val add : 'a t -> string -> 'a -> string option
(** Insert or replace (either way the entry becomes most recent).
    Returns the key evicted to make room, if any. *)
