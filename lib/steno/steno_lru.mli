(** A small bounded LRU cache with hit/miss/eviction accounting — the
    per-engine plugin cache behind [Steno.Engine] (the paper's section
    7.1 query cache, made bounded and observable).

    Thread-safe: the cache is split into independent {e shards}, each
    guarded by its own mutex, and a key's shard is chosen by hashing the
    key — so concurrent domains operating on distinct keys contend only
    when the keys collide on a shard.  With the default [shards = 1] the
    cache is a single exact LRU; with more shards, recency and eviction
    are exact {e within} a shard (capacity is divided across shards), an
    approximation that trades global recency order for lock sharding.

    Recency is exact LRU per shard ({!find} promotes); entries live on
    an intrusive doubly-linked recency list, so find, add and eviction
    are all O(1).  Evicted values are handed to the [on_evict] callback
    rather than dropped on the floor, so cached resources (e.g. Native
    plugin handles) can be released or accounted. *)

type ('k, 'v) t

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

val create :
  ?on_evict:('k -> 'v -> unit) ->
  ?shards:int ->
  capacity:int ->
  unit ->
  ('k, 'v) t
(** [capacity <= 0] disables the cache: every {!find} misses and {!add}
    passes the value straight to [on_evict] (if any) without storing it.

    [shards] (default [1]) splits the cache into that many independently
    locked sub-caches; it is clamped to [capacity] so no shard ever has
    zero capacity.  Use more shards for caches hammered by concurrent
    domains; keep [1] where exact global LRU order matters.

    [on_evict] fires for every value leaving the cache: LRU eviction on
    a full {!add}, replacement of an existing key's value, {!clear}
    (LRU-to-MRU order), and the disabled-cache case above.  It is always
    invoked outside the cache lock, on the thread that triggered the
    removal, so it may call back into the cache; it must not assume the
    key is absent by the time it runs. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used and counts a hit; counts a
    miss on [None]. *)

val probe : ('k, 'v) t -> 'k -> 'v option
(** Like {!find}, but a missing key counts nothing: for a caller that
    goes on to {!find} the same key when the probe fails, so one lookup
    counts one miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> bool
(** Insert as most-recently-used, evicting the least-recently-used entry
    if the cache is full; returns [true] when an entry was evicted
    (replacing an existing key's value promotes it and does not count as
    an eviction, though the old value is still passed to [on_evict]). *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency or counters. *)

val length : ('k, 'v) t -> int

val stats : ('k, 'v) t -> stats

val clear : ('k, 'v) t -> unit
(** Drop all entries (each reaches [on_evict]).  Counters are cumulative
    and survive a clear. *)
