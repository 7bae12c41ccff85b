(** Persistent, content-addressed store for compiled query plugins.

    The in-process plugin cache ([Steno_lru] inside [Steno.Engine]) kills
    repeat compiles within one process; this store kills them across
    processes.  A compiled [.cmxs] is filed under the MD5 of its cache
    key — the optimizer-aware key the engine already uses, which embeds
    the generated source — inside a directory named after a compiler/ABI
    fingerprint, so artifacts from an incompatible toolchain are simply
    never looked at:

    {v
    <dir>/<fingerprint>/<md5 of key>.cmxs   the compiled plugin
    <dir>/<fingerprint>/<md5 of key>.key    the full (uncompressed) key
    v}

    The [.key] file guards against MD5 collisions and torn writes: a hit
    requires its content to equal the probe key byte-for-byte.
    Publication is crash-safe — both files are written to temp names and
    [rename]d into place, cmxs first, key last, so a key file's presence
    implies a complete entry.

    Every operation is total: I/O failures and corrupt entries make a
    lookup a miss and a store a no-op, never an exception.  The caller
    must still treat a cached artifact as untrusted — if dynlink rejects
    it, delete it with {!remove} and recompile. *)

type t

type stats = {
  st_entries : int;  (** live entries on disk *)
  st_bytes : int;  (** bytes of cached [.cmxs] artifacts *)
  st_hits : int;  (** lookups served from disk (this handle) *)
  st_misses : int;  (** lookups that found nothing usable (this handle) *)
  st_stores : int;  (** successful publications (this handle) *)
  st_evictions : int;  (** entries evicted by the caps (this handle) *)
}

val create :
  ?max_bytes:int -> ?max_entries:int -> fingerprint:string -> dir:string ->
  unit -> t
(** Open (creating directories as needed) the store rooted at [dir] for
    artifacts produced by the toolchain identified by [fingerprint].
    [max_bytes] (default 256 MiB) and [max_entries] (default 512) cap the
    fingerprint's subdirectory; {!store} evicts oldest-mtime entries
    until both hold.  Creation never raises: an unusable directory
    yields a handle whose operations all miss. *)

val find : t -> key:string -> string option
(** [find t ~key] returns the path of the cached [.cmxs] for [key], or
    [None].  A hit verifies the stored key byte-for-byte and freshens
    the artifact's mtime (the eviction clock is LRU-by-mtime). *)

val store : t -> key:string -> cmxs:string -> int
(** [store t ~key ~cmxs] publishes a copy of the file at [cmxs] (and the
    key alongside) into the store, then enforces the caps; returns the
    number of entries evicted doing so.  Failures are silent; a racing
    store of the same key is harmless (last rename wins, both files are
    identical). *)

val reject : t -> key:string -> unit
(** Delete the entry for [key], whose artifact the last {!find} returned
    but turned out to be unloadable, and count that lookup as a miss
    rather than a hit. *)

val clear : t -> int
(** Delete every entry under the handle's fingerprint; returns the
    number of entries removed. *)

val stats : t -> stats
(** Disk figures are re-scanned on each call; hit/miss/store/eviction
    counters are per-handle and monotonic. *)

val dir : t -> string
(** The fingerprint subdirectory this handle reads and writes. *)

val default_dir : unit -> string
(** [$STENO_PCACHE_DIR] if set, else [$XDG_CACHE_HOME/steno/pcache],
    else [$HOME/.cache/steno/pcache], else [/tmp/steno-pcache]. *)
