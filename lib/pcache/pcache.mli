(** Persistent, content-addressed store for compiled query plugins, and
    the plan memo's records of how prepares reached them.

    The in-process plugin cache ([Steno_lru] inside [Steno.Engine]) kills
    repeat compiles within one process; this store kills them across
    processes.  A compiled [.cmxs] is filed under the MD5 of its cache
    key — the optimizer-aware key the engine already uses, which embeds
    the generated source — inside a directory named after a compiler/ABI
    fingerprint, so artifacts from an incompatible toolchain are simply
    never looked at:

    {v
    <dir>/<fingerprint>/<md5 of key>.cmxs   the compiled plugin
    <dir>/<fingerprint>/<md5 of key>.key    the full key, then the record
                                            of the prepare that built it
    <dir>/<fingerprint>/<md5 of name>.rec   a record, looked up by name
    v}

    The [.key] file guards against MD5 collisions and torn writes: a hit
    requires it to start with the probe key byte-for-byte, followed by
    nothing (the format before records) or by one whole {!record}.
    Publication is crash-safe — both files are written to temp names,
    fsync'd and [rename]d into place, cmxs first, key last, so a key
    file's presence implies a complete entry.

    A {!record} names a plugin by the MD5 of its key and carries an
    opaque payload (the engine's plan-memo entry); a lookup by the
    record's [name] skips whatever produced the key.  The first record
    of a plugin is written inside its [.key] and given its [.rec] name
    by a hard link, so publishing one creates no extra file.  A record
    for another name of a stored plugin is a file of its own.  A record
    is checksummed, and decodes to nothing when torn, truncated or
    flipped.  Records are only an optimization: one that cannot be
    written is not, one whose plugin is gone is deleted by the lookup
    that finds it so, and at most [max_entries] are kept.

    Every operation is total: I/O failures and corrupt entries make a
    lookup a miss and a store a no-op, never an exception.  The caller
    must still treat a cached artifact as untrusted — if dynlink rejects
    it, delete it with {!reject} or {!reject_record} and recompile. *)

type t

type stats = {
  st_entries : int;  (** live entries on disk *)
  st_records : int;  (** record files on disk *)
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
    until both hold, and [max_entries] also caps the record files.
    Creation never raises: an unusable directory yields a handle whose
    operations all miss. *)

val find : t -> key:string -> string option
(** [find t ~key] returns the path of the cached [.cmxs] for [key], or
    [None].  A hit verifies the stored key byte-for-byte and freshens
    the artifact's mtime (the eviction clock is LRU-by-mtime). *)

type record = {
  plugin : Digest.t;  (** [Digest.string] of the plugin's key *)
  name : string;  (** what a lookup compares, byte for byte *)
  payload : string;
}

val store : ?record:string * string -> t -> key:string -> cmxs:string -> int
(** [store t ~key ~cmxs] publishes a copy of the file at [cmxs] (and the
    key alongside) into the store, then enforces the caps; returns the
    number of entries evicted doing so.  With [record = (name, payload)]
    the [.key] also holds that record, and a hard link gives it its
    name; when the link fails there is no record.  Failures are silent;
    a racing store of the same key is harmless (last rename wins, both
    files are identical). *)

val find_record :
  t -> name:string -> (string -> 'a option) -> ('a * record * string) option
(** [find_record t ~name decode] returns the decoded payload of the
    record stored under [name], the record, and the path of its plugin's
    [.cmxs], freshening the plugin's mtime as {!find} does, and counts a
    hit.  A missing, torn or foreign record is a miss (so is one whose
    payload [decode] refuses), and so is one whose plugin is gone; all
    but the first are deleted.  A miss counts nothing: the caller goes on
    to prepare in full, and that {!find} counts it. *)

val add_record : t -> record -> unit
(** Write a record for a plugin already in the store, in a file of its
    own.  The handle counts record files (listed at {!create}, then each
    one written); once the count passes [max_entries] the store is
    listed and its records trimmed, in name order, to seven eighths of
    the cap.  Not fsync'd: a torn record is a miss. *)

val reject_record : t -> record -> unit
(** Like {!reject}, for a plugin {!find_record} returned: delete the
    plugin's entry and the record. *)

val encode_record : key:string -> record -> string
(** The bytes of a [.key] file for [key] holding [record] ([key = ""]
    for a [.rec] file of its own). *)

val decode_record : string -> record option
(** The record in a file's bytes, or [None] when they do not hold a
    whole one.  Never raises. *)

val record_path : t -> name:string -> string
(** Where the record for [name] lives. *)

val reject : t -> key:string -> unit
(** Delete the entry for [key], whose artifact the last {!find} returned
    but turned out to be unloadable, and count that lookup as a miss
    rather than a hit. *)

val clear : t -> int
(** Delete every entry and record under the handle's fingerprint;
    returns the number of entries removed. *)

val stats : t -> stats
(** Disk figures are re-scanned on each call; hit/miss/store/eviction
    counters are per-handle and monotonic. *)

val dir : t -> string
(** The fingerprint subdirectory this handle reads and writes. *)

val default_dir : unit -> string
(** [$STENO_PCACHE_DIR] if set, else [$XDG_CACHE_HOME/steno/pcache],
    else [$HOME/.cache/steno/pcache], else [/tmp/steno-pcache]. *)
