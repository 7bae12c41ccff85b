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

    The store is written off the caller's path, by one writer:
    {!submit} and {!submit_record} queue a publication and return, and
    one background thread per process publishes the queue in order.
    Publication is crash-safe: the [.cmxs] is written to a temp name,
    fsync'd and [rename]d into place, then the [.key] the same way, so a
    key file's presence implies a complete entry.  The thread fsyncs
    each [.key] once no publication waits; a [.key] a crash tears before
    its fsync is a miss.  A submitted plugin is durable after {!flush}
    or process exit (an [at_exit] hook flushes), not when [submit]
    returns.  A lookup in this process waits for a queued publication of
    what it looks up, so it never misses one.

    Each handle on a directory shares one in-memory index of it with
    every other live handle on it in the process: entries with their size
    and mtime, and the record files.  The index goes with the last handle
    that holds it.  Eviction takes its victims from the index, so a store
    costs what it evicts, not a listing.  Other processes share the
    directory, so the index is only a hint.  It is listed in two places:
    by the {!create} that makes it, before any other handle sees it, and
    by the publisher, once per [max_entries / 8] stores and whenever a
    victim turns out to be gone already.  A lookup may freshen an entry
    while the publisher lists: the entry keeps the later mtime.

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
  st_dropped : int;
      (** submissions dropped because the queue was full (this handle) *)
}

val create :
  ?max_bytes:int ->
  ?max_entries:int ->
  ?queue_capacity:int ->
  fingerprint:string ->
  dir:string ->
  unit ->
  t
(** Open (creating directories as needed) the store rooted at [dir] for
    artifacts produced by the toolchain identified by [fingerprint].
    The handle joins the index another live handle holds on the same
    directory; when there is none, the directory is listed into a new
    one.  [max_bytes] (default 256 MiB) and
    [max_entries] (default 512) cap the fingerprint's subdirectory; a
    store evicts oldest-mtime entries until both hold, and [max_entries]
    also caps the record files.  At most [queue_capacity] (default 32)
    of this handle's submissions wait for the publisher; one past that
    is dropped.  Creation never raises: an unusable directory yields a
    handle whose operations all miss. *)

val find : t -> key:string -> string option
(** [find t ~key] returns the path of the cached [.cmxs] for [key], or
    [None].  A hit verifies the stored key byte-for-byte and freshens
    the artifact's mtime (the eviction clock is LRU-by-mtime).  A
    submission of [key] still queued in this process is waited for
    first. *)

type record = {
  plugin : Digest.t;  (** [Digest.string] of the plugin's key *)
  name : string;  (** what a lookup compares, byte for byte *)
  payload : string;
}

val submit :
  ?record:string * string ->
  ?evicted:(int -> unit) ->
  t ->
  key:string ->
  cmxs:string ->
  bool
(** [submit t ~key ~cmxs] reads the file at [cmxs] now and queues the
    publication of a copy of it, with [key] alongside; the caller may
    delete the file as soon as this returns.  The publisher then
    enforces the caps.  [evicted n] runs on the publisher's thread when
    the store evicted [n > 0] entries.  With [record = (name, payload)]
    the [.key] also holds that record, and a hard link gives it its
    name; when the link fails there is no record.  Failures are silent;
    a racing store of the same key from another process is harmless
    (last rename wins, both files are identical).  [false] when the
    handle's queue was full: the store is dropped and counted in
    {!stats}' [st_dropped]. *)

val submit_record : t -> record -> bool
(** Queue a record for a plugin already in the store, in a file of its
    own, as {!submit} queues a store.  Once the index holds more than
    [max_entries] record files they are trimmed, in name order, to seven
    eighths of the cap.  Not fsync'd: a torn record is a miss. *)

val flush : unit -> unit
(** Wait until every publication this process queued has run and every
    [.key] it wrote is fsync'd. *)

val find_record :
  t -> name:string -> (string -> 'a option) -> ('a * record * string) option
(** [find_record t ~name decode] returns the decoded payload of the
    record stored under [name], the record, and the path of its plugin's
    [.cmxs], freshening the plugin's mtime as {!find} does, and counts a
    hit.  A missing, torn or foreign record is a miss (so is one whose
    payload [decode] refuses), and so is one whose plugin is gone; all
    but the first are deleted.  A miss counts nothing: the caller goes on
    to prepare in full, and that {!find} counts it.  A queued submission
    of a record under [name] is waited for first. *)

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
(** {!flush}, then delete every entry and record under the handle's
    fingerprint and empty the index; returns the number of entries
    removed. *)

val stats : t -> stats
(** {!flush}, then the disk figures as the index holds them; the
    hit/miss/store/eviction/drop counters are per-handle and
    monotonic. *)

val dir : t -> string
(** The fingerprint subdirectory this handle reads and writes. *)

val default_dir : unit -> string
(** [$STENO_PCACHE_DIR] if set, else [$XDG_CACHE_HOME/steno/pcache],
    else [$HOME/.cache/steno/pcache], else [/tmp/steno-pcache]. *)
