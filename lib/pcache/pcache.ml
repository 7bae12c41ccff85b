(* On-disk plugin store.  See pcache.mli for the layout and contracts.

   Everything here is defensive: the cache lives in a world of partial
   writes, concurrent processes, and users running `rm -rf` mid-flight.
   Any syscall failure downgrades the operation (miss / no-op) rather
   than surfacing — the engine always has recompile-from-source as the
   slow path.  Files are read and written through [Unix] descriptors: a
   channel carries a 64 KiB buffer that lives until the GC finalizes
   it. *)

(* What this process knows of one store directory: its entries, by
   hash, with their size and LRU clock, in eviction order, and its record
   files.  Every live handle on the directory shares it ([indexes]), so
   handles in one process see each other's stores and evictions exactly.
   Other processes share the directory too, so it is only a hint: the
   publisher lists it again once per [max_entries / 8] stores, and when
   an eviction finds a victim already gone.  Guarded by [lock]. *)
type entry = { e_bytes : int; e_mtime : float }

module Order = Set.Make (struct
  type t = float * string

  (* mtime is the LRU clock, but its granularity is a whole second on
     some filesystems: entries published within the same second would
     otherwise evict in readdir order, which differs across runs and
     hosts.  The hash tie-break makes the victim deterministic. *)
  let compare (ma, ha) (mb, hb) =
    match Float.compare ma mb with 0 -> String.compare ha hb | c -> c
end)

type index = {
  entries : (string, entry) Hashtbl.t;
  mutable order : Order.t;  (* (mtime, hash) of every entry *)
  mutable bytes : int;
  records : (string, unit) Hashtbl.t;  (* record file names *)
  mutable stored : int;  (* stores since the directory was last listed *)
}

type t = {
  root : string;  (* <dir>/<fingerprint-dir>; "" when unusable *)
  max_bytes : int;
  max_entries : int;
  queue_capacity : int;
  index : index;
  mutable queued : int;  (* this handle's jobs in [jobs]; under [lock] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  evictions : int Atomic.t;
  dropped : int Atomic.t;
}

type stats = {
  st_entries : int;
  st_records : int;
  st_bytes : int;
  st_hits : int;
  st_misses : int;
  st_stores : int;
  st_evictions : int;
  st_dropped : int;
}

(* One lock for the indexes and the publisher's queue.  It is never held
   across a file-system call that can block for long (a write, an
   fsync). *)
let lock = Mutex.create ()

let locked f = Mutex.protect lock f

let ( / ) = Filename.concat

let default_dir () =
  match Sys.getenv_opt "STENO_PCACHE_DIR" with
  | Some d when d <> "" -> d
  | _ ->
    let base =
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> d
      | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> h / ".cache"
        | _ -> "/tmp")
    in
    if base = "/tmp" then base / "steno-pcache" else base / "steno" / "pcache"

let rec mkdir_p d =
  if d = "" || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()
  end

(* The fingerprint names a subdirectory: keep it readable but filesystem
   safe, and append a hash prefix so distinct fingerprints that sanitize
   alike still get distinct directories. *)
let fingerprint_dirname fp =
  let b = Bytes.of_string (if String.length fp > 48 then String.sub fp 0 48 else fp) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let h = Digest.to_hex (Digest.string fp) in
  Bytes.to_string b ^ "-" ^ String.sub h 0 8

let dir t = t.root
let usable t = t.root <> ""

let hash_key key = Digest.to_hex (Digest.string key)
let cmxs_path t h = t.root / (h ^ ".cmxs")
let key_path t h = t.root / (h ^ ".key")
let record_name name = hash_key name ^ ".rec"
let record_path t ~name = t.root / record_name name

let read_file path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          let buf = Bytes.create (Unix.fstat fd).Unix.st_size in
          let rec fill off =
            if off = Bytes.length buf then off
            else
              match Unix.read fd buf off (Bytes.length buf - off) with
              | 0 -> off
              | n -> fill (off + n)
          in
          let n = fill 0 in
          Some
            (if n = Bytes.length buf then Bytes.unsafe_to_string buf
             else Bytes.sub_string buf 0 n)
        with _ -> None)

(* Unique-enough temp suffix without consulting the clock. *)
let tmp_seq = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

let unlink path = try Sys.remove path with _ -> ()

(* Crash-safe publication: write the full content to a temp file in the
   same directory, fsync ([sync]), then rename over the destination. *)
let publish ?(sync = true) ~dst content =
  let tmp = tmp_name dst in
  match
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error _ -> false
  | fd ->
    let written =
      try
        let len = String.length content in
        let rec go off =
          if off < len then
            go (off + Unix.write_substring fd content off (len - off))
        in
        go 0;
        if sync then (try Unix.fsync fd with Unix.Unix_error _ -> ());
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let renamed () =
      try
        Unix.rename tmp dst;
        true
      with Unix.Unix_error _ -> false
    in
    if written && renamed () then true
    else begin
      unlink tmp;
      false
    end

(* {2 Records}

   A record file holds [key | name | payload | plugin | trailer], the
   trailer being the three lengths (u32 little-endian), the MD5 of
   [name | payload | plugin] and [magic].  The checksum covers all a
   lookup by name reads, so a torn or flipped record decodes to nothing;
   [key] is compared byte for byte by {!find} itself. *)

type record = { plugin : Digest.t; name : string; payload : string }

let magic = "STENOREC"
let trailer_len = 12 + 16 + String.length magic

let encode_record ~key r =
  let kl = String.length key
  and nl = String.length r.name
  and pl = String.length r.payload in
  let body = kl + nl + pl + 16 in
  let b = Bytes.create (body + trailer_len) in
  Bytes.blit_string key 0 b 0 kl;
  Bytes.blit_string r.name 0 b kl nl;
  Bytes.blit_string r.payload 0 b (kl + nl) pl;
  Bytes.blit_string r.plugin 0 b (kl + nl + pl) 16;
  Bytes.set_int32_le b body (Int32.of_int kl);
  Bytes.set_int32_le b (body + 4) (Int32.of_int nl);
  Bytes.set_int32_le b (body + 8) (Int32.of_int pl);
  Bytes.blit_string
    (Digest.subbytes b kl (nl + pl + 16))
    0 b (body + 12) 16;
  Bytes.blit_string magic 0 b (body + 28) (String.length magic);
  Bytes.unsafe_to_string b

(* The length of the key a file starts with, and its record; [None] for
   anything that is not a whole record. *)
let split_record s =
  let n = String.length s in
  let body = n - trailer_len in
  let u32 at = Int32.to_int (String.get_int32_le s at) land 0xffff_ffff in
  if body < 16 || not (String.ends_with ~suffix:magic s) then None
  else
    let kl = u32 body and nl = u32 (body + 4) and pl = u32 (body + 8) in
    if kl + nl + pl + 16 <> body then None
    else if
      not
        (String.equal
           (Digest.substring s kl (nl + pl + 16))
           (String.sub s (body + 12) 16))
    then None
    else
      Some
        ( kl,
          {
            name = String.sub s kl nl;
            payload = String.sub s (kl + nl) pl;
            plugin = String.sub s (kl + nl + pl) 16;
          } )

let decode_record s = Option.map snd (split_record s)

(* A [.key] file serves [key]: it is the key itself, or the key followed
   by the record of the prepare that compiled the plugin. *)
let holds_key stored key =
  String.equal stored key
  || String.length stored > String.length key
     && String.starts_with ~prefix:key stored
     && (match split_record stored with
        | Some (kl, _) -> kl = String.length key
        | None -> false)

(* Name a record by a hard link; a stale record in the way goes.  Whether
   the record now has its name. *)
let link_record t ~h ~name =
  let dst = record_path t ~name in
  let link () = Unix.link (key_path t h) dst in
  try
    link ();
    true
  with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> (
    unlink dst;
    try
      link ();
      true
    with Unix.Unix_error _ -> false)
  | Unix.Unix_error _ -> false

(* {2 The index} *)

let drop ix h =
  match Hashtbl.find_opt ix.entries h with
  | Some e ->
    Hashtbl.remove ix.entries h;
    ix.order <- Order.remove (e.e_mtime, h) ix.order;
    ix.bytes <- ix.bytes - e.e_bytes
  | None -> ()

let put ix h e =
  drop ix h;
  Hashtbl.replace ix.entries h e;
  ix.order <- Order.add (e.e_mtime, h) ix.order;
  ix.bytes <- ix.bytes + e.e_bytes

(* A lookup freshened [h]'s artifact, or found it gone.  An entry the
   index does not hold (another process stored it) waits for a listing. *)
let index_touch ix h ~present =
  match Hashtbl.find_opt ix.entries h with
  | Some e when present -> put ix h { e with e_mtime = Unix.gettimeofday () }
  | Some _ -> drop ix h
  | None -> ()

let is_record f = Filename.check_suffix f ".rec"

(* The directory's entries, with each artifact's size and mtime, and its
   record files. *)
let scan root =
  if root = "" then [], []
  else
    try
      Array.fold_left
        (fun (entries, recs) f ->
          if Filename.check_suffix f ".key" then begin
            let h = Filename.chop_suffix f ".key" in
            match Unix.stat (root / (h ^ ".cmxs")) with
            | st ->
              ( (h, { e_bytes = st.Unix.st_size; e_mtime = st.Unix.st_mtime })
                :: entries,
                recs )
            | exception _ ->
              (* Key without artifact: half-deleted entry; drop it. *)
              unlink (root / f);
              entries, recs
          end
          else if is_record f then entries, f :: recs
          else entries, recs)
        ([], []) (Sys.readdir root)
    with _ -> [], []

(* Make the index what a listing begun at [since] found, under [lock].
   Only lookups change the index beside the one thread that lists it: an
   entry a lookup freshened while the listing ran keeps its later mtime,
   and one a lookup dropped comes back if the listing still saw it, to
   go again when eviction finds it gone. *)
let fill ix ~since (entries, recs) =
  let entries =
    List.map
      (fun (h, e) ->
        match Hashtbl.find_opt ix.entries h with
        | Some old when old.e_mtime >= since && old.e_mtime > e.e_mtime ->
          h, { e with e_mtime = old.e_mtime }
        | Some _ | None -> h, e)
      entries
  in
  Hashtbl.reset ix.entries;
  ix.order <- Order.empty;
  ix.bytes <- 0;
  Hashtbl.reset ix.records;
  List.iter (fun (h, e) -> put ix h e) entries;
  List.iter (fun f -> Hashtbl.replace ix.records f ()) recs;
  ix.stored <- 0

(* On the publisher: see [create] for where listings run. *)
let rescan t =
  let since = Unix.gettimeofday () in
  let listing = scan t.root in
  locked (fun () -> fill t.index ~since listing)

(* The [.key] files the publisher renamed into place without an fsync.
   It syncs them one at a time while no job waits, so a store costs the
   queue one fsync, not two.  A [.key] a crash tears before its fsync is
   a miss ({!holds_key}), since its [.cmxs] was synced before the [.key]
   was written.  One deleted meanwhile costs nothing: [sync_key] skips a
   path that is gone.  Under [lock]. *)
let unsynced : (string, unit) Hashtbl.t = Hashtbl.create 64

let sync_key path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* The index of each directory a live handle is open on.  A handle holds
   its index; the table holds it weakly, so an index goes with its last
   handle, and its slot at the next [create]. *)
let indexes : (string, index Weak.t) Hashtbl.t = Hashtbl.create 4

let shared root =
  Option.bind (Hashtbl.find_opt indexes root) (fun w -> Weak.get w 0)

(* Four times the deepest queue a 20 s stenobench cold-prepare run
   reached on a 2-vCPU x86-64 VM (8 jobs), and about 0.56 MB of plugin
   bytes when full. *)
let default_queue_capacity = 32

(* The directory is listed into an index in two places only: here, when
   no live handle holds an index of it, before the new index is shared,
   and on the publisher thread ([evict]), which is the store's only
   writer.  A handle that joins a live index lists nothing. *)
let create ?(max_bytes = 256 * 1024 * 1024) ?(max_entries = 512)
    ?(queue_capacity = default_queue_capacity) ~fingerprint ~dir () =
  let root = dir / fingerprint_dirname fingerprint in
  let root =
    try
      mkdir_p root;
      let st = Unix.stat root in
      if st.Unix.st_kind = Unix.S_DIR then root else ""
    with _ -> ""
  in
  let new_index () =
    {
      entries = Hashtbl.create 64;
      order = Order.empty;
      bytes = 0;
      records = Hashtbl.create 64;
      stored = 0;
    }
  in
  let index =
    if root = "" then new_index ()
    else
      match locked (fun () -> shared root) with
      | Some ix -> ix
      | None ->
        let ix = new_index () in
        fill ix ~since:0.0 (scan root);
        locked (fun () ->
            Hashtbl.filter_map_inplace
              (fun _ w -> if Weak.check w 0 then Some w else None)
              indexes;
            (* Another thread may have shared one meanwhile. *)
            match shared root with
            | Some other -> other
            | None ->
              let w = Weak.create 1 in
              Weak.set w 0 (Some ix);
              Hashtbl.replace indexes root w;
              ix)
  in
  {
    root;
    max_bytes = max 0 max_bytes;
    max_entries = max 0 max_entries;
    queue_capacity = max 0 queue_capacity;
    index;
    queued = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    evictions = Atomic.make 0;
    dropped = Atomic.make 0;
  }

(* {2 Entries and eviction} *)

(* An entry is committed iff its .key file exists; the .cmxs is written
   (and renamed) first, so tearing between the two renames leaves an
   orphan .cmxs that eviction sweeps up. *)
let delete_entry t h =
  unlink (key_path t h);
  unlink (cmxs_path t h)

let forget_record t f = locked (fun () -> Hashtbl.remove t.index.records f)

(* A victim's first record is the hard link its [.key] names, which goes
   with it; later records of the plugin go when a lookup finds the
   plugin gone, or with the count cap.  [false] when the [.key] was
   already gone: another process changed the directory. *)
let delete_victim t h =
  (match Option.bind (read_file (key_path t h)) split_record with
  | Some (_, r) ->
    let f = record_name r.name in
    unlink (t.root / f);
    forget_record t f
  | None -> ());
  let present =
    match Unix.unlink (key_path t h) with
    | () -> true
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
    | exception Unix.Unix_error _ -> true
  in
  unlink (cmxs_path t h);
  present

(* At most [max_entries] record files: over the cap, record files go in
   name order, which is a hash order, so no record is favoured, until
   [keep] are left. *)
let cap_records ?(keep = max_int) t =
  let gone =
    locked (fun () ->
        let recs = t.index.records in
        let n = Hashtbl.length recs in
        if n <= t.max_entries then []
        else begin
          let keep = min keep t.max_entries in
          let gone =
            List.filteri
              (fun i _ -> i < n - keep)
              (List.sort compare (List.of_seq (Hashtbl.to_seq_keys recs)))
          in
          List.iter (Hashtbl.remove recs) gone;
          gone
        end)
  in
  List.iter (fun f -> unlink (t.root / f)) gone

(* The oldest entries, out of the index, until both caps hold. *)
let victims t =
  locked (fun () ->
      let ix = t.index in
      let rec take acc =
        if Hashtbl.length ix.entries > t.max_entries || ix.bytes > t.max_bytes
        then
          match Order.min_elt_opt ix.order with
          | Some (_, h) ->
            drop ix h;
            take (h :: acc)
          | None -> acc
        else acc
      in
      List.rev (take []))

(* After a store: list the directory again once per [max_entries / 8]
   stores (at every store under a cap of 16), evict from the index, and
   list again if a victim was already gone.  Returns the entries
   evicted. *)
let evict t =
  let due =
    locked (fun () ->
        t.index.stored <- t.index.stored + 1;
        t.index.stored >= max 1 Stdlib.(t.max_entries / 8))
  in
  if due then rescan t;
  let rec go evicted ~retry =
    let vs = victims t in
    let present = List.filter (delete_victim t) vs in
    let evicted = evicted + List.length present in
    if retry && List.length present < List.length vs then begin
      rescan t;
      go evicted ~retry:false
    end
    else evicted
  in
  let evicted = go 0 ~retry:true in
  ignore (Atomic.fetch_and_add t.evictions evicted);
  cap_records t;
  evicted

(* {2 Publication}

   The publisher runs these two jobs, the store's only writes; lookups
   freshen and delete, and so does [clear]. *)

(* The [.key]'s fsync waits for the publisher's idle time ([unsynced]). *)
let store_bytes ?record t ~key bytes =
  let plugin = Digest.string key in
  let h = Digest.to_hex plugin in
  if publish ~dst:(cmxs_path t h) bytes then begin
    let content =
      match record with
      | None -> key
      | Some (name, payload) -> encode_record ~key { plugin; name; payload }
    in
    if publish ~sync:false ~dst:(key_path t h) content then begin
      let named =
        match record with
        | Some (name, _) when link_record t ~h ~name -> Some (record_name name)
        | Some _ | None -> None
      in
      locked (fun () ->
          Hashtbl.replace unsynced (key_path t h) ();
          put t.index h { e_bytes = String.length bytes; e_mtime = Unix.gettimeofday () };
          Option.iter (fun f -> Hashtbl.replace t.index.records f ()) named);
      Atomic.incr t.stores;
      evict t
    end
    else begin
      unlink (cmxs_path t h);
      0
    end
  end
  else 0

(* A record for a plugin already in the store, in a file of its own. *)
let add_record t r =
  (* Only an optimization: no fsync, and a torn file decodes to a
     miss. *)
  let f = record_name r.name in
  if publish ~sync:false ~dst:(t.root / f) (encode_record ~key:"" r) then
    (* Past the cap the records are trimmed to seven eighths of it, so
       they are sorted once per [max_entries / 8] new records, not
       once per record. *)
    if
      locked (fun () ->
          Hashtbl.replace t.index.records f ();
          Hashtbl.length t.index.records > t.max_entries)
    then cap_records ~keep:Stdlib.(t.max_entries - (t.max_entries / 8)) t

(* {2 The publisher}

   [submit] queues a publication and returns; one thread per process
   runs the queue in order, each job a [store_bytes] or an [add_record],
   and syncs the stores' [.key]s once no job waits ([unsynced]).  The submit that finds no thread running starts one,
   and the thread ends when the queue is empty and every [.key] is
   synced: [Domain.join] waits for every thread its domain started, so
   a thread that waited for work for good would hang the join of a
   worker domain that submitted.
   The paths a queued job writes are [pending]; a lookup of one waits
   for its job, so a lookup in this process never misses a store this
   process queued. *)

type job = { j_handle : t; j_paths : string list; j_run : unit -> unit }

let jobs : job Queue.t = Queue.create ()
let pending : (string, int) Hashtbl.t = Hashtbl.create 16
let running = ref false
let changed = Condition.create ()  (* a job ended, or the queue emptied *)
let exit_hook = Atomic.make false

let rec drain () =
  Mutex.lock lock;
  match Queue.take_opt jobs with
  | None -> (
    match Seq.uncons (Hashtbl.to_seq_keys unsynced) with
    | Some (path, _) ->
      Hashtbl.remove unsynced path;
      Mutex.unlock lock;
      sync_key path;
      drain ()
    | None ->
      running := false;
      Condition.broadcast changed;
      Mutex.unlock lock)
  | Some j ->
    Mutex.unlock lock;
    (try j.j_run () with _ -> ());
    locked (fun () ->
        j.j_handle.queued <- j.j_handle.queued - 1;
        List.iter
          (fun p ->
            match Hashtbl.find_opt pending p with
            | Some n when n > 1 -> Hashtbl.replace pending p (n - 1)
            | Some _ | None -> Hashtbl.remove pending p)
          j.j_paths;
        Condition.broadcast changed);
    drain ()

let flush () =
  locked (fun () -> while !running do Condition.wait changed lock done)

let await path =
  locked (fun () ->
      while Hashtbl.mem pending path do
        Condition.wait changed lock
      done)

let enqueue t ~paths run =
  let queued, start =
    locked (fun () ->
        if t.queued >= t.queue_capacity then false, false
        else begin
          t.queued <- t.queued + 1;
          Queue.push { j_handle = t; j_paths = paths; j_run = run } jobs;
          List.iter
            (fun p ->
              Hashtbl.replace pending p
                (1 + Option.value ~default:0 (Hashtbl.find_opt pending p)))
            paths;
          let start = not !running in
          running := true;
          true, start
        end)
  in
  if start then begin
    if not (Atomic.exchange exit_hook true) then at_exit flush;
    match Thread.create drain () with
    | (_ : Thread.t) -> ()
    | exception _ -> drain ()
  end;
  if not queued then Atomic.incr t.dropped;
  queued

let submit ?record ?(evicted = ignore) t ~key ~cmxs =
  if not (usable t) then true
  else
    match read_file cmxs with
    | None -> true
    | Some bytes ->
      let paths =
        key_path t (hash_key key)
        :: Option.fold ~none:[] ~some:(fun (name, _) -> [ record_path t ~name ]) record
      in
      enqueue t ~paths (fun () ->
          let n = store_bytes ?record t ~key bytes in
          if n > 0 then evicted n)

let submit_record t r =
  (not (usable t))
  || enqueue t ~paths:[ record_path t ~name:r.name ] (fun () -> add_record t r)

(* {2 Lookups} *)

(* Freshen a plugin's LRU clock (utimes with 0.0 0.0 means "now"), and
   say whether it is still there: eviction reads only the artifact's
   mtime, and [ENOENT] here is the existence check. *)
let freshen t h =
  let present =
    match Unix.utimes (cmxs_path t h) 0.0 0.0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
    | exception Unix.Unix_error _ -> true
  in
  locked (fun () -> index_touch t.index h ~present);
  present

let find t ~key =
  if not (usable t) then None
  else begin
    let h = hash_key key in
    await (key_path t h);
    let hit =
      match read_file (key_path t h) with
      | Some stored when holds_key stored key ->
        if freshen t h then Some (cmxs_path t h) else None
      | Some _ | None -> None
    in
    (match hit with
    | Some _ -> Atomic.incr t.hits
    | None -> Atomic.incr t.misses);
    hit
  end

let find_record t ~name decode =
  if not (usable t) then None
  else begin
    let path = record_path t ~name in
    await path;
    match read_file path with
    | None -> None
    | Some stored ->
      let hit =
        match decode_record stored with
        | Some r when String.equal r.name name -> (
          match decode r.payload with
          | Some v ->
            let h = Digest.to_hex r.plugin in
            if freshen t h then Some (v, r, cmxs_path t h) else None
          | None -> None)
        | Some _ | None -> None
      in
      (match hit with
      | Some _ -> Atomic.incr t.hits
      | None ->
        unlink path;
        forget_record t (record_name name));
      hit
  end

let reject t ~key =
  if usable t then begin
    let h = hash_key key in
    delete_entry t h;
    locked (fun () -> drop t.index h);
    Atomic.decr t.hits;
    Atomic.incr t.misses
  end

let reject_record t r =
  if usable t then begin
    let h = Digest.to_hex r.plugin in
    delete_entry t h;
    locked (fun () -> drop t.index h);
    let f = record_name r.name in
    unlink (t.root / f);
    forget_record t f;
    Atomic.decr t.hits;
    Atomic.incr t.misses
  end

(* Deletes what the directory holds and empties the index; it lists
   nothing into the index. *)
let clear t =
  flush ();
  locked (fun () ->
      fill t.index ~since:0.0 ([], []);
      Array.fold_left
        (fun n f ->
          let gone () = unlink (t.root / f) in
          if Filename.check_suffix f ".key" then (gone (); n + 1)
          else if is_record f || Filename.check_suffix f ".cmxs" then (gone (); n)
          else n)
        0
        (try Sys.readdir t.root with Sys_error _ -> [||]))

let stats t =
  flush ();
  locked (fun () ->
      {
        st_entries = Hashtbl.length t.index.entries;
        st_records = Hashtbl.length t.index.records;
        st_bytes = t.index.bytes;
        st_hits = Atomic.get t.hits;
        st_misses = Atomic.get t.misses;
        st_stores = Atomic.get t.stores;
        st_evictions = Atomic.get t.evictions;
        st_dropped = Atomic.get t.dropped;
      })
