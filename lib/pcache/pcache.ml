(* On-disk plugin store.  See pcache.mli for the layout and contracts.

   Everything here is defensive: the cache lives in a world of partial
   writes, concurrent processes, and users running `rm -rf` mid-flight.
   Any syscall failure downgrades the operation (miss / no-op) rather
   than surfacing — the engine always has recompile-from-source as the
   slow path.  Files are read and written through [Unix] descriptors: a
   channel carries a 64 KiB buffer that lives until the GC finalizes
   it. *)

type t = {
  root : string;  (* <dir>/<fingerprint-dir>; "" when unusable *)
  max_bytes : int;
  max_entries : int;
  records : int Atomic.t;
      (* record files: the count at the last listing, plus those written
         since; the directory is listed again only when it passes
         [max_entries] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  evictions : int Atomic.t;
}

type stats = {
  st_entries : int;
  st_records : int;
  st_bytes : int;
  st_hits : int;
  st_misses : int;
  st_stores : int;
  st_evictions : int;
}

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

let create ?(max_bytes = 256 * 1024 * 1024) ?(max_entries = 512) ~fingerprint
    ~dir () =
  let root = dir / fingerprint_dirname fingerprint in
  let root =
    try
      mkdir_p root;
      let st = Unix.stat root in
      if st.Unix.st_kind = Unix.S_DIR then root else ""
    with _ -> ""
  in
  let records =
    if root = "" then 0
    else
      try
        Array.fold_left
          (fun n f -> if Filename.check_suffix f ".rec" then n + 1 else n)
          0 (Sys.readdir root)
      with Sys_error _ -> 0
  in
  {
    root;
    max_bytes = max 0 max_bytes;
    max_entries = max 0 max_entries;
    records = Atomic.make records;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let dir t = t.root
let usable t = t.root <> ""

let hash_key key = Digest.to_hex (Digest.string key)
let cmxs_path t h = t.root / (h ^ ".cmxs")
let key_path t h = t.root / (h ^ ".key")
let record_path t ~name = t.root / (hash_key name ^ ".rec")

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

(* Name a record by a hard link; a stale record in the way goes. *)
let link_record t ~h ~name =
  let dst = record_path t ~name in
  let link () = Unix.link (key_path t h) dst in
  try link ()
  with Unix.Unix_error (Unix.EEXIST, _, _) -> (
    unlink dst;
    try link () with Unix.Unix_error _ -> ())
  | Unix.Unix_error _ -> ()

(* {2 Entries and eviction} *)

(* An entry is committed iff its .key file exists; the .cmxs is written
   (and renamed) first, so tearing between the two renames leaves an
   orphan .cmxs that eviction sweeps up. *)
let delete_entry t h =
  unlink (key_path t h);
  unlink (cmxs_path t h)

type entry = { e_hash : string; e_bytes : int; e_mtime : float }

let is_record f = Filename.check_suffix f ".rec"

(* The entries, and the names of the record files. *)
let scan t =
  if not (usable t) then [], []
  else
    try
      Array.fold_left
        (fun (entries, recs) f ->
          if Filename.check_suffix f ".key" then begin
            let h = Filename.chop_suffix f ".key" in
            match Unix.stat (cmxs_path t h) with
            | st ->
              let e =
                {
                  e_hash = h;
                  e_bytes = st.Unix.st_size;
                  e_mtime = st.Unix.st_mtime;
                }
              in
              e :: entries, recs
            | exception _ ->
              (* Key without artifact: half-deleted entry; drop it. *)
              unlink (t.root / f);
              entries, recs
          end
          else if is_record f then entries, f :: recs
          else entries, recs)
        ([], []) (Sys.readdir t.root)
    with _ -> [], []

(* A victim's first record is the hard link its [.key] names, which goes
   with it; later records of the plugin go when a lookup finds the
   plugin gone, or with the count cap.  Returns the record's file name. *)
let delete_victim t h =
  let record =
    match Option.bind (read_file (key_path t h)) split_record with
    | Some (_, r) ->
      let path = record_path t ~name:r.name in
      unlink path;
      Some (Filename.basename path)
    | None -> None
  in
  delete_entry t h;
  record

(* At most [max_entries] record files: over the cap, record files go in
   name order, which is a hash order, so no record is favoured, until
   [keep] are left.  Sets the handle's count to what is left. *)
let cap_records ?(keep = max_int) t recs =
  let n = List.length recs in
  let keep = min keep t.max_entries in
  if n > t.max_entries then begin
    List.iteri
      (fun i f -> if i < n - keep then unlink (t.root / f))
      (List.sort compare recs);
    Atomic.set t.records keep
  end
  else Atomic.set t.records n

let evict t =
  (* mtime is the LRU clock, but its granularity is a whole second on
     some filesystems: entries published within the same second would
     otherwise evict in readdir order, which differs across runs and
     hosts.  The hash tie-break makes the victim deterministic. *)
  let entries, recs = scan t in
  let entries =
    List.sort
      (fun a b ->
        match compare a.e_mtime b.e_mtime with
        | 0 -> compare a.e_hash b.e_hash
        | c -> c)
      entries
  in
  let count = List.length entries in
  let bytes = List.fold_left (fun acc e -> acc + e.e_bytes) 0 entries in
  let rec drop entries count bytes dropped gone =
    match entries with
    | e :: rest when count > t.max_entries || bytes > t.max_bytes ->
      let gone =
        match delete_victim t e.e_hash with Some f -> f :: gone | None -> gone
      in
      Atomic.incr t.evictions;
      drop rest (count - 1) (bytes - e.e_bytes) (dropped + 1) gone
    | _ -> dropped, gone
  in
  let dropped, gone = drop entries count bytes 0 [] in
  cap_records t (List.filter (fun f -> not (List.mem f gone)) recs);
  dropped

(* {2 Operations} *)

(* Freshen a plugin's LRU clock (utimes with 0.0 0.0 means "now"), and
   say whether it is still there: eviction reads only the artifact's
   mtime, and [ENOENT] here is the existence check. *)
let freshen cmxs =
  match Unix.utimes cmxs 0.0 0.0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  | exception Unix.Unix_error _ -> true

let find t ~key =
  if not (usable t) then None
  else begin
    let h = hash_key key in
    let hit =
      match read_file (key_path t h) with
      | Some stored when holds_key stored key ->
        let cmxs = cmxs_path t h in
        if freshen cmxs then Some cmxs else None
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
    match read_file path with
    | None -> None
    | Some stored ->
      let hit =
        match decode_record stored with
        | Some r when String.equal r.name name -> (
          match decode r.payload with
          | Some v ->
            let cmxs = cmxs_path t (Digest.to_hex r.plugin) in
            if freshen cmxs then Some (v, r, cmxs) else None
          | None -> None)
        | Some _ | None -> None
      in
      (match hit with Some _ -> Atomic.incr t.hits | None -> unlink path);
      hit
  end

let store ?record t ~key ~cmxs =
  if not (usable t) then 0
  else begin
    let plugin = Digest.string key in
    let h = Digest.to_hex plugin in
    match read_file cmxs with
    | None -> 0
    | Some bytes ->
      if publish ~dst:(cmxs_path t h) bytes then begin
        let content =
          match record with
          | None -> key
          | Some (name, payload) -> encode_record ~key { plugin; name; payload }
        in
        if publish ~dst:(key_path t h) content then begin
          Option.iter
            (fun (name, _) ->
              link_record t ~h ~name;
              Atomic.incr t.records)
            record;
          Atomic.incr t.stores;
          evict t
        end
        else begin
          unlink (cmxs_path t h);
          0
        end
      end
      else 0
  end

let add_record t r =
  if usable t then begin
    (* Only an optimization: no fsync, and a torn file decodes to a
       miss. *)
    ignore
      (publish ~sync:false ~dst:(record_path t ~name:r.name)
         (encode_record ~key:"" r));
    (* The directory is listed only past the cap, which then trims the
       records to seven eighths of it: a handle writing records lists
       it once per [max_entries / 8] new records, not once per record. *)
    if Atomic.fetch_and_add t.records 1 >= t.max_entries then
      match Sys.readdir t.root with
      | names ->
        cap_records ~keep:(t.max_entries - Stdlib.(t.max_entries / 8)) t
          (List.filter is_record (Array.to_list names))
      | exception Sys_error _ -> ()
  end

let reject t ~key =
  if usable t then begin
    delete_entry t (hash_key key);
    Atomic.decr t.hits;
    Atomic.incr t.misses
  end

let reject_record t r =
  if usable t then begin
    delete_entry t (Digest.to_hex r.plugin);
    unlink (record_path t ~name:r.name);
    Atomic.decr t.hits;
    Atomic.incr t.misses
  end

let clear t =
  let entries, recs = scan t in
  List.iter (fun e -> delete_entry t e.e_hash) entries;
  List.iter (fun f -> unlink (t.root / f)) recs;
  List.length entries

let stats t =
  let entries, recs = scan t in
  {
    st_entries = List.length entries;
    st_records = List.length recs;
    st_bytes = List.fold_left (fun acc e -> acc + e.e_bytes) 0 entries;
    st_hits = Atomic.get t.hits;
    st_misses = Atomic.get t.misses;
    st_stores = Atomic.get t.stores;
    st_evictions = Atomic.get t.evictions;
  }
