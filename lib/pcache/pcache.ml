(* On-disk plugin store.  See pcache.mli for the layout and contracts.

   Everything here is defensive: the cache lives in a world of partial
   writes, concurrent processes, and users running `rm -rf` mid-flight.
   Any syscall failure downgrades the operation (miss / no-op) rather
   than surfacing — the engine always has recompile-from-source as the
   slow path. *)

type t = {
  root : string;  (* <dir>/<fingerprint-dir>; "" when unusable *)
  max_bytes : int;
  max_entries : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  evictions : int Atomic.t;
}

type stats = {
  st_entries : int;
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
  {
    root;
    max_bytes = max 0 max_bytes;
    max_entries = max 0 max_entries;
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

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with _ -> None

(* Unique-enough temp suffix without consulting the clock. *)
let tmp_seq = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

(* Crash-safe publication: write the full content to a temp file in the
   same directory, fsync, then rename over the destination. *)
let publish ~dst content =
  let tmp = tmp_name dst in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc content;
       flush oc;
       (try Unix.fsync (Unix.descr_of_out_channel oc) with _ -> ());
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Unix.rename tmp dst;
    true
  with _ ->
    (try Sys.remove tmp with _ -> ());
    false

let unlink path = try Sys.remove path with _ -> ()

(* An entry is committed iff its .key file exists; the .cmxs is written
   (and renamed) first, so tearing between the two renames leaves an
   orphan .cmxs that eviction sweeps up. *)
let delete_entry t h =
  unlink (key_path t h);
  unlink (cmxs_path t h)

type entry = { e_hash : string; e_bytes : int; e_mtime : float }

let list_entries t =
  if not (usable t) then []
  else
    try
      Sys.readdir t.root |> Array.to_list
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".key" then begin
               let h = Filename.chop_suffix f ".key" in
               try
                 let st = Unix.stat (cmxs_path t h) in
                 Some
                   {
                     e_hash = h;
                     e_bytes = st.Unix.st_size;
                     e_mtime = st.Unix.st_mtime;
                   }
               with _ ->
                 (* Key without artifact: half-deleted entry; drop it. *)
                 unlink (t.root / f);
                 None
             end
             else None)
    with _ -> []

let evict t =
  (* mtime is the LRU clock, but its granularity is a whole second on
     some filesystems: entries published within the same second would
     otherwise evict in readdir order, which differs across runs and
     hosts.  The hash tie-break makes the victim deterministic. *)
  let entries =
    List.sort
      (fun a b ->
        match compare a.e_mtime b.e_mtime with
        | 0 -> compare a.e_hash b.e_hash
        | c -> c)
      (list_entries t)
  in
  let count = List.length entries in
  let bytes = List.fold_left (fun acc e -> acc + e.e_bytes) 0 entries in
  let rec drop entries count bytes dropped =
    match entries with
    | e :: rest when count > t.max_entries || bytes > t.max_bytes ->
      delete_entry t e.e_hash;
      Atomic.incr t.evictions;
      drop rest (count - 1) (bytes - e.e_bytes) (dropped + 1)
    | _ -> dropped
  in
  drop entries count bytes 0

let find t ~key =
  if not (usable t) then None
  else begin
    let h = hash_key key in
    let hit =
      match read_file (key_path t h) with
      | Some stored when String.equal stored key -> (
        let cmxs = cmxs_path t h in
        (* Freshen the LRU clock (utimes with 0.0 0.0 means "now").
           Eviction reads only the artifact's mtime, and [ENOENT] here is
           the existence check. *)
        match Unix.utimes cmxs 0.0 0.0 with
        | () -> Some cmxs
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
        | exception Unix.Unix_error _ -> Some cmxs)
      | Some _ | None -> None
    in
    (match hit with
    | Some _ -> Atomic.incr t.hits
    | None -> Atomic.incr t.misses);
    hit
  end

let store t ~key ~cmxs =
  if not (usable t) then 0
  else begin
    let h = hash_key key in
    match read_file cmxs with
    | None -> 0
    | Some bytes ->
      if publish ~dst:(cmxs_path t h) bytes then
        if publish ~dst:(key_path t h) key then begin
          Atomic.incr t.stores;
          evict t
        end
        else begin
          unlink (cmxs_path t h);
          0
        end
      else 0
  end

let reject t ~key =
  if usable t then begin
    delete_entry t (hash_key key);
    Atomic.decr t.hits;
    Atomic.incr t.misses
  end

let clear t =
  let entries = list_entries t in
  List.iter (fun e -> delete_entry t e.e_hash) entries;
  List.length entries

let stats t =
  let entries = list_entries t in
  {
    st_entries = List.length entries;
    st_bytes = List.fold_left (fun acc e -> acc + e.e_bytes) 0 entries;
    st_hits = Atomic.get t.hits;
    st_misses = Atomic.get t.misses;
    st_stores = Atomic.get t.stores;
    st_evictions = Atomic.get t.evictions;
  }
