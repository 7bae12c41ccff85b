(* The persistent plugin cache and tiered execution (PR 7).

   Covers the [Pcache] store in isolation (publication, key
   verification, LRU-by-mtime eviction, corruption-as-miss), the
   [Steno.Config] construction surface, and the engine integration:
   cross-process persistence (a child process compiles, the parent
   prepares with zero compiler runs), corrupted-entry recovery, and
   background tier promotion under concurrent runs.

   Cross-process protocol: when [STENO_PCACHE_CHILD] is set, this binary
   does not run alcotest at all — it compiles the shared test queries (a
   sum and an int-keyed group) into the store named by the variable and
   exits (0 on success), serving as the "earlier process" of the
   persistence test. *)

module I = Expr.Infix

let seq = ref 0

let fresh_dir () =
  incr seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "steno-test-pcache-%d-%d" (Unix.getpid ()) !seq)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf d =
  (* Stores are written in the background: let them land first. *)
  Pcache.flush ();
  if Sys.file_exists d then begin
    Sys.readdir d
    |> Array.iter (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then rm_rf p else try Sys.remove p with _ -> ());
    try Unix.rmdir d with _ -> ()
  end

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* {2 The shared cross-process query}

   Parent and child construct this query from the same code, so both
   processes generate byte-identical source — and hence the same pcache
   key. *)

let xs = Array.init 64 (fun i -> (i * 7) mod 43)

let query_with k =
  Query.of_array Ty.Int xs
  |> Query.select (fun x -> I.((x * Expr.int 3) + Expr.int k))
  |> Query.sum_int

let expected_with k = Array.fold_left (fun a x -> a + ((x * 3) + k)) 0 xs

let shared_query () = query_with 11

let shared_expected = expected_with 11

(* An int-keyed GroupByAggregate: its plugin references [Steno_rt], so a
   store hit must load against the host's runtime unit. *)
let group_query () =
  Query.of_array Ty.Int xs
  |> Query.group_by_agg
       ~key:(fun x -> I.(x mod Expr.int 5))
       ~seed:(Expr.int 0)
       ~step:(fun acc x -> I.(acc + x))

(* A query over captured values: a restarted process prepares it with
   other values of the same lengths through the plan memo's record. *)
let captured_query ys k =
  Query.of_array Ty.Int ys
  |> Query.where (fun x -> I.(x > Expr.capture Ty.Int k))
  |> Query.select (fun x -> I.(x * Expr.int 2))
  |> Query.sum_int

let compiles_ok reg =
  Metrics.counter_value
    (Metrics.counter reg "steno_compile" ~labels:[ "result", "ok" ])

let native_engine ?tiering ?dir reg =
  let cfg =
    Steno.Config.(
      default |> with_backend Steno.Native |> with_metrics reg
      |> with_fallback false)
  in
  let cfg =
    match dir with
    | None -> cfg
    | Some dir -> Steno.Config.with_disk_cache ~dir cfg
  in
  let cfg =
    match tiering with
    | None -> cfg
    | Some threshold -> Steno.Config.with_tiering ~threshold cfg
  in
  Steno.Engine.create cfg

let child_main dir =
  let reg = Metrics.create () in
  let eng = native_engine ~dir reg in
  let c = captured_query [| 1; 5; 9 |] 2 in
  match
    ( Steno.Engine.try_prepare_scalar eng (shared_query ()),
      Steno.Engine.try_prepare eng (group_query ()),
      Steno.Engine.try_prepare_scalar eng c )
  with
  | Error _, _, _ | _, Error _, _ | _, _, Error _ -> exit 3
  | Ok p, Ok g, Ok pc ->
    let ok =
      Steno.Prepared_scalar.run p = shared_expected
      && Array.to_list (Steno.Prepared.run g) = Reference.to_list (group_query ())
      && Steno.Prepared_scalar.run pc = Reference.scalar c
      && compiles_ok reg = 3
    in
    exit (if ok then 0 else 1)

(* {2 Pcache unit tests} *)

let mk_store ?max_bytes ?max_entries dir =
  Pcache.create ?max_bytes ?max_entries ~fingerprint:"test-fp-1" ~dir ()

(* Publish through the publisher and wait for it to land: the number of
   entries the store evicted. *)
let publish ?record pc ~key ~cmxs =
  let evicted = ref 0 in
  ignore (Pcache.submit ?record ~evicted:(fun n -> evicted := n) pc ~key ~cmxs);
  Pcache.flush ();
  !evicted

let publish_record pc r =
  ignore (Pcache.submit_record pc r);
  Pcache.flush ()

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "not really native code";
  let pc = mk_store dir in
  Alcotest.(check (option string)) "miss before store" None
    (Pcache.find pc ~key:"k1");
  ignore (publish pc ~key:"k1" ~cmxs:payload);
  (match Pcache.find pc ~key:"k1" with
  | None -> Alcotest.fail "expected a hit after store"
  | Some path ->
    let ic = open_in_bin path in
    let got = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check string) "published bytes" "not really native code" got);
  let s = Pcache.stats pc in
  Alcotest.(check int) "entries" 1 s.Pcache.st_entries;
  Alcotest.(check int) "hits" 1 s.Pcache.st_hits;
  Alcotest.(check int) "misses" 1 s.Pcache.st_misses;
  (* A second handle on the same directory (fresh counters) sees the
     entry: persistence is the whole point. *)
  let pc2 = mk_store dir in
  Alcotest.(check bool) "second handle hits" true
    (Pcache.find pc2 ~key:"k1" <> None);
  (* A different fingerprint namespaces to a different subdirectory. *)
  let other = Pcache.create ~fingerprint:"test-fp-2" ~dir () in
  Alcotest.(check (option string)) "other fingerprint misses" None
    (Pcache.find other ~key:"k1");
  Alcotest.(check int) "clear removes the entry" 1 (Pcache.clear pc);
  Alcotest.(check (option string)) "miss after clear" None
    (Pcache.find pc ~key:"k1");
  rm_rf dir

let test_key_verification () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "bytes";
  let pc = mk_store dir in
  ignore (publish pc ~key:"the real key" ~cmxs:payload);
  (match Pcache.find pc ~key:"the real key" with
  | None -> Alcotest.fail "expected a hit"
  | Some cmxs ->
    (* Corrupt the stored key: the entry must stop matching even though
       the artifact is intact (torn write / hash collision guard). *)
    let keyf = Filename.chop_suffix cmxs ".cmxs" ^ ".key" in
    write_file keyf "the real key, torn";
    Alcotest.(check (option string)) "mismatched key is a miss" None
      (Pcache.find pc ~key:"the real key"));
  rm_rf dir

let test_eviction_lru_by_mtime () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "0123456789";
  let pc = mk_store ~max_entries:2 dir in
  ignore (publish pc ~key:"k1" ~cmxs:payload);
  ignore (publish pc ~key:"k2" ~cmxs:payload);
  (* Backdate k1 (the eviction clock is the artifact's mtime; [find]
     freshens it, so pin the times after the lookups). *)
  (match Pcache.find pc ~key:"k1" with
  | Some p -> Unix.utimes p 1000.0 1000.0
  | None -> Alcotest.fail "k1 missing");
  (match Pcache.find pc ~key:"k2" with
  | Some p -> Unix.utimes p 2000.0 2000.0
  | None -> Alcotest.fail "k2 missing");
  let evicted = publish pc ~key:"k3" ~cmxs:payload in
  Alcotest.(check int) "one entry evicted" 1 evicted;
  Alcotest.(check (option string)) "oldest (k1) evicted" None
    (Pcache.find pc ~key:"k1");
  Alcotest.(check bool) "k2 survives" true (Pcache.find pc ~key:"k2" <> None);
  Alcotest.(check bool) "k3 survives" true (Pcache.find pc ~key:"k3" <> None);
  Alcotest.(check int) "eviction counted" 1
    (Pcache.stats pc).Pcache.st_evictions;
  rm_rf dir

(* Entries published within one second share an mtime on filesystems
   with whole-second stamps, and [Unix.utimes] with equal times models
   that exactly: eviction must then pick a deterministic victim (lowest
   key hash), not whatever order [readdir] happened to return. *)
let test_eviction_mtime_tie_deterministic () =
  let keys = [ "tie-a"; "tie-b"; "tie-c" ] in
  let hash k = Digest.to_hex (Digest.string k) in
  let survivor_hash k = hash k <> List.hd (List.sort compare (List.map hash keys)) in
  let run_once () =
    let dir = fresh_dir () in
    let payload = Filename.concat dir "payload.bin" in
    write_file payload "0123456789";
    let pc = mk_store ~max_entries:3 dir in
    List.iter (fun k -> ignore (publish pc ~key:k ~cmxs:payload)) keys;
    (* Pin every artifact and key file to the same whole-second stamp. *)
    List.iter
      (fun k ->
        match Pcache.find pc ~key:k with
        | Some p ->
          Unix.utimes p 1000.0 1000.0;
          Unix.utimes (Filename.chop_suffix p ".cmxs" ^ ".key") 1000.0 1000.0
        | None -> Alcotest.fail (k ^ " missing"))
      keys;
    ignore (publish pc ~key:"tie-d" ~cmxs:payload);
    let surviving = List.filter (fun k -> Pcache.find pc ~key:k <> None) keys in
    rm_rf dir;
    surviving
  in
  let first = run_once () in
  Alcotest.(check int) "exactly one tied entry evicted" 2 (List.length first);
  Alcotest.(check (list string))
    "victim is the lowest hash, not readdir order"
    (List.filter survivor_hash keys)
    first;
  (* And the choice is reproducible across fresh directories. *)
  Alcotest.(check (list string)) "stable across runs" first (run_once ())

let test_corrupt_store_never_raises () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "bytes";
  let pc = mk_store dir in
  ignore (publish pc ~key:"k" ~cmxs:payload);
  (* Strew wreckage through the store directory: a stray temp file, a
     key with no artifact, an unreadable name.  Everything must stay a
     miss or a survivor — never an exception. *)
  let root = Pcache.dir pc in
  write_file (Filename.concat root "orphan.key") "k-orphan";
  write_file (Filename.concat root "junk.cmxs.tmp.999.7") "torn";
  ignore (Pcache.find pc ~key:"k-orphan");
  Alcotest.(check bool) "real entry still hits" true
    (Pcache.find pc ~key:"k" <> None);
  ignore (Pcache.stats pc);
  ignore (Pcache.clear pc);
  (* Operations on an unusable root degrade to misses, not failures. *)
  let dead =
    Pcache.create ~fingerprint:"fp" ~dir:"/dev/null/not-a-directory" ()
  in
  Alcotest.(check (option string)) "unusable store misses" None
    (Pcache.find dead ~key:"k");
  Alcotest.(check int) "unusable store stores nothing" 0
    (publish dead ~key:"k" ~cmxs:payload);
  rm_rf dir

(* {2 Records} *)

let record ~key name payload =
  { Pcache.plugin = Digest.string key; name; payload }

let some_payload s = if s = "" then None else Some s

(* A store with a record serves both lookups: by name, and (through the
   [.key] that holds the record) by key. *)
let test_record_roundtrip () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let pc = mk_store dir in
  ignore
    (publish ~record:("gen-A/shape-1", "entry-1") pc ~key:"k1"
       ~cmxs:payload);
  Alcotest.(check bool) "key lookup hits" true
    (Pcache.find pc ~key:"k1" <> None);
  (match Pcache.find_record pc ~name:"gen-A/shape-1" some_payload with
  | Some (v, r, cmxs) ->
    Alcotest.(check string) "payload" "entry-1" v;
    Alcotest.(check string) "plugin" (Digest.string "k1") r.Pcache.plugin;
    Alcotest.(check (option string)) "the key's plugin"
      (Pcache.find pc ~key:"k1") (Some cmxs)
  | None -> Alcotest.fail "record lookup missed");
  Alcotest.(check bool) "other name misses" true
    (Pcache.find_record pc ~name:"gen-A/shape-2" some_payload = None);
  publish_record pc (record ~key:"k1" "gen-A/shape-2" "entry-2");
  (match Pcache.find_record pc ~name:"gen-A/shape-2" some_payload with
  | Some (v, _, _) -> Alcotest.(check string) "second record" "entry-2" v
  | None -> Alcotest.fail "second record missed");
  let st = Pcache.stats pc in
  Alcotest.(check int) "one entry" 1 st.Pcache.st_entries;
  Alcotest.(check int) "two records" 2 st.Pcache.st_records;
  Alcotest.(check int) "hits: two by name, two by key" 4 st.Pcache.st_hits;
  Alcotest.(check int) "a miss by name counts nothing" 0 st.Pcache.st_misses;
  Alcotest.(check int) "clear" 1 (Pcache.clear pc);
  Alcotest.(check int) "no records left" 0 (Pcache.stats pc).Pcache.st_records;
  rm_rf dir

(* A record whose name differs, as one written under another generator
   digest does, is a miss at its path, and goes. *)
let test_record_other_generator () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let pc = mk_store dir in
  ignore (publish pc ~key:"k1" ~cmxs:payload);
  let path = Pcache.record_path pc ~name:"gen-A/shape" in
  write_file path
    (Pcache.encode_record ~key:"" (record ~key:"k1" "gen-B/shape" "e"));
  Alcotest.(check bool) "planted record misses" true
    (Pcache.find_record pc ~name:"gen-A/shape" some_payload = None);
  Alcotest.(check bool) "and is deleted" false (Sys.file_exists path);
  (* The same for a payload the caller refuses. *)
  publish_record pc (record ~key:"k1" "gen-A/shape" "");
  Alcotest.(check bool) "refused payload misses" true
    (Pcache.find_record pc ~name:"gen-A/shape" some_payload = None);
  Alcotest.(check bool) "and is deleted too" false (Sys.file_exists path);
  Alcotest.(check int) "no hit counted" 0 (Pcache.stats pc).Pcache.st_hits;
  rm_rf dir

(* A record outlives its plugin (eviction unlinks the [.key] and the
   [.cmxs], not every record): the lookup that finds the plugin gone
   misses and deletes the record. *)
let test_record_plugin_gone () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let pc = mk_store dir in
  ignore (publish pc ~key:"k1" ~cmxs:payload);
  publish_record pc (record ~key:"k1" "later shape" "e");
  (match Pcache.find pc ~key:"k1" with
  | Some cmxs ->
    Sys.remove cmxs;
    Sys.remove (Filename.chop_suffix cmxs ".cmxs" ^ ".key")
  | None -> Alcotest.fail "plugin missing");
  let path = Pcache.record_path pc ~name:"later shape" in
  Alcotest.(check bool) "record still there" true (Sys.file_exists path);
  Alcotest.(check bool) "lookup misses" true
    (Pcache.find_record pc ~name:"later shape" some_payload = None);
  Alcotest.(check bool) "record deleted" false (Sys.file_exists path);
  rm_rf dir

(* Eviction takes a victim's first record with it, and the records of
   ten thousand shapes stay within [max_entries]. *)
let test_records_bounded () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let cap = 64 in
  let pc = mk_store ~max_entries:cap dir in
  for i = 0 to 9_999 do
    let key = Printf.sprintf "plugin %d" (i / 50) in
    let name = Printf.sprintf "shape %d" i in
    if i mod 50 = 0 then
      ignore (publish ~record:(name, "e") pc ~key ~cmxs:payload)
    else publish_record pc (record ~key name "e")
  done;
  let st = Pcache.stats pc in
  Alcotest.(check bool)
    (Printf.sprintf "%d records <= %d" st.Pcache.st_records cap)
    true (st.Pcache.st_records <= cap);
  Alcotest.(check bool) "entries capped" true (st.Pcache.st_entries <= cap);
  Alcotest.(check int) "200 plugins stored" 200 st.Pcache.st_stores;
  (* Past the cap, eviction removed the oldest plugins' first records:
     none of them is left to find. *)
  let pc = mk_store ~max_entries:1 dir in
  ignore (Pcache.clear pc);
  ignore (publish ~record:("a", "e") pc ~key:"ka" ~cmxs:payload);
  let a = Pcache.record_path pc ~name:"a" in
  Alcotest.(check bool) "record linked" true (Sys.file_exists a);
  ignore (publish ~record:("b", "e") pc ~key:"kb" ~cmxs:payload);
  let live =
    Pcache.find pc ~key:"ka" <> None, Pcache.find pc ~key:"kb" <> None
  in
  let victim_record = if fst live then "b" else "a" in
  Alcotest.(check bool) "one plugin left" true (fst live <> snd live);
  Alcotest.(check bool) "the victim's record went with it" false
    (Sys.file_exists (Pcache.record_path pc ~name:victim_record));
  rm_rf dir

(* Every truncation and every single-byte flip of a record decodes to
   nothing or to the record itself, and never raises; the same for the
   plan memo's entry codec, which sits inside the checksum. *)
let record_gen =
  QCheck.Gen.(
    map3
      (fun key name payload -> key, name, payload)
      (string_size (int_bound 40))
      (string_size (int_range 1 40))
      (string_size (int_bound 60)))

let record_damage =
  QCheck.Test.make ~name:"damaged records decode to a miss or the record"
    ~count:40
    (QCheck.make record_gen)
    (fun (key, name, payload) ->
      let r = record ~key name payload in
      let bytes = Pcache.encode_record ~key r in
      let ok s =
        match Pcache.decode_record s with
        | None -> true
        | Some r' -> r' = r
      in
      Pcache.decode_record bytes = Some r
      && List.for_all
           (fun n -> ok (String.sub bytes 0 n))
           (List.init (String.length bytes) Fun.id)
      && List.for_all
           (fun i ->
             List.for_all
               (fun x ->
                 let b = Bytes.of_string bytes in
                 Bytes.set b i (Char.chr (Char.code bytes.[i] lxor x));
                 ok (Bytes.to_string b))
               [ 1; 0x80; 0xff ])
           (List.init (String.length bytes) Fun.id))

let entry_gen =
  QCheck.Gen.(
    let str = string_size (int_bound 12) in
    let diag =
      map3
        (fun (d_code, d_rule) (sev, d_index) (d_op, d_message) ->
          {
            Check.d_code;
            d_rule;
            d_severity =
              (match sev with 0 -> Check.Error | 1 -> Warning | _ -> Hint);
            d_index;
            d_op;
            d_message;
          })
        (pair str str) (pair (int_bound 2) int) (pair str str)
    in
    map3
      (fun slots (rules, diags) plan ->
        {
          Steno_memo.slots =
            Array.of_list
              (List.map
                 (fun i -> if i < 0 then Steno_memo.Empty_array else Class i)
                 slots);
          rules;
          diags;
          plan;
        })
      (list_size (int_bound 6) (int_range (-1) 1000))
      (pair (list_size (int_bound 4) str) (list_size (int_bound 3) diag))
      str)

let entry_damage =
  QCheck.Test.make ~name:"damaged memo entries never raise" ~count:100
    (QCheck.make entry_gen)
    (fun e ->
      let bytes = Steno_memo.encode e in
      Steno_memo.decode bytes = Some e
      && List.for_all
           (fun n -> Steno_memo.decode (String.sub bytes 0 n) = None)
           (List.init (String.length bytes) Fun.id)
      && List.for_all
           (fun i ->
             let b = Bytes.of_string bytes in
             Bytes.set b i (Char.chr (Char.code bytes.[i] lxor 0xff));
             ignore (Steno_memo.decode (Bytes.to_string b));
             true)
           (List.init (String.length bytes) Fun.id))

(* {2 The publisher}

   [submit] queues a store for the process's one publisher thread. *)

let key_files root suffix =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.map Filename.remove_extension
  |> List.sort compare

(* A handle's queue holds [queue_capacity] submissions; one past that is
   dropped, and counted, and never written. *)
let test_full_queue_drops () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let none = Pcache.create ~queue_capacity:0 ~fingerprint:"test-fp-1" ~dir () in
  for i = 1 to 5 do
    Alcotest.(check bool) "store dropped" false
      (Pcache.submit ~record:(Printf.sprintf "shape %d" i, "e") none
         ~key:(Printf.sprintf "k%d" i) ~cmxs:payload)
  done;
  Alcotest.(check bool) "record dropped" false
    (Pcache.submit_record none (record ~key:"k1" "shape" "e"));
  let st = Pcache.stats none in
  Alcotest.(check int) "six dropped" 6 st.Pcache.st_dropped;
  Alcotest.(check int) "nothing stored" 0 st.Pcache.st_stores;
  Alcotest.(check int) "no entry" 0 st.Pcache.st_entries;
  Alcotest.(check int) "no record" 0 st.Pcache.st_records;
  Alcotest.(check (list string)) "nothing written" [] (key_files (Pcache.dir none) "");
  (* A queue of one: each submission is published or dropped, and the
     counts say which. *)
  let one = Pcache.create ~queue_capacity:1 ~fingerprint:"test-fp-1" ~dir () in
  let queued =
    List.length
      (List.filter Fun.id
         (List.init 100 (fun i ->
              Pcache.submit one ~key:(Printf.sprintf "q%d" i) ~cmxs:payload)))
  in
  let st = Pcache.stats one in
  Alcotest.(check int) "queued = stored" queued st.Pcache.st_stores;
  Alcotest.(check int) "the rest dropped" (100 - queued) st.Pcache.st_dropped;
  Alcotest.(check bool) "a queue of one drops" true (st.Pcache.st_dropped > 0);
  Alcotest.(check int) "entries" queued st.Pcache.st_entries;
  rm_rf dir

(* Two handles on one directory, storing in turn past the cap: the
   directory ends consistent (every [.key] with its [.cmxs], every record
   with its plugin), within the cap, and the handles' shared index (read
   through a, b and a third handle that joins it) agrees with it. *)
let test_two_handles_converge () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let cap = 32 in
  let open_handle () =
    Pcache.create ~max_entries:cap ~queue_capacity:1000 ~fingerprint:"test-fp-1"
      ~dir ()
  in
  let a = open_handle () and b = open_handle () in
  let root = Pcache.dir a in
  for i = 0 to 199 do
    Alcotest.(check bool) "queued" true
      (Pcache.submit
         ~record:(Printf.sprintf "shape %d" i, "e")
         (if i mod 2 = 0 then a else b)
         ~key:(Printf.sprintf "plugin %d" i) ~cmxs:payload);
    if i mod 7 = 0 then begin
      (* [stats] flushes first. *)
      let sa = Pcache.stats a and sb = Pcache.stats b in
      let on_disk = List.length (key_files root ".key") in
      Alcotest.(check (pair int int)) "both indexes hold the directory"
        (on_disk, on_disk)
        (sa.Pcache.st_entries, sb.Pcache.st_entries)
    end
  done;
  Pcache.flush ();
  let keys = key_files root ".key" in
  Alcotest.(check (list string)) "every .key has its .cmxs, and no more" keys
    (key_files root ".cmxs");
  Alcotest.(check int) "the cap holds" cap (List.length keys);
  List.iter
    (fun f ->
      match
        Option.bind
          (In_channel.with_open_bin (Filename.concat root (f ^ ".rec"))
             (fun ic -> Some (In_channel.input_all ic)))
          Pcache.decode_record
      with
      | Some r ->
        Alcotest.(check bool) "a record's plugin is there" true
          (List.mem (Digest.to_hex r.Pcache.plugin) keys)
      | None -> Alcotest.fail "undecodable record")
    (key_files root ".rec");
  let sa = Pcache.stats a and sb = Pcache.stats b in
  List.iter
    (fun (what, st) ->
      Alcotest.(check int) (what ^ ": entries") cap st.Pcache.st_entries;
      Alcotest.(check int) (what ^ ": records") (List.length (key_files root ".rec"))
        st.Pcache.st_records)
    [ "a", sa; "b", sb; "a fresh listing", Pcache.stats (open_handle ()) ];
  Alcotest.(check int) "stores" 200 (sa.Pcache.st_stores + sb.Pcache.st_stores);
  Alcotest.(check int) "evictions" (200 - cap)
    (sa.Pcache.st_evictions + sb.Pcache.st_evictions);
  rm_rf dir

(* Handles opened while the publisher stores join the index the handles
   share: every store stays in it, or [stats] undercounts and eviction
   never sees the entry. *)
let test_open_while_publishing () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let open_handle () =
    Pcache.create ~max_entries:1000 ~queue_capacity:1000 ~fingerprint:"test-fp-1"
      ~dir ()
  in
  let a = open_handle () in
  let root = Pcache.dir a in
  for i = 0 to 299 do
    let key = Printf.sprintf "plugin %d" i in
    ignore (Pcache.submit ~record:(Printf.sprintf "shape %d" i, "e") a ~key ~cmxs:payload);
    (* Open handles until the store lands, so that listings overlap it. *)
    let landed = Filename.concat root (Digest.to_hex (Digest.string key) ^ ".key") in
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (Sys.file_exists landed) && Unix.gettimeofday () < deadline do
      ignore (open_handle ())
    done
  done;
  let st = Pcache.stats a in
  Alcotest.(check int) "all stored" 300 st.Pcache.st_stores;
  Alcotest.(check int) "entries" (List.length (key_files root ".key"))
    st.Pcache.st_entries;
  Alcotest.(check int) "records" (List.length (key_files root ".rec"))
    st.Pcache.st_records;
  rm_rf dir

(* Ten thousand plans through the publisher, one in ten a new plugin and
   the rest records of the latest: the index and the directory stay
   within [max_entries] all along. *)
let test_publisher_bounded () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let cap = 64 in
  let pc =
    Pcache.create ~max_entries:cap ~queue_capacity:1000 ~fingerprint:"test-fp-1"
      ~dir ()
  in
  let root = Pcache.dir pc in
  let within what n =
    if n > cap then Alcotest.failf "%s: %d > %d" what n cap
  in
  for i = 0 to 9_999 do
    let key = Printf.sprintf "plugin %d" (i / 10) in
    let name = Printf.sprintf "plan %d" i in
    ignore
      (if i mod 10 = 0 then Pcache.submit ~record:(name, "e") pc ~key ~cmxs:payload
       else Pcache.submit_record pc (record ~key name "e"));
    if i mod 1000 = 999 then begin
      let st = Pcache.stats pc in
      within "index entries" st.Pcache.st_entries;
      within "index records" st.Pcache.st_records;
      within "directory entries" (List.length (key_files root ".key"));
      within "directory artifacts" (List.length (key_files root ".cmxs"));
      within "directory records" (List.length (key_files root ".rec"))
    end
  done;
  let st = Pcache.stats pc in
  Alcotest.(check int) "nothing dropped" 0 st.Pcache.st_dropped;
  Alcotest.(check int) "1000 plugins stored" 1000 st.Pcache.st_stores;
  Alcotest.(check int) "the index agrees with the directory"
    (List.length (key_files root ".key")) st.Pcache.st_entries;
  rm_rf dir

(* A lookup never misses what this process queued: a second handle (a
   second engine, in the engine) finds the last of thirty queued stores,
   and its record, though the publisher is still busy with the first. *)
let test_lookup_waits_for_queue () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "plugin bytes";
  let a = mk_store dir in
  for i = 1 to 30 do
    ignore
      (Pcache.submit ~record:(Printf.sprintf "shape %d" i, "e") a
         ~key:(Printf.sprintf "k%d" i) ~cmxs:payload)
  done;
  let b = mk_store dir in
  Alcotest.(check bool) "the last store hits" true (Pcache.find b ~key:"k30" <> None);
  ignore (Pcache.submit_record a (record ~key:"k30" "later shape" "e2"));
  (match Pcache.find_record b ~name:"later shape" some_payload with
  | Some (v, _, _) -> Alcotest.(check string) "the queued record hits" "e2" v
  | None -> Alcotest.fail "queued record missed");
  rm_rf dir

let test_second_engine_hits_queued () =
  if not (Steno.native_available ()) then
    print_endline "  (skipped: no native toolchain)"
  else begin
    let dir = fresh_dir () in
    let first = native_engine ~dir (Metrics.create ()) in
    ignore (Steno.Engine.prepare_scalar first (query_with 21));
    let reg = Metrics.create () in
    let second = native_engine ~dir reg in
    let p = Steno.Engine.prepare_scalar second (query_with 21) in
    Alcotest.(check int) "result" (expected_with 21) (Steno.Prepared_scalar.run p);
    Alcotest.(check int) "no compile" 0 (compiles_ok reg);
    Alcotest.(check int) "a disk hit" 1
      (Metrics.counter_value (Metrics.counter reg "steno_pcache_hits"));
    rm_rf dir
  end

(* {2 Config} *)

let test_config_builders () =
  let base = Steno.Config.default in
  Alcotest.(check bool) "no tiering by default" true
    (base.Steno.Config.tiering = None);
  Alcotest.(check bool) "no disk cache by default" true
    (base.Steno.Config.disk_cache = None);
  Alcotest.(check bool) "default_config is Config.default" true
    (Steno.Engine.default_config == base);
  let cfg =
    Steno.Config.(
      base |> with_backend Steno.Fused |> with_strict true
      |> with_cache_capacity 7 |> with_tiering
      |> with_disk_cache ~dir:"/tmp/x" ~max_bytes:1024 ~max_entries:3)
  in
  Alcotest.(check bool) "backend set" true
    (cfg.Steno.Config.backend = Steno.Fused);
  Alcotest.(check bool) "strict set" true cfg.Steno.Config.strict;
  Alcotest.(check int) "capacity set" 7 cfg.Steno.Config.cache_capacity;
  (match cfg.Steno.Config.tiering with
  | Some { Steno.Config.threshold } ->
    Alcotest.(check int) "default threshold" 8 threshold
  | None -> Alcotest.fail "tiering not set");
  (match cfg.Steno.Config.disk_cache with
  | Some { Steno.Config.dir; max_bytes; max_entries } ->
    Alcotest.(check string) "dir" "/tmp/x" dir;
    Alcotest.(check int) "max_bytes" 1024 max_bytes;
    Alcotest.(check int) "max_entries" 3 max_entries
  | None -> Alcotest.fail "disk cache not set");
  let off = Steno.Config.(cfg |> without_tiering |> without_disk_cache) in
  Alcotest.(check bool) "without_tiering" true
    (off.Steno.Config.tiering = None);
  Alcotest.(check bool) "without_disk_cache" true
    (off.Steno.Config.disk_cache = None);
  (* The old record-update spelling still builds the same type. *)
  let eng =
    Steno.Engine.(create { default_config with backend = Steno.Linq })
  in
  Alcotest.(check bool) "record update works" true
    ((Steno.Engine.config eng).Steno.Engine.backend = Steno.Linq);
  (* Session ?config transformer wins over the engine's flags. *)
  let s =
    Steno.Session.create eng ~client_id:"c"
      ~config:Steno.Config.(with_backend Steno.Fused)
  in
  Alcotest.(check bool) "session config override" true
    ((Steno.Engine.config (Steno.Session.engine s)).Steno.Engine.backend
    = Steno.Fused)

(* {2 Engine integration (need the native toolchain)} *)

let skip_without_native () =
  if not (Steno.native_available ()) then begin
    Printf.printf "  (skipped: no native toolchain)\n";
    true
  end
  else false

let run_child dir =
  let env =
    Array.append (Unix.environment ()) [| "STENO_PCACHE_CHILD=" ^ dir |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "child compile process: exit %d" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Alcotest.failf "child compile process: signal %d" s

(* The plan memo across a restart: the child compiled [captured_query]
   with some values; this process prepares it with others through the
   record, running no check, optimizer, validation or compile. *)
let test_cross_process_record () =
  if skip_without_native () then ()
  else begin
    let dir = fresh_dir () in
    run_child dir;
    let reg = Metrics.create () in
    let eng = native_engine ~dir reg in
    let c = captured_query [| 7; 0; 4 |] 3 in
    let p = Steno.Engine.prepare_scalar eng c in
    Alcotest.(check int) "result" (Reference.scalar c)
      (Steno.Prepared_scalar.run p);
    let value name labels =
      Metrics.counter_value (Metrics.counter reg name ~labels)
    in
    Alcotest.(check int) "a memo hit" 1
      (value "steno_plan_memo" [ "result", "hit" ]);
    Alcotest.(check int) "no compile" 0 (compiles_ok reg);
    Alcotest.(check int) "no validation" 0
      (value "steno_verify" [ "result", "accepted" ]
      + value "steno_verify" [ "result", "rejected" ]);
    Alcotest.(check int) "one disk hit" 1 (value "steno_pcache_hits" []);
    let i = Steno.Prepared_scalar.compile_info p in
    Alcotest.(check bool) "no codegen" true
      (i.Steno.cache_hit && i.Steno.codegen_ms = 0.0);
    rm_rf dir
  end

let test_cross_process_persistence () =
  if skip_without_native () then ()
  else begin
    let dir = fresh_dir () in
    (* The "earlier process": this same binary, in child mode. *)
    let env =
      Array.append (Unix.environment ())
        [| "STENO_PCACHE_CHILD=" ^ dir |]
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        env Unix.stdin devnull devnull
    in
    Unix.close devnull;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, st ->
      let s =
        match st with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
      in
      Alcotest.fail ("child compile process failed: " ^ s));
    (* The "restarted process": a fresh engine and registry on the same
       store must prepare without invoking the compiler at all. *)
    let reg = Metrics.create () in
    let eng = native_engine ~dir reg in
    let p = Steno.Engine.prepare_scalar eng (shared_query ()) in
    Alcotest.(check int) "result" shared_expected
      (Steno.Prepared_scalar.run p);
    Alcotest.(check int) "zero compiles in parent" 0 (compiles_ok reg);
    Alcotest.(check bool) "reported as a cache hit" true
      (Steno.Prepared_scalar.compile_info p).Steno.cache_hit;
    (match Steno.Engine.pcache_stats eng with
    | None -> Alcotest.fail "engine has no pcache"
    | Some s -> Alcotest.(check int) "one disk hit" 1 s.Pcache.st_hits);
    let g = Steno.Engine.prepare eng (group_query ()) in
    Alcotest.(check (list (pair int int))) "group result"
      (Reference.to_list (group_query ()))
      (Array.to_list (Steno.Prepared.run g));
    Alcotest.(check int) "zero compiles for the group query" 0 (compiles_ok reg);
    Alcotest.(check bool) "group query a cache hit" true
      (Steno.Prepared.compile_info g).Steno.cache_hit;
    Alcotest.(check bool) "group query on native" true
      ((Steno.Prepared.compile_info g).Steno.backend = Steno.Native);
    (* The point of the store: the warm prepare must cost at least 10x
       less than compiling.  A fresh literal on the same engine is a key
       nobody has published, so it pays a real compile. *)
    let warm_ms = (Steno.Prepared_scalar.compile_info p).Steno.prepare_ms in
    let fresh = Steno.Engine.prepare_scalar eng (query_with 12) in
    Alcotest.(check int) "fresh-literal result" (expected_with 12)
      (Steno.Prepared_scalar.run fresh);
    Alcotest.(check int) "fresh literal compiled" 1 (compiles_ok reg);
    let compile_ms =
      (Steno.Prepared_scalar.compile_info fresh).Steno.prepare_ms
    in
    if compile_ms < 10.0 *. warm_ms then
      Alcotest.failf
        "warm-store prepare %.3f ms is not 10x cheaper than a %.3f ms compile"
        warm_ms compile_ms;
    rm_rf dir
  end

let test_corrupted_entry_recovers () =
  if skip_without_native () then ()
  else begin
    let dir = fresh_dir () in
    let reg1 = Metrics.create () in
    let eng1 = native_engine ~dir reg1 in
    let p1 = Steno.Engine.prepare_scalar eng1 (shared_query ()) in
    Alcotest.(check int) "seed result" shared_expected
      (Steno.Prepared_scalar.run p1);
    Alcotest.(check int) "seed compiled once" 1 (compiles_ok reg1);
    (* Truncate every stored artifact to garbage, once it has landed. *)
    Pcache.flush ();
    let root =
      match Steno.Engine.pcache_dir eng1 with
      | Some d -> d
      | None -> Alcotest.fail "no pcache dir"
    in
    let corrupted = ref 0 in
    Sys.readdir root
    |> Array.iter (fun f ->
           if Filename.check_suffix f ".cmxs" then begin
             write_file (Filename.concat root f) "garbage, not a plugin";
             incr corrupted
           end);
    Alcotest.(check bool) "something to corrupt" true (!corrupted > 0);
    (* A fresh engine must shrug: load fails, entry is dropped, compile
       runs, result is right. *)
    let reg2 = Metrics.create () in
    let eng2 = native_engine ~dir reg2 in
    let p2 = Steno.Engine.prepare_scalar eng2 (shared_query ()) in
    Alcotest.(check int) "recovered result" shared_expected
      (Steno.Prepared_scalar.run p2);
    Alcotest.(check int) "recompiled once" 1 (compiles_ok reg2);
    Alcotest.(check bool) "not a cache hit" false
      (Steno.Prepared_scalar.compile_info p2).Steno.cache_hit;
    let metric_misses =
      Metrics.counter_value (Metrics.counter reg2 "steno_pcache_misses")
    in
    Alcotest.(check bool) "miss counted" true (metric_misses >= 1);
    (* The store's own figures agree with the metric: an artifact that
       failed to load was no hit. *)
    (match Steno.Engine.pcache_stats eng2 with
    | None -> Alcotest.fail "no pcache stats"
    | Some st ->
      Alcotest.(check int) "store counts no hit" 0 st.Pcache.st_hits;
      Alcotest.(check int) "store misses = metric misses" metric_misses
        st.Pcache.st_misses);
    (* The recompile republished a good artifact: a third engine hits. *)
    let reg3 = Metrics.create () in
    let eng3 = native_engine ~dir reg3 in
    let p3 = Steno.Engine.prepare_scalar eng3 (shared_query ()) in
    Alcotest.(check int) "third engine result" shared_expected
      (Steno.Prepared_scalar.run p3);
    Alcotest.(check int) "third engine compiles" 0 (compiles_ok reg3);
    rm_rf dir
  end

let test_tier_promotion_concurrent () =
  if skip_without_native () then ()
  else begin
    let threshold = 4 in
    let reg = Metrics.create () in
    let eng = native_engine ~tiering:threshold reg in
    let p = Steno.Engine.prepare_scalar eng (shared_query ()) in
    (* Tiered prepare is instant: Fused executes, Native was requested,
       nothing compiled yet. *)
    let i = Steno.Prepared_scalar.compile_info p in
    Alcotest.(check bool) "starts on fused" true
      (Steno.Prepared_scalar.backend_used p = Steno.Fused);
    Alcotest.(check bool) "info backend fused" true (i.Steno.backend = Steno.Fused);
    Alcotest.(check bool) "info requested native" true
      (i.Steno.requested = Steno.Native);
    Alcotest.(check int) "no compile at prepare" 0 (compiles_ok reg);
    (* Hammer the preparation from several domains across the promotion
       point: every run, on either tier, must agree with the reference
       result. *)
    let results =
      Domain_pool.run ~workers:4 ~tasks:64 (fun _ ->
          Steno.Prepared_scalar.run p)
    in
    Array.iter
      (fun r ->
        Alcotest.(check int) "differential across the swap" shared_expected r)
      results;
    (* The promotion is asynchronous; wait (bounded) for the swap. *)
    let deadline = Unix.gettimeofday () +. 30.0 in
    while
      Steno.Prepared_scalar.backend_used p <> Steno.Native
      && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.01
    done;
    Alcotest.(check bool) "promoted to native" true
      (Steno.Prepared_scalar.backend_used p = Steno.Native);
    Alcotest.(check int) "exactly one background compile" 1
      (compiles_ok reg);
    Alcotest.(check int) "post-swap result" shared_expected
      (Steno.Prepared_scalar.run p);
    Alcotest.(check int) "one promotion counted" 1
      (Metrics.counter_value
         (Metrics.counter reg "steno_tier_promotions"
            ~labels:[ "result", "ok" ]));
    (* Re-preparing the same query now hits the in-process plugin cache:
       still exactly one compiler run ever. *)
    let p2 = Steno.Engine.prepare_scalar eng (shared_query ()) in
    ignore (Steno.Prepared_scalar.run p2);
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec spin () =
      if Steno.Prepared_scalar.backend_used p2 = Steno.Native then ()
      else if Unix.gettimeofday () > deadline then ()
      else begin
        ignore (Steno.Prepared_scalar.run p2);
        Unix.sleepf 0.01;
        spin ()
      end
    in
    spin ();
    Alcotest.(check int) "still one compile after re-prepare" 1
      (compiles_ok reg)
  end

let test_tiering_without_compiler_stays_fused () =
  (* With the compiler gated off, promotion fails in the background and
     the preparation keeps serving Fused — never an exception. *)
  let was = !Dynload.disabled in
  Dynload.disabled := true;
  Fun.protect
    ~finally:(fun () -> Dynload.disabled := was)
    (fun () ->
      let reg = Metrics.create () in
      let eng =
        Steno.Engine.create
          Steno.Config.(
            default |> with_backend Steno.Native |> with_metrics reg
            |> with_tiering ~threshold:1)
      in
      let p = Steno.Engine.prepare_scalar eng (shared_query ()) in
      for _ = 1 to 5 do
        Alcotest.(check int) "fused result" shared_expected
          (Steno.Prepared_scalar.run p)
      done;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        Metrics.counter_value
          (Metrics.counter reg "steno_tier_promotions"
             ~labels:[ "result", "failed" ])
        = 0
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.01
      done;
      Alcotest.(check int) "failed promotion counted" 1
        (Metrics.counter_value
           (Metrics.counter reg "steno_tier_promotions"
              ~labels:[ "result", "failed" ]));
      Alcotest.(check bool) "still fused" true
        (Steno.Prepared_scalar.backend_used p = Steno.Fused);
      Alcotest.(check int) "still correct" shared_expected
        (Steno.Prepared_scalar.run p))

let () =
  (match Sys.getenv_opt "STENO_PCACHE_CHILD" with
  | Some dir -> child_main dir
  | None -> ());
  Alcotest.run "pcache"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip + fingerprints" `Quick
            test_store_roundtrip;
          Alcotest.test_case "key verification" `Quick test_key_verification;
          Alcotest.test_case "mtime-tie eviction deterministic" `Quick
            test_eviction_mtime_tie_deterministic;
          Alcotest.test_case "lru-by-mtime eviction" `Quick
            test_eviction_lru_by_mtime;
          Alcotest.test_case "corruption never raises" `Quick
            test_corrupt_store_never_raises;
        ] );
      ( "records",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "other generator" `Quick
            test_record_other_generator;
          Alcotest.test_case "plugin gone" `Quick test_record_plugin_gone;
          Alcotest.test_case "bounded" `Quick test_records_bounded;
          QCheck_alcotest.to_alcotest record_damage;
          QCheck_alcotest.to_alcotest entry_damage;
        ] );
      ( "publisher",
        [
          Alcotest.test_case "full queue drops" `Quick test_full_queue_drops;
          Alcotest.test_case "two handles converge" `Quick
            test_two_handles_converge;
          Alcotest.test_case "open while publishing" `Quick
            test_open_while_publishing;
          Alcotest.test_case "bounded over 10^4 plans" `Quick
            test_publisher_bounded;
          Alcotest.test_case "lookup waits for the queue" `Quick
            test_lookup_waits_for_queue;
          Alcotest.test_case "second engine hits a queued store" `Quick
            test_second_engine_hits_queued;
        ] );
      ( "config",
        [ Alcotest.test_case "builders" `Quick test_config_builders ] );
      ( "persistence",
        [
          Alcotest.test_case "cross-process reuse" `Quick
            test_cross_process_persistence;
          Alcotest.test_case "cross-process record" `Quick
            test_cross_process_record;
          Alcotest.test_case "corrupted entry recovery" `Quick
            test_corrupted_entry_recovers;
        ] );
      ( "tiering",
        [
          Alcotest.test_case "concurrent promotion" `Quick
            test_tier_promotion_concurrent;
          Alcotest.test_case "no compiler: stays fused" `Quick
            test_tiering_without_compiler_stays_fused;
        ] );
    ]
