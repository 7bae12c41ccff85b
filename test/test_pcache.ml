(* The persistent plugin cache and tiered execution (PR 7).

   Covers the [Pcache] store in isolation (publication, key
   verification, LRU-by-mtime eviction, corruption-as-miss), the
   [Steno.Config] construction surface, and the engine integration:
   cross-process persistence (a child process compiles, the parent
   prepares with zero compiler runs), corrupted-entry recovery, and
   background tier promotion under concurrent runs.

   Cross-process protocol: when [STENO_PCACHE_CHILD] is set, this binary
   does not run alcotest at all — it compiles the shared test query into
   the store named by the variable and exits (0 on success), serving as
   the "earlier process" of the persistence test. *)

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
  match Steno.Engine.try_prepare_scalar eng (shared_query ()) with
  | Error _ -> exit 3
  | Ok p ->
    let ok =
      Steno.Prepared_scalar.run p = shared_expected && compiles_ok reg = 1
    in
    exit (if ok then 0 else 1)

(* {2 Pcache unit tests} *)

let mk_store ?max_bytes ?max_entries dir =
  Pcache.create ?max_bytes ?max_entries ~fingerprint:"test-fp-1" ~dir ()

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let payload = Filename.concat dir "payload.bin" in
  write_file payload "not really native code";
  let pc = mk_store dir in
  Alcotest.(check (option string)) "miss before store" None
    (Pcache.find pc ~key:"k1");
  ignore (Pcache.store pc ~key:"k1" ~cmxs:payload);
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
  ignore (Pcache.store pc ~key:"the real key" ~cmxs:payload);
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
  ignore (Pcache.store pc ~key:"k1" ~cmxs:payload);
  ignore (Pcache.store pc ~key:"k2" ~cmxs:payload);
  (* Backdate k1 (the eviction clock is the artifact's mtime; [find]
     freshens it, so pin the times after the lookups). *)
  (match Pcache.find pc ~key:"k1" with
  | Some p -> Unix.utimes p 1000.0 1000.0
  | None -> Alcotest.fail "k1 missing");
  (match Pcache.find pc ~key:"k2" with
  | Some p -> Unix.utimes p 2000.0 2000.0
  | None -> Alcotest.fail "k2 missing");
  let evicted = Pcache.store pc ~key:"k3" ~cmxs:payload in
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
    List.iter (fun k -> ignore (Pcache.store pc ~key:k ~cmxs:payload)) keys;
    (* Pin every artifact and key file to the same whole-second stamp. *)
    List.iter
      (fun k ->
        match Pcache.find pc ~key:k with
        | Some p ->
          Unix.utimes p 1000.0 1000.0;
          Unix.utimes (Filename.chop_suffix p ".cmxs" ^ ".key") 1000.0 1000.0
        | None -> Alcotest.fail (k ^ " missing"))
      keys;
    ignore (Pcache.store pc ~key:"tie-d" ~cmxs:payload);
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
  ignore (Pcache.store pc ~key:"k" ~cmxs:payload);
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
    (Pcache.store dead ~key:"k" ~cmxs:payload);
  rm_rf dir

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
    (* Truncate every stored artifact to garbage. *)
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
    Alcotest.(check bool) "miss counted" true
      (Metrics.counter_value (Metrics.counter reg2 "steno_pcache_misses") >= 1);
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
      ( "config",
        [ Alcotest.test_case "builders" `Quick test_config_builders ] );
      ( "persistence",
        [
          Alcotest.test_case "cross-process reuse" `Quick
            test_cross_process_persistence;
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
