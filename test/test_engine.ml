(* Engine values: the bounded LRU plugin cache and the Native -> Fused
   compile fallback. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let with_native f = if Steno.native_available () then f () else ()

let engine ?(fallback = true) ?(optimize = true) ?compile_timeout_ms
    ?(cache_capacity = 128) backend =
  Steno.Engine.create
    {
      Steno.Engine.default_config with
      backend;
      fallback;
      optimize;
      compile_timeout_ms;
      cache_capacity;
    }

(* A family of structurally distinct scalar queries: [nth_query k] sums
   x + 1 + ... + 1 (k + 1 additions), so each k compiles separately. *)
let nth_query k xs =
  let rec grow e n = if n = 0 then e else grow I.(e + Expr.int 1) (n - 1) in
  Query.sum_int (ints xs |> Query.select (fun x -> grow x (k + 1)))

(* LRU unit tests (no compiler needed). *)

let test_lru_eviction_order () =
  let c = Steno_lru.create ~capacity:2 () in
  Alcotest.(check bool) "no eviction on a" false (Steno_lru.add c "a" 1);
  Alcotest.(check bool) "no eviction on b" false (Steno_lru.add c "b" 2);
  (* Touch [a] so [b] becomes least recently used. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Steno_lru.find c "a");
  Alcotest.(check bool) "adding c evicts" true (Steno_lru.add c "c" 3);
  Alcotest.(check bool) "b was the LRU victim" false (Steno_lru.mem c "b");
  Alcotest.(check bool) "a survived" true (Steno_lru.mem c "a");
  Alcotest.(check bool) "c inserted" true (Steno_lru.mem c "c");
  Alcotest.(check int) "still at capacity" 2 (Steno_lru.length c)

let test_lru_stats () =
  let c = Steno_lru.create ~capacity:1 () in
  ignore (Steno_lru.find c "missing");
  ignore (Steno_lru.add c "x" 0);
  ignore (Steno_lru.find c "x");
  ignore (Steno_lru.add c "y" 1);
  (* evicts x *)
  ignore (Steno_lru.find c "x");
  (* miss *)
  let s = Steno_lru.stats c in
  Alcotest.(check int) "capacity" 1 s.Steno_lru.capacity;
  Alcotest.(check int) "entries" 1 s.Steno_lru.entries;
  Alcotest.(check int) "hits" 1 s.Steno_lru.hits;
  Alcotest.(check int) "misses" 2 s.Steno_lru.misses;
  Alcotest.(check int) "evictions" 1 s.Steno_lru.evictions;
  Steno_lru.clear c;
  let s = Steno_lru.stats c in
  Alcotest.(check int) "clear drops entries" 0 s.Steno_lru.entries;
  Alcotest.(check int) "counters survive clear" 1 s.Steno_lru.hits

let test_lru_zero_capacity () =
  let c = Steno_lru.create ~capacity:0 () in
  Alcotest.(check bool) "add is a no-op" false (Steno_lru.add c "a" 1);
  Alcotest.(check (option int)) "never stores" None (Steno_lru.find c "a");
  Alcotest.(check int) "empty" 0 (Steno_lru.length c)

(* Regression (PR 5): evicted values used to be dropped on the floor;
   now every value leaving the cache reaches [on_evict], in LRU order. *)
let test_lru_on_evict () =
  let released = ref [] in
  let on_evict k v = released := (k, v) :: !released in
  let c = Steno_lru.create ~on_evict ~capacity:2 () in
  ignore (Steno_lru.add c "a" 1);
  ignore (Steno_lru.add c "b" 2);
  Alcotest.(check (list (pair string int))) "nothing released" []
    (List.rev !released);
  (* Touch [a]; then adding two more keys must evict b first, then a. *)
  ignore (Steno_lru.find c "a");
  Alcotest.(check bool) "c evicts" true (Steno_lru.add c "c" 3);
  Alcotest.(check bool) "d evicts" true (Steno_lru.add c "d" 4);
  Alcotest.(check (list (pair string int)))
    "eviction order is LRU" [ "b", 2; "a", 1 ] (List.rev !released);
  (* Replacing an existing key's value releases the old value but is not
     an eviction. *)
  released := [];
  Alcotest.(check bool) "replace is not an eviction" false
    (Steno_lru.add c "d" 5);
  Alcotest.(check (list (pair string int))) "old value released" [ "d", 4 ]
    (List.rev !released);
  let s = Steno_lru.stats c in
  Alcotest.(check int) "two true evictions" 2 s.Steno_lru.evictions;
  (* Clear hands back the survivors, LRU to MRU. *)
  released := [];
  Steno_lru.clear c;
  Alcotest.(check (list (pair string int)))
    "clear releases survivors in LRU order" [ "c", 3; "d", 5 ]
    (List.rev !released);
  (* A disabled cache passes values straight through. *)
  released := [];
  let c0 = Steno_lru.create ~on_evict ~capacity:0 () in
  ignore (Steno_lru.add c0 "x" 9);
  Alcotest.(check (list (pair string int))) "disabled cache releases" [ "x", 9 ]
    (List.rev !released)

(* Engine-level cache accounting. *)

let test_engine_cache_stats () =
  with_native @@ fun () ->
  let eng = engine ~cache_capacity:2 Steno.Native in
  (* Three distinct queries through a capacity-2 cache: the third insert
     evicts the first. *)
  Alcotest.(check int) "q0" 8 (Steno.Engine.scalar eng (nth_query 0 [| 3; 3 |]));
  Alcotest.(check int) "q1" 10 (Steno.Engine.scalar eng (nth_query 1 [| 3; 3 |]));
  (* Re-run q1: structural cache hit. *)
  Alcotest.(check int) "q1 hit" 14 (Steno.Engine.scalar eng (nth_query 1 [| 5; 5 |]));
  Alcotest.(check int) "q2" 12 (Steno.Engine.scalar eng (nth_query 2 [| 3; 3 |]));
  let s = Steno.Engine.cache_stats eng in
  Alcotest.(check int) "entries bounded" 2 s.Steno.Engine.entries;
  Alcotest.(check int) "capacity" 2 s.Steno.Engine.capacity;
  Alcotest.(check int) "hits" 1 s.Steno.Engine.hits;
  Alcotest.(check int) "misses" 3 s.Steno.Engine.misses;
  Alcotest.(check int) "evictions" 1 s.Steno.Engine.evictions;
  (* q0 was evicted, so preparing it again misses and compiles afresh. *)
  Alcotest.(check int) "q0 again" 8 (Steno.Engine.scalar eng (nth_query 0 [| 3; 3 |]));
  let s = Steno.Engine.cache_stats eng in
  Alcotest.(check int) "recompiled after eviction" 4 s.Steno.Engine.misses;
  Steno.Engine.clear_cache eng;
  Alcotest.(check int) "clear empties" 0 (Steno.Engine.cache_size eng)

let test_engines_are_independent () =
  with_native @@ fun () ->
  let a = engine Steno.Native and b = engine Steno.Native in
  ignore (Steno.Engine.scalar a (nth_query 0 [| 1 |]));
  Alcotest.(check int) "a cached one plugin" 1 (Steno.Engine.cache_size a);
  Alcotest.(check int) "b untouched" 0 (Steno.Engine.cache_size b)

(* Fallback. *)

let without_compiler f =
  Dynload.disabled := true;
  Fun.protect ~finally:(fun () -> Dynload.disabled := false) f

let test_fallback_compiler_unavailable () =
  without_compiler @@ fun () ->
  let eng = engine Steno.Native in
  let sq = nth_query 0 [| 2; 5 |] in
  let p = Steno.Engine.prepare_scalar eng sq in
  let i = Steno.Prepared_scalar.compile_info p in
  Alcotest.(check bool) "requested native" true (i.Steno.requested = Steno.Native);
  Alcotest.(check bool) "ran fused" true (i.Steno.backend = Steno.Fused);
  Alcotest.(check bool) "reason recorded" true
    (i.Steno.fallback = Some Steno.Compiler_unavailable);
  (* Differential check: the fallback result matches a straight Fused run. *)
  Alcotest.(check int) "correct result via fallback"
    (Steno.scalar ~backend:Steno.Fused sq)
    (Steno.Prepared_scalar.run p)

let test_fallback_disabled_raises () =
  without_compiler @@ fun () ->
  let eng = engine ~fallback:false Steno.Native in
  Alcotest.(check bool) "strict engine raises" true
    (match Steno.Engine.scalar eng (nth_query 0 [| 1 |]) with
    | exception Dynload.Compilation_failed _ -> true
    | _ -> false)

let test_fallback_on_timeout () =
  with_native @@ fun () ->
  (* A zero deadline kills the compiler immediately; the engine must
     still answer, via Fused, and record the timeout. *)
  let eng = engine ~compile_timeout_ms:0 Steno.Native in
  let sq = nth_query 0 [| 4; 6 |] in
  let p = Steno.Engine.prepare_scalar eng sq in
  let i = Steno.Prepared_scalar.compile_info p in
  Alcotest.(check bool) "timeout recorded" true
    (i.Steno.fallback = Some (Steno.Compile_timeout 0));
  Alcotest.(check bool) "ran fused" true (i.Steno.backend = Steno.Fused);
  Alcotest.(check int) "correct result"
    (Steno.scalar ~backend:Steno.Fused sq)
    (Steno.Prepared_scalar.run p)

(* An int-keyed group query, whose plugin references [Steno_rt], must
   prepare on Native and agree with the reference semantics. *)
let check_group_on_native m =
  let q =
    ints [| 5; 3; 8; 5; 9; 3 |]
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int m))
         ~seed:(Expr.int 0)
         ~step:(fun acc _ -> I.(acc + Expr.int 1))
  in
  let p = Steno.Engine.prepare (engine Steno.Native) q in
  let i = Steno.Prepared.compile_info p in
  Alcotest.(check bool) "group query on native" true
    (i.Steno.backend = Steno.Native && i.Steno.fallback = None);
  Alcotest.(check (list (pair int int))) "group result"
    (Reference.to_list q)
    (Array.to_list (Steno.Prepared.run p))

let test_fallback_on_io_failure () =
  with_native @@ fun () ->
  (* With the scratch workdir gone, writing the plugin source fails.
     That is a typed compile error, not a raised [Sys_error], so the
     engine still answers via Fused.  Removing the directory works as
     root too, where a permission change would not. *)
  let dir = Dynload.workdir () in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  (Fun.protect ~finally:(fun () -> Unix.mkdir dir 0o700) @@ fun () ->
  Alcotest.(check bool) "compile_result is a compile error" true
    (match
       Plugin_build.compile_result ~source:"let () = ()" ()
     with
    | Error (Dynload.Compile_error _) -> true
    | _ -> false);
  let eng = engine Steno.Native in
  let sq = nth_query 3 [| 4; 6 |] in
  let p = Steno.Engine.prepare_scalar eng sq in
  let i = Steno.Prepared_scalar.compile_info p in
  Alcotest.(check bool) "compile error recorded" true
    (match i.Steno.fallback with
    | Some (Steno.Compile_error _) -> true
    | _ -> false);
  Alcotest.(check bool) "ran fused" true (i.Steno.backend = Steno.Fused);
  Alcotest.(check int) "correct result"
    (Steno.scalar ~backend:Steno.Fused sq)
    (Steno.Prepared_scalar.run p));
  (* The recreated workdir lacks [steno_rt.cmi], which every hashing
     plugin compiles against; the next compile writes it again. *)
  check_group_on_native 4

(* A workdir left behind by an earlier process with the same pid may hold
   another build's [steno_rt.cmi]; the host must not compile against it. *)
let test_stale_rt_cmi () =
  with_native @@ fun () ->
  Out_channel.with_open_bin
    (Filename.concat (Dynload.workdir ()) "steno_rt.cmi")
    (fun oc -> output_string oc "not the interface this host carries");
  check_group_on_native 3

(* Exception parity: all backends raise the same exception for an empty
   sequence, whatever path (iterator, fused closure, compiled plugin with
   message translation) produced it. *)

let test_exception_parity_all_backends () =
  let backends =
    if Steno.native_available () then
      [ Steno.Linq; Steno.Fused; Steno.Native ]
    else [ Steno.Linq; Steno.Fused ]
  in
  List.iter
    (fun b ->
      let sq = Query.min_elt (ints [||]) in
      Alcotest.check_raises
        (Steno.backend_name b ^ " raises No_such_element")
        Iterator.No_such_element
        (fun () -> ignore (Steno.scalar ~backend:b sq)))
    backends

(* Two hundred generated plans through one Native engine: every plugin
   is built by the resident compile workers, and every result matches
   [Reference].  Each plan is then rebuilt over fresh data of the same
   length, which the plan memo must serve, also matching [Reference]. *)
let test_generated_plans () =
  with_native @@ fun () ->
  let eng = engine ~fallback:false Steno.Native in
  let memo_hits () =
    Metrics.counter_value
      (Metrics.counter (Steno.Engine.metrics eng) "steno_plan_memo"
         ~labels:[ "result", "hit" ])
  in
  let plans =
    QCheck.Gen.generate ~rand:(Random.State.make [| 16 |]) ~n:200
      Plan_gen.pipeline
  in
  List.iteri
    (fun i (ops, data) ->
      let check name q =
        let p = Steno.Engine.prepare eng q in
        Alcotest.(check bool)
          (Printf.sprintf "plan %d%s ran native" i name)
          true
          ((Steno.Prepared.compile_info p).Steno.backend = Steno.Native);
        Alcotest.(check (list int))
          (Printf.sprintf "plan %d%s" i name)
          (Reference.to_list q)
          (Array.to_list (Steno.Prepared.run p))
      in
      check "" (Plan_gen.build (ops, data));
      let hits = memo_hits () in
      check " rebuilt"
        (Plan_gen.build (ops, Array.map (fun x -> ((x * 7) + 3) mod 21) data));
      Alcotest.(check int)
        (Printf.sprintf "plan %d rebuilt: memo hit" i)
        (hits + 1) (memo_hits ()))
    plans;
  let misses = (Steno.Engine.cache_stats eng).Steno.Engine.misses in
  Alcotest.(check bool)
    (Printf.sprintf "%d plugins compiled" misses)
    true (misses >= 100)

(* {2 The plan memo}

   A prepare whose unoptimized root matches an earlier one runs the
   earlier plugin on its own captures.  Each case prepares two roots
   that must not share an entry, then both again with fresh captures,
   which must hit.  Every prepare is held against a fresh engine's full
   prepare of the same root: result (and [Reference]), rewrite log,
   diagnostics, backend, and the plugin source, read from the engines'
   disk stores (a [.key] file holds the source a plugin was built
   from). *)

let temp_seq = ref 0

let with_temp_dir f =
  incr temp_seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "steno-test-memo-%d-%d" (Unix.getpid ()) !temp_seq)
  in
  Unix.mkdir d 0o700;
  let rec rm_rf d =
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Unix.rmdir d
  in
  (* Stores are written in the background: let them land first. *)
  Fun.protect
    ~finally:(fun () ->
      Pcache.flush ();
      rm_rf d)
    (fun () -> f d)

let memo_engine ?(cache_capacity = 128) ?dir reg =
  let cfg =
    Steno.Config.(
      default |> with_backend Steno.Native |> with_metrics reg
      |> with_fallback false
      |> with_cache_capacity cache_capacity)
  in
  let cfg =
    match dir with
    | None -> cfg
    | Some dir -> Steno.Config.with_disk_cache ~dir cfg
  in
  Steno.Engine.create cfg

let memo_count reg result =
  Metrics.counter_value
    (Metrics.counter reg "steno_plan_memo" ~labels:[ "result", result ])

let compiles reg =
  Metrics.counter_value
    (Metrics.counter reg "steno_compile" ~labels:[ "result", "ok" ])

(* The sources of every plugin in an engine's disk store, once the
   stores queued so far have landed. *)
let store_sources eng =
  Pcache.flush ();
  (* A [.key] file holds the plugin's key, then the record of the prepare
     that compiled it. *)
  let key_of content =
    match Pcache.decode_record content with
    | None -> content
    | Some r ->
      String.sub content 0
        (String.length content
        - String.length (Pcache.encode_record ~key:"" r))
  in
  match Steno.Engine.pcache_dir eng with
  | None -> []
  | Some d ->
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".key")
    |> List.map (fun f ->
           key_of
             (In_channel.with_open_bin (Filename.concat d f)
                In_channel.input_all))
    |> List.sort compare

type view = {
  v_result : string;
  v_info : Steno.compile_info;
  v_log : string list;
  v_diags : string list;
  v_backend : Steno.backend;
}

let view show p =
  {
    v_result = show (Steno.Prepared.run p);
    v_info = Steno.Prepared.compile_info p;
    v_log = Steno.Prepared.rewrite_log p;
    v_diags = List.map Check.to_string (Steno.Prepared.diagnostics p);
    v_backend = Steno.Prepared.backend_used p;
  }

(* A root to prepare, with its [Reference] answer. *)
type step = { prep : Steno.Engine.t -> view; expected : string }

let scalar_step sq =
  {
    prep = (fun eng -> view string_of_int (Steno.Engine.prepare_scalar eng sq));
    expected = string_of_int (Reference.scalar sq);
  }

let rows_step show q =
  {
    prep =
      (fun eng ->
        view (fun a -> show (Array.to_list a)) (Steno.Engine.prepare eng q));
    expected = show (Reference.to_list q);
  }

(* [steps] are [a; b; a'; b']: [a'] and [b'] rebuild [a] and [b] with
   fresh captures. *)
let check_memo_case steps () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let reg = Metrics.create () in
  let eng = memo_engine ~dir reg in
  let ran = Array.make (List.length steps) "" in
  List.iteri
    (fun i st ->
      let name = Printf.sprintf "step %d: %s" i in
      let repeats = if i >= 2 then Some (i - 2) else None in
      let before = store_sources eng and hits = memo_count reg "hit" in
      let v = st.prep eng in
      let after = store_sources eng in
      let fresh, fresh_source =
        with_temp_dir @@ fun fdir ->
        let feng = memo_engine ~dir:fdir (Metrics.create ()) in
        let fv = st.prep feng in
        match store_sources feng with
        | [ src ] -> fv, src
        | l -> Alcotest.failf "fresh engine stored %d plugins" (List.length l)
      in
      Alcotest.(check bool) (name "memo hit") (repeats <> None)
        (memo_count reg "hit" > hits);
      Alcotest.(check string) (name "reference") st.expected v.v_result;
      Alcotest.(check string) (name "fresh result") fresh.v_result v.v_result;
      Alcotest.(check (list string)) (name "rewrite log") fresh.v_log v.v_log;
      Alcotest.(check (list string)) (name "diagnostics") fresh.v_diags
        v.v_diags;
      Alcotest.(check bool) (name "backend") true
        (v.v_backend = Steno.Native && fresh.v_backend = Steno.Native);
      (match repeats with
      | Some j ->
        Alcotest.(check (list string)) (name "no new plugin") before after;
        Alcotest.(check bool) (name "cache hit, no codegen") true
          (v.v_info.Steno.cache_hit && v.v_info.Steno.codegen_ms = 0.0
         && v.v_info.Steno.compile_ms = 0.0);
        ran.(i) <- ran.(j)
      | None -> (
        match List.filter (fun s -> not (List.mem s before)) after with
        | [ src ] -> ran.(i) <- src
        | [] ->
          (* The full pipeline found the plugin of an earlier step. *)
          Alcotest.(check bool) (name "plugin already held") true
            (List.mem fresh_source before);
          ran.(i) <- fresh_source
        | _ -> Alcotest.fail (name "several plugins stored")));
      Alcotest.(check string) (name "plugin source") fresh_source ran.(i))
    steps

let sum_above xs p =
  ints xs
  |> Query.where (fun x -> I.(x > Expr.capture Ty.Int p))
  |> Query.sum_int

let test_memo_empty_source =
  check_memo_case
    (List.map scalar_step
       [
         sum_above [||] 1;
         sum_above [| 1; 5; 2; 9; 3 |] 2;
         sum_above [||] 3;
         sum_above [| 9; 8; 7; 6; 5 |] 6;
       ])

let skip_100 n p =
  ints (Array.init n (fun i -> (i * 13) mod 101))
  |> Query.skip 100
  |> Query.select (fun x -> I.(x + Expr.capture Ty.Int p))
  |> Query.sum_int

let test_memo_skip =
  check_memo_case
    (List.map scalar_step
       [ skip_100 50 1; skip_100 2048 2; skip_100 50 3; skip_100 2048 4 ])

let self_join xs ys =
  let show l =
    String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l)
  in
  rows_step show
    (ints xs
    |> Query.join ~inner:(ints ys)
         ~outer_key:(fun x -> I.(x mod Expr.int 3))
         ~inner_key:(fun y -> I.(y mod Expr.int 3))
         ~result:(fun x y -> Expr.Pair (x, y)))

let test_memo_join =
  let a = [| 1; 2; 3; 4; 5; 6 |] and b = [| 7; 8; 9; 10; 11; 12 |] in
  let c = [| 3; 1; 4; 1; 5; 9 |] and d = [| 2; 7; 1; 8; 2; 8 |] in
  check_memo_case [ self_join a a; self_join a b; self_join c c; self_join c d ]

let between lo hi =
  ints [| 4; 9; 1; 7; 3; 8; 5 |]
  |> Query.where (fun x -> I.(x >= Expr.capture Ty.Int lo))
  |> Query.where (fun x -> I.(x <= Expr.capture Ty.Int hi))
  |> Query.count

let test_memo_int_aliasing =
  check_memo_case
    (List.map scalar_step
       [ between 5 5; between 3 8; between 7 7; between 2 4 ])

(* [scale k] is a fresh closure on every call. *)
let scale k x = x * k

let host_fns f g =
  let fn h = Expr.capture (Ty.Func (Ty.Int, Ty.Int)) h in
  ints [| 3; 1; 4; 1; 5 |]
  |> Query.select (fun x -> Expr.Apply (fn f, Expr.Apply (fn g, x)))
  |> Query.sum_int

let test_memo_host_function =
  let shared k =
    let h = scale k in
    host_fns h h
  in
  check_memo_case
    (List.map scalar_step
       [
         shared 2;
         host_fns (scale 3) (scale 5);
         shared 7;
         host_fns (scale 2) (scale 9);
       ])

(* A captured modulus is unknown when the plugin is built, so its keys
   take a hash table, never a dense array sized for one modulus: a memo
   hit that rebinds a larger modulus must still answer in range. *)
let group_mod_q xs p =
  ints xs
  |> Query.group_by (fun x -> I.(x mod Expr.capture Ty.Int p))
  |> Query.select (fun g ->
         Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g)))

let group_mod xs p =
  let show l =
    String.concat ";" (List.map (fun (k, n) -> Printf.sprintf "%d:%d" k n) l)
  in
  rows_step show (group_mod_q xs p)

let test_memo_captured_modulus () =
  let src = Steno.generated_source (group_mod_q [| 1 |] 3) in
  let needle = "Steno_rt.Int_tbl.find" in
  let n = String.length needle in
  let rec has i =
    i + n <= String.length src && (String.sub src i n = needle || has (i + 1))
  in
  if not (has 0) then Alcotest.failf "captured modulus not hashed:\n%s" src;
  let xs n = Array.init n (fun i -> ((i * 7919) mod 20011) - 10005) in
  check_memo_case
    [
      group_mod (xs 40) 3;
      group_mod (xs 90) 5;
      group_mod (xs 40) 1000;
      group_mod (xs 90) 100_000;
    ]
    ()

(* {2 Metrics}

   The engine keeps its prepare-path counters as handles built once; a
   scrape after a fixed sequence of prepares must read exactly as when
   every prepare looked them up in the registry. *)

let metrics_script () =
  with_temp_dir @@ fun dir ->
  let reg = Metrics.create () in
  let first = memo_engine ~dir reg in
  let prep eng sq = ignore (Steno.Engine.scalar eng sq) in
  prep first (sum_above [| 1; 5; 2; 9 |] 2);
  prep first (sum_above [| 4; 8; 3; 3 |] 3);
  prep first (host_fns (scale 2) (scale 3));
  prep first (between 2 7);
  prep first
    (ints [| 3; 1; 4; 1; 5 |]
    |> Query.where (fun x -> I.(x > Expr.int 0))
    |> Query.where (fun x -> I.(x > Expr.int 1))
    |> Query.count);
  let second = memo_engine ~dir reg in
  prep second (sum_above [| 7 |] 4);
  let strict =
    Steno.Session.create ~config:Steno.Config.(with_strict true) second
      ~client_id:"strict"
  in
  ignore (Steno.Session.prepare_scalar strict (sum_above [| 6; 2 |] 1));
  Metrics.render reg

(* The scrape before the handles were cached, byte for byte. *)
let metrics_golden =
  {|# HELP check_diagnostics Diagnostics emitted by prepare-time static checks
# TYPE check_diagnostics counter
check_diagnostics_total{rule="SC001",severity="warning"} 1
check_diagnostics_total{rule="SC011",severity="hint"} 1
# HELP steno_compile External compiler invocations (cache hits and deduplicated prepares do not count)
# TYPE steno_compile counter
steno_compile_total{result="ok"} 4
# HELP steno_pcache_evictions Entries evicted from the persistent on-disk cache by its caps
# TYPE steno_pcache_evictions counter
steno_pcache_evictions_total 0
# HELP steno_pcache_hits Plugin loads served from the persistent on-disk cache
# TYPE steno_pcache_hits counter
steno_pcache_hits_total 1
# HELP steno_pcache_misses Persistent-cache lookups that found no usable entry (including corrupt artifacts dropped at load time)
# TYPE steno_pcache_misses counter
steno_pcache_misses_total 4
# HELP steno_pcache_store_dropped Plugins and records not written to the persistent on-disk cache because its publisher's queue was full
# TYPE steno_pcache_store_dropped counter
steno_pcache_store_dropped_total 0
# HELP steno_pda_checks Strict-mode PDA acceptance checks at prepare time
# TYPE steno_pda_checks counter
steno_pda_checks_total 1
# HELP steno_plan_memo Native prepares eligible for the plan memo, by whether an earlier prepare of the same root served them
# TYPE steno_plan_memo counter
steno_plan_memo_total{result="hit"} 1
steno_plan_memo_total{result="miss"} 6
# HELP steno_run_ms Wall time of profiled query runs (milliseconds)
# TYPE steno_run_ms histogram
steno_run_ms_bucket{backend="native",client="strict",le="0.001"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.002"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.004"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.008"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.016"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.032"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.064"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.128"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.256"} 0
steno_run_ms_bucket{backend="native",client="strict",le="0.512"} 0
steno_run_ms_bucket{backend="native",client="strict",le="1.024"} 0
steno_run_ms_bucket{backend="native",client="strict",le="2.048"} 0
steno_run_ms_bucket{backend="native",client="strict",le="4.096"} 0
steno_run_ms_bucket{backend="native",client="strict",le="8.192"} 0
steno_run_ms_bucket{backend="native",client="strict",le="16.384"} 0
steno_run_ms_bucket{backend="native",client="strict",le="32.768"} 0
steno_run_ms_bucket{backend="native",client="strict",le="65.536"} 0
steno_run_ms_bucket{backend="native",client="strict",le="131.072"} 0
steno_run_ms_bucket{backend="native",client="strict",le="262.144"} 0
steno_run_ms_bucket{backend="native",client="strict",le="524.288"} 0
steno_run_ms_bucket{backend="native",client="strict",le="1048.576"} 0
steno_run_ms_bucket{backend="native",client="strict",le="+Inf"} 0
steno_run_ms_sum{backend="native",client="strict"} 0
steno_run_ms_count{backend="native",client="strict"} 0
# HELP steno_runs Profiled query runs
# TYPE steno_runs counter
steno_runs_total{backend="native",client="strict"} 0
# HELP steno_verify Translation-validation outcomes for optimizer rewrites
# TYPE steno_verify counter
steno_verify_total{result="accepted"} 2
# EOF
|}

let test_metrics_render () =
  with_native @@ fun () ->
  Alcotest.(check string) "scrape" metrics_golden (metrics_script ())

(* The events the engine counts beside the prepare path: a tier
   promotion on a threshold-1 engine, a Native prepare that falls back
   under [Dynload.disabled], and one request through a [Server].  The
   bucket and sum values of the millisecond histograms (the server's
   queue wait, the session's profiled run) are times, so they are
   masked; everything else is compared byte for byte. *)
let events_script () =
  let reg = Metrics.create () in
  let native cfg =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Steno.Native |> with_metrics reg |> cfg)
  in
  let tiered = native (Steno.Config.with_tiering ~threshold:1) in
  let p = Steno.Engine.prepare_scalar tiered (sum_above [| 1; 5; 2; 9 |] 2) in
  ignore (Steno.Prepared_scalar.run p);
  let promoted () =
    Steno.Prepared_scalar.backend_used p = Steno.Native
    && Metrics.counter_value
         (Metrics.counter reg "steno_tier_promotions"
            ~labels:[ "result", "ok" ])
       = 1
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while (not (promoted ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "promoted" true (promoted ());
  let fallback = native Fun.id in
  Dynload.disabled := true;
  Fun.protect ~finally:(fun () -> Dynload.disabled := false) (fun () ->
      Alcotest.(check int) "fallback answer" 14
        (Steno.Engine.scalar fallback (sum_above [| 1; 5; 9 |] 2)));
  let srv = Server.create ~max_inflight:1 ~max_queue:0 (native Fun.id) in
  (match
     Server.submit srv ~client_id:"golden" (fun sess ->
         Steno.Prepared_scalar.run
           (Steno.Session.prepare_scalar sess (sum_above [| 3; 4 |] 3)))
   with
  | Server.Done v -> Alcotest.(check int) "served" 4 v
  | _ -> Alcotest.fail "request not served");
  Server.shutdown srv;
  String.split_on_char '\n' (Metrics.render reg)
  |> List.map (fun line ->
         let name =
           List.hd (String.split_on_char '{' line)
           |> String.split_on_char ' ' |> List.hd
         in
         let timed =
           List.exists
             (fun suffix -> String.ends_with ~suffix name)
             [ "_ms_bucket"; "_ms_sum" ]
         in
         match String.rindex_opt line ' ' with
         | Some i when timed -> String.sub line 0 i ^ " _"
         | _ -> line)
  |> String.concat "\n"

(* The scrape before the events were counted through one table, byte for
   byte. *)
let events_golden =
  {|# HELP steno_compile External compiler invocations (cache hits and deduplicated prepares do not count)
# TYPE steno_compile counter
steno_compile_total{result="ok"} 2
steno_compile_total{result="error"} 1
# HELP steno_plan_memo Native prepares eligible for the plan memo, by whether an earlier prepare of the same root served them
# TYPE steno_plan_memo counter
steno_plan_memo_total{result="hit"} 0
steno_plan_memo_total{result="miss"} 2
# HELP steno_run_ms Wall time of profiled query runs (milliseconds)
# TYPE steno_run_ms histogram
steno_run_ms_bucket{backend="native",client="golden",le="0.001"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.002"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.004"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.008"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.016"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.032"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.064"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.128"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.256"} _
steno_run_ms_bucket{backend="native",client="golden",le="0.512"} _
steno_run_ms_bucket{backend="native",client="golden",le="1.024"} _
steno_run_ms_bucket{backend="native",client="golden",le="2.048"} _
steno_run_ms_bucket{backend="native",client="golden",le="4.096"} _
steno_run_ms_bucket{backend="native",client="golden",le="8.192"} _
steno_run_ms_bucket{backend="native",client="golden",le="16.384"} _
steno_run_ms_bucket{backend="native",client="golden",le="32.768"} _
steno_run_ms_bucket{backend="native",client="golden",le="65.536"} _
steno_run_ms_bucket{backend="native",client="golden",le="131.072"} _
steno_run_ms_bucket{backend="native",client="golden",le="262.144"} _
steno_run_ms_bucket{backend="native",client="golden",le="524.288"} _
steno_run_ms_bucket{backend="native",client="golden",le="1048.576"} _
steno_run_ms_bucket{backend="native",client="golden",le="+Inf"} _
steno_run_ms_sum{backend="native",client="golden"} _
steno_run_ms_count{backend="native",client="golden"} 1
# HELP steno_runs Profiled query runs
# TYPE steno_runs counter
steno_runs_total{backend="native",client="golden"} 1
# HELP steno_server_queue_ms Time admitted requests spent waiting for an execution slot
# TYPE steno_server_queue_ms histogram
steno_server_queue_ms_bucket{le="0.001"} _
steno_server_queue_ms_bucket{le="0.002"} _
steno_server_queue_ms_bucket{le="0.004"} _
steno_server_queue_ms_bucket{le="0.008"} _
steno_server_queue_ms_bucket{le="0.016"} _
steno_server_queue_ms_bucket{le="0.032"} _
steno_server_queue_ms_bucket{le="0.064"} _
steno_server_queue_ms_bucket{le="0.128"} _
steno_server_queue_ms_bucket{le="0.256"} _
steno_server_queue_ms_bucket{le="0.512"} _
steno_server_queue_ms_bucket{le="1.024"} _
steno_server_queue_ms_bucket{le="2.048"} _
steno_server_queue_ms_bucket{le="4.096"} _
steno_server_queue_ms_bucket{le="8.192"} _
steno_server_queue_ms_bucket{le="16.384"} _
steno_server_queue_ms_bucket{le="32.768"} _
steno_server_queue_ms_bucket{le="65.536"} _
steno_server_queue_ms_bucket{le="131.072"} _
steno_server_queue_ms_bucket{le="262.144"} _
steno_server_queue_ms_bucket{le="524.288"} _
steno_server_queue_ms_bucket{le="1048.576"} _
steno_server_queue_ms_bucket{le="+Inf"} _
steno_server_queue_ms_sum _
steno_server_queue_ms_count 1
# HELP steno_server_requests Requests submitted to the query server, by final outcome
# TYPE steno_server_requests counter
steno_server_requests_total 0
steno_server_requests_total{client="golden",outcome="ok"} 1
# HELP steno_tier_promotions Background tier promotions of hot prepared queries (Fused -> Native)
# TYPE steno_tier_promotions counter
steno_tier_promotions_total{result="ok"} 1
# EOF
|}

let test_events_render () =
  with_native @@ fun () ->
  Alcotest.(check string) "scrape" events_golden (events_script ())

(* An empty array that is captured but is no source has no length in
   the key, and the capture table merges it with the empty array that
   replaces a collapsed subquery.  Such a plugin stays out of the memo: a
   hit could not tell which of the two a non-empty capture replaces.  The
   plugin built for a non-empty capture keeps them apart, so it serves
   both. *)
let test_memo_unsized_empty () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let eng = memo_engine reg in
  let plan arr =
    ints [| 1; 2; 3 |]
    |> Query.select_sq (fun x ->
           Query.range ~start:0 ~count:0
           |> Query.select (fun y -> I.(y + x))
           |> Query.sum_int)
    |> Query.select (fun v ->
           I.(v + Expr.Array_length (Expr.capture (Ty.Array Ty.Int) arr)))
    |> Query.sum_int
  in
  List.iteri
    (fun i arr ->
      Alcotest.(check int)
        (Printf.sprintf "step %d: %d-element capture" i (Array.length arr))
        (Reference.scalar (plan arr))
        (Steno.Engine.scalar eng (plan arr));
      if i = 0 then
        Alcotest.(check int) "nothing recorded" 0 (Steno.Engine.memo_size eng))
    [ [||]; [| 5; 6 |]; [||]; [| 7 |] ];
  Alcotest.(check int) "hits" 2 (memo_count reg "hit")

(* A memo entry whose plugin the plugin cache has evicted is a miss, and
   that prepare counts one plugin-cache miss, not two.  A profiling
   session shares the plugin cache but bypasses the memo, so its plugin can
   push the memo's out. *)
let test_memo_evicted_plugin () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let eng = memo_engine ~cache_capacity:1 reg in
  let profiling =
    Steno.Session.create eng ~client_id:"profiling"
      ~config:(Steno.Config.with_profile true)
  in
  let run p = Steno.Engine.scalar eng (sum_above [| 4; 7; 1 |] p) in
  Alcotest.(check int) "first" 11 (run 1);
  Alcotest.(check int) "profiled" 11
    (Steno.Session.scalar profiling (sum_above [| 4; 7; 1 |] 1));
  Alcotest.(check int) "after eviction" 7 (run 5);
  Alcotest.(check int) "no hit" 0 (memo_count reg "hit");
  Alcotest.(check int) "two memo misses" 2 (memo_count reg "miss");
  Alcotest.(check int) "three plugin-cache misses" 3
    (Steno.Engine.cache_stats eng).Steno.Engine.misses;
  Alcotest.(check int) "three compiles" 3 (compiles reg)

(* Under an active trace, a hit carries the plan and the cache outcome a
   full prepare would have annotated. *)
let test_memo_traced () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Steno.Native |> with_metrics reg
        |> with_fallback false |> with_tracing)
  in
  let tracer = Steno.Engine.tracer eng in
  let request p =
    Trace.with_trace tracer "request" (fun () ->
        Steno.Engine.scalar eng (sum_above [| 4; 7; 1 |] p))
  in
  Alcotest.(check int) "miss" 11 (request 1);
  Alcotest.(check int) "hit" 7 (request 5);
  Alcotest.(check int) "one hit" 1 (memo_count reg "hit");
  match
    List.map Trace.attrs
      (List.filter (fun tr -> Trace.root tr = "request") (Trace.traces tracer))
  with
  | [ a; b ] ->
    let get attrs k =
      Option.value (List.assoc_opt k attrs) ~default:"(missing)"
    in
    Alcotest.(check bool) "plan annotated" true
      (String.length (get a "plan") > 0);
    Alcotest.(check string) "same plan" (get a "plan") (get b "plan");
    Alcotest.(check (list string)) "cache outcomes" [ "hit"; "miss" ]
      (List.sort compare [ get a "cache"; get b "cache" ])
  | l -> Alcotest.failf "%d request traces" (List.length l)

(* {2 The plan memo on disk}

   Engine A prepares a root; a fresh engine B on the same store prepares
   it again with other capture values of the same lengths, as a
   restarted process does.  The two filters give the plan a rewrite
   (where-fuse), and the skip a diagnostic (SC002). *)

let filtered xs p =
  ints xs
  |> Query.where (fun x -> I.(x > Expr.capture Ty.Int p))
  |> Query.where (fun x -> I.(x < Expr.int 100))
  |> Query.skip 1
  |> Query.select (fun x -> I.(x * Expr.int 3))

let strict_engine ~dir reg =
  Steno.Engine.create
    Steno.Config.(
      default |> with_backend Steno.Native |> with_metrics reg
      |> with_fallback false |> with_strict true |> with_disk_cache ~dir)

let counter reg name labels =
  Metrics.counter_value (Metrics.counter reg name ~labels)

(* Every [check_diagnostics] series in a registry. *)
let diagnostic_series reg =
  String.split_on_char '\n' (Metrics.render reg)
  |> List.filter (String.starts_with ~prefix:"check_diagnostics")

let prepare_filtered eng xs p =
  let q = filtered xs p in
  let got = Steno.Engine.prepare eng q in
  Alcotest.(check (list int)) "reference" (Reference.to_list q)
    (Array.to_list (Steno.Prepared.run got));
  got

let store_files eng suffix =
  Pcache.flush ();
  match Steno.Engine.pcache_dir eng with
  | None -> []
  | Some d ->
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.map (Filename.concat d)

let test_memo_disk_hit () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let reg_a = Metrics.create () in
  let a = strict_engine ~dir reg_a in
  let pa = prepare_filtered a [| 5; 1; 9; 12; 3 |] 2 in
  Alcotest.(check int) "A compiles" 1 (compiles reg_a);
  Alcotest.(check bool) "A validates a rewrite" true
    (counter reg_a "steno_verify" [ "result", "accepted" ] > 0);
  Alcotest.(check bool) "A has a diagnostic" true
    (diagnostic_series reg_a <> []);
  Alcotest.(check int) "one record" 1 (List.length (store_files a ".rec"));
  let reg_b = Metrics.create () in
  let b = strict_engine ~dir reg_b in
  let pb = prepare_filtered b [| 8; 0; 4; 11; 6 |] 4 in
  Alcotest.(check int) "B: a memo hit" 1 (memo_count reg_b "hit");
  Alcotest.(check int) "B: no compile" 0 (compiles reg_b);
  Alcotest.(check int) "B: no validation" 0
    (counter reg_b "steno_verify" [ "result", "accepted" ]
    + counter reg_b "steno_verify" [ "result", "rejected" ]);
  Alcotest.(check int) "B: no PDA check" 0
    (counter reg_b "steno_pda_checks" []);
  Alcotest.(check bool) "A ran a PDA check" true
    (counter reg_a "steno_pda_checks" [] > 0);
  Alcotest.(check (list string)) "diagnostic counts replay"
    (diagnostic_series reg_a) (diagnostic_series reg_b);
  Alcotest.(check (list string)) "rewrite log" (Steno.Prepared.rewrite_log pa)
    (Steno.Prepared.rewrite_log pb);
  Alcotest.(check (list string)) "diagnostics"
    (List.map Check.to_string (Steno.Prepared.diagnostics pa))
    (List.map Check.to_string (Steno.Prepared.diagnostics pb));
  let i = Steno.Prepared.compile_info pb in
  Alcotest.(check bool) "cache hit, no codegen" true
    (i.Steno.cache_hit && i.Steno.codegen_ms = 0.0 && i.Steno.compile_ms = 0.0);
  (* The hit filled B's memo: the next prepare is served in memory. *)
  ignore (prepare_filtered b [| 2; 2; 2; 2; 2 |] 1);
  Alcotest.(check int) "B: second hit" 2 (memo_count reg_b "hit");
  Alcotest.(check int) "B: one disk hit" 1
    (counter reg_b "steno_pcache_hits" []);
  (* Another length is another shape: B prepares it in full, finds the
     plugin by its source, and writes the new shape's record. *)
  ignore (prepare_filtered b [| 1; 2; 3 |] 1);
  Alcotest.(check int) "B: still no compile" 0 (compiles reg_b);
  Alcotest.(check int) "two records" 2 (List.length (store_files b ".rec"));
  let reg_c = Metrics.create () in
  ignore (prepare_filtered (strict_engine ~dir reg_c) [| 9; 8; 7 |] 0);
  Alcotest.(check int) "C: the later record hits" 1 (memo_count reg_c "hit")

(* A record written by another build of the generator misses, and the
   prepare that follows writes this build's. *)
let test_memo_disk_other_generator () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let a = strict_engine ~dir (Metrics.create ()) in
  ignore (prepare_filtered a [| 5; 1; 9 |] 2);
  List.iter
    (fun path ->
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      match Pcache.decode_record bytes with
      | None -> Alcotest.fail "undecodable record"
      | Some r ->
        let name = r.Pcache.name in
        let other =
          String.make 32 '0' ^ String.sub name 32 (String.length name - 32)
        in
        (* Renamed into place: the record is a hard link to the plugin's
           [.key], which must keep its content. *)
        let tmp = path ^ ".planted" in
        Out_channel.with_open_bin tmp (fun oc ->
            output_string oc
              (Pcache.encode_record ~key:"" { r with Pcache.name = other }));
        Sys.rename tmp path)
    (store_files a ".rec");
  let reg_b = Metrics.create () in
  let b = strict_engine ~dir reg_b in
  ignore (prepare_filtered b [| 8; 0; 4 |] 4);
  Alcotest.(check int) "B: a memo miss" 0 (memo_count reg_b "hit");
  Alcotest.(check int) "B: the plugin found by its source" 0 (compiles reg_b);
  Alcotest.(check bool) "B validated again" true
    (counter reg_b "steno_verify" [ "result", "accepted" ] > 0);
  let reg_c = Metrics.create () in
  ignore (prepare_filtered (strict_engine ~dir reg_c) [| 3; 3; 3 |] 1);
  Alcotest.(check int) "C: B's record hits" 1 (memo_count reg_c "hit")

(* A record whose plugin was evicted misses and goes; the prepare
   compiles again and records afresh. *)
let test_memo_disk_evicted () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let a = strict_engine ~dir (Metrics.create ()) in
  ignore (prepare_filtered a [| 5; 1; 9 |] 2);
  let recs = store_files a ".rec" in
  List.iter Sys.remove (store_files a ".cmxs" @ store_files a ".key");
  let reg_b = Metrics.create () in
  let b = strict_engine ~dir reg_b in
  (match Steno.Engine.pcache_stats b with
  | Some st ->
    Alcotest.(check int) "the stale record is there" 1 st.Pcache.st_records
  | None -> Alcotest.fail "no store");
  ignore (prepare_filtered b [| 8; 0; 4 |] 4);
  Alcotest.(check int) "B: a memo miss" 0 (memo_count reg_b "hit");
  Alcotest.(check int) "B: compiles" 1 (compiles reg_b);
  (* The stale record was deleted, and the compile linked a new one
     under the same name. *)
  Alcotest.(check (list string)) "one record, same name" recs
    (store_files b ".rec");
  let reg_c = Metrics.create () in
  ignore (prepare_filtered (strict_engine ~dir reg_c) [| 3; 3; 3 |] 1);
  Alcotest.(check int) "C: hits" 1 (memo_count reg_c "hit")

(* Ten thousand plans that differ only in their source's length: one
   plugin, ten thousand memo keys, a memo bounded by the capacity. *)
let test_memo_bounded () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let capacity = 64 in
  let eng = memo_engine ~cache_capacity:capacity reg in
  for n = 1 to 10_000 do
    let sq =
      ints (Array.make n 2)
      |> Query.select (fun x -> I.(x + Expr.int 1))
      |> Query.sum_int
    in
    if Steno.Engine.scalar eng sq <> 3 * n then
      Alcotest.failf "wrong sum over %d rows" n
  done;
  Alcotest.(check bool)
    (Printf.sprintf "memo holds %d <= %d" (Steno.Engine.memo_size eng) capacity)
    true
    (Steno.Engine.memo_size eng <= capacity);
  Alcotest.(check int) "every plan missed" 10_000 (memo_count reg "miss");
  Alcotest.(check int) "one compile" 1 (compiles reg)

let test_memo_clear_cache () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let eng = memo_engine reg in
  let prepare p = Steno.Engine.prepare_scalar eng (sum_above [| 4; 7; 1 |] p) in
  let info p = Steno.Prepared_scalar.compile_info p in
  ignore (prepare 1);
  let hit = prepare 2 in
  Alcotest.(check int) "hit result" 11 (Steno.Prepared_scalar.run hit);
  Alcotest.(check int) "one hit" 1 (memo_count reg "hit");
  Steno.Engine.clear_cache eng;
  Alcotest.(check int) "memo emptied" 0 (Steno.Engine.memo_size eng);
  let again = prepare 5 in
  Alcotest.(check int) "result after clear" 7 (Steno.Prepared_scalar.run again);
  Alcotest.(check int) "still one hit" 1 (memo_count reg "hit");
  Alcotest.(check int) "two misses" 2 (memo_count reg "miss");
  Alcotest.(check bool) "full prepare" false (info again).Steno.cache_hit;
  Alcotest.(check int) "compiled again" 2 (compiles reg)

(* Four domains over eight shapes, every prepare with fresh captures. *)
let test_memo_domains () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let eng = memo_engine reg in
  let shape k xs p =
    let rec grow e n = if n = 0 then e else grow I.(e + Expr.int 1) (n - 1) in
    ints xs
    |> Query.where (fun x -> I.(x > Expr.capture Ty.Int p))
    |> Query.select (fun x -> grow x k)
    |> Query.sum_int
  in
  let wrong = Atomic.make 0 in
  let worker d () =
    for i = 0 to 79 do
      let xs = Array.init 32 (fun j -> (j * (d + 3)) + i) in
      let sq = shape (i mod 8) xs (i mod 17) in
      if Steno.Engine.scalar eng sq <> Reference.scalar sq then
        Atomic.incr wrong
    done
  in
  List.iter Domain.join (List.init 4 (fun d -> Domain.spawn (worker d)));
  Alcotest.(check int) "every result equals Reference" 0 (Atomic.get wrong);
  Alcotest.(check int) "one compile per shape" 8 (compiles reg);
  Alcotest.(check int) "every prepare counted" 320
    (memo_count reg "hit" + memo_count reg "miss");
  Alcotest.(check bool) "hits" true (memo_count reg "hit" >= 320 - 32)

let () =
  Alcotest.run "engine"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "stats" `Quick test_lru_stats;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "on_evict callback" `Quick test_lru_on_evict;
        ] );
      ( "cache",
        [
          Alcotest.test_case "engine stats" `Quick test_engine_cache_stats;
          Alcotest.test_case "independence" `Quick test_engines_are_independent;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "compiler unavailable" `Quick
            test_fallback_compiler_unavailable;
          Alcotest.test_case "strict raises" `Quick test_fallback_disabled_raises;
          Alcotest.test_case "timeout" `Quick test_fallback_on_timeout;
          Alcotest.test_case "workdir gone" `Quick test_fallback_on_io_failure;
          Alcotest.test_case "stale runtime interface" `Quick test_stale_rt_cmi;
          Alcotest.test_case "exception parity" `Quick
            test_exception_parity_all_backends;
        ] );
      ( "workers",
        [ Alcotest.test_case "200 generated plans" `Slow test_generated_plans ] );
      ( "memo",
        [
          Alcotest.test_case "empty and non-empty source" `Quick
            test_memo_empty_source;
          Alcotest.test_case "skip over short and long source" `Quick
            test_memo_skip;
          Alcotest.test_case "self join and join" `Quick test_memo_join;
          Alcotest.test_case "equal and unequal int captures" `Quick
            test_memo_int_aliasing;
          Alcotest.test_case "host functions" `Quick test_memo_host_function;
          Alcotest.test_case "captured modulus" `Quick test_memo_captured_modulus;
          Alcotest.test_case "captured empty array" `Quick
            test_memo_unsized_empty;
          Alcotest.test_case "evicted plugin" `Quick test_memo_evicted_plugin;
          Alcotest.test_case "traced hit" `Quick test_memo_traced;
          Alcotest.test_case "bounded" `Quick test_memo_bounded;
          Alcotest.test_case "clear_cache" `Quick test_memo_clear_cache;
          Alcotest.test_case "domains" `Quick test_memo_domains;
          Alcotest.test_case "disk record" `Quick test_memo_disk_hit;
          Alcotest.test_case "disk record, other generator" `Quick
            test_memo_disk_other_generator;
          Alcotest.test_case "disk record, evicted plugin" `Quick
            test_memo_disk_evicted;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "scrape after prepares" `Quick test_metrics_render;
          Alcotest.test_case "scrape after events" `Quick test_events_render;
        ] );
    ]
