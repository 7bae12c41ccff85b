(* Engine values: the bounded LRU plugin cache and the Native -> Fused
   compile fallback. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let with_native f = if Steno.native_available () then f () else ()

let engine ?(fallback = true) ?(optimize = true) ?compile_timeout_ms
    ?(cache_capacity = 128) ?(telemetry = Telemetry.null) backend =
  Steno.Engine.create
    {
      Steno.Engine.default_config with
      backend;
      fallback;
      optimize;
      compile_timeout_ms;
      cache_capacity;
      telemetry;
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
       Dynload.compile_result ~source:"let () = ()" ()
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
   [Reference]. *)
let test_generated_plans () =
  with_native @@ fun () ->
  let eng = engine ~fallback:false Steno.Native in
  let plans =
    QCheck.Gen.generate ~rand:(Random.State.make [| 16 |]) ~n:200
      Plan_gen.pipeline
  in
  List.iteri
    (fun i plan ->
      let q = Plan_gen.build plan in
      let p = Steno.Engine.prepare eng q in
      Alcotest.(check bool)
        (Printf.sprintf "plan %d ran native" i)
        true
        ((Steno.Prepared.compile_info p).Steno.backend = Steno.Native);
      Alcotest.(check (list int))
        (Printf.sprintf "plan %d" i)
        (Reference.to_list q)
        (Array.to_list (Steno.Prepared.run p)))
    plans;
  let misses = (Steno.Engine.cache_stats eng).Steno.Engine.misses in
  Alcotest.(check bool)
    (Printf.sprintf "%d plugins compiled" misses)
    true (misses >= 100)

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
    ]
