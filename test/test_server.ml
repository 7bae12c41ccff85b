(* The serving layer under Domain-level concurrency: single-flight
   prepare deduplication (exactly one compile for N concurrent identical
   prepares), sharded LRU integrity under hammering, session accounting
   and tenant labels, result-returning prepare errors, and Server
   admission control / load shedding. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let with_native f = if Steno.native_available () then f () else ()

let data = [| 5; 2; 8; 2; 11; 14; 3; 8; 0; 7; 12; 9 |]

(* A family of structurally distinct scalar queries: [nth_query k] sums
   x + 1 + ... + 1 (k + 1 additions), so each k compiles separately. *)
let nth_query k xs =
  let rec grow e n = if n = 0 then e else grow I.(e + Expr.int 1) (n - 1) in
  Query.sum_int (ints xs |> Query.select (fun x -> grow x (k + 1)))

let engine ?(backend = Steno.Fused) ?(strict = false) ?(fallback = true)
    ?(cache_capacity = 128) ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  Steno.Engine.create
    {
      Steno.Engine.default_config with
      backend;
      strict;
      fallback;
      cache_capacity;
      metrics;
    }

(* A spin barrier: domains pile up on it and release together, so the
   engine really sees concurrent calls (even on one core the released
   domains interleave inside the compile window). *)
let barrier n =
  let waiting = Atomic.make 0 in
  fun () ->
    Atomic.incr waiting;
    while Atomic.get waiting < n do
      Domain.cpu_relax ()
    done

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* {2 Single-flight} *)

(* N domains prepare the same query at once: the compile counter must
   read exactly 1, and every domain other than the leader either joined
   the in-flight compile or hit the cache the leader populated. *)
let test_single_flight_one_compile () =
  with_native @@ fun () ->
  let reg = Metrics.create () in
  let eng = engine ~backend:Steno.Native ~metrics:reg () in
  let n = 4 in
  let enter = barrier n in
  let doms =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            enter ();
            Steno.Engine.scalar eng (nth_query 0 data)))
  in
  let expected = Reference.scalar (nth_query 0 data) in
  List.iter
    (fun d -> Alcotest.(check int) "all domains agree" expected (Domain.join d))
    doms;
  let compiles =
    Metrics.counter_value
      (Metrics.counter reg "steno_compile" ~labels:[ "result", "ok" ])
  in
  Alcotest.(check int) "exactly one compile" 1 compiles;
  let dedup =
    Metrics.counter_value (Metrics.counter reg "steno_prepare_dedup")
  in
  let s = Steno.Engine.cache_stats eng in
  Alcotest.(check int) "every non-leader joined or hit the cache" (n - 1)
    (dedup + s.Steno.Engine.hits)

(* Distinct queries from several domains: each compiles independently
   and must agree with the reference evaluator. *)
let test_distinct_queries_differential () =
  with_native @@ fun () ->
  let eng = engine ~backend:Steno.Native ~cache_capacity:64 () in
  let n = 4 in
  let per = 2 in
  let enter = barrier n in
  let doms =
    List.init n (fun d ->
        Domain.spawn (fun () ->
            enter ();
            List.init per (fun j ->
                let k = (d * per) + j in
                Steno.Engine.scalar eng (nth_query k data))))
  in
  List.iteri
    (fun d dom ->
      List.iteri
        (fun j got ->
          let k = (d * per) + j in
          Alcotest.(check int)
            (Printf.sprintf "query %d agrees with Reference" k)
            (Reference.scalar (nth_query k data))
            got)
        (Domain.join dom))
    doms

(* {2 Sharded LRU under load} *)

(* Hammer a sharded cache from several domains with overlapping key
   sets; afterwards the structure must be untorn: bounded, stats
   consistent, every surviving value still correct. *)
let test_lru_sharded_hammer () =
  let cap = 32 in
  let c = Steno_lru.create ~shards:8 ~capacity:cap () in
  let n = 4 in
  let ops = 5_000 in
  let enter = barrier n in
  let doms =
    List.init n (fun d ->
        Domain.spawn (fun () ->
            enter ();
            for i = 0 to ops - 1 do
              let k = Printf.sprintf "key-%d" (i * (d + 7) mod 97) in
              match Steno_lru.find c k with
              | Some v -> if v <> String.length k then failwith "torn value"
              | None -> ignore (Steno_lru.add c k (String.length k))
            done))
  in
  List.iter Domain.join doms;
  let s = Steno_lru.stats c in
  Alcotest.(check bool) "bounded by capacity" true (Steno_lru.length c <= cap);
  Alcotest.(check int) "entries agrees with length" (Steno_lru.length c)
    s.Steno_lru.entries;
  Alcotest.(check int) "every lookup accounted" (n * ops)
    (s.Steno_lru.hits + s.Steno_lru.misses);
  for i = 0 to 96 do
    let k = Printf.sprintf "key-%d" i in
    match Steno_lru.find c k with
    | Some v -> Alcotest.(check int) "survivor intact" (String.length k) v
    | None -> ()
  done

(* {2 Result-returning prepare} *)

let div_zero_query =
  ints data
  |> Query.where (fun x -> I.(x / (Expr.int 5 - Expr.int 5) > Expr.int 0))

let test_try_prepare_check_error () =
  let strict = engine ~strict:true () in
  (match Steno.Engine.try_prepare strict div_zero_query with
  | Error (Steno.Engine.Check_error errs) ->
    Alcotest.(check bool) "carries the errors" true (errs <> [])
  | Ok _ -> Alcotest.fail "strict try_prepare accepted a division by zero"
  | Error e ->
    Alcotest.failf "wrong error: %s" (Steno.Engine.error_message e));
  (* The raising wrapper agrees with the result surface. *)
  (match Steno.Engine.prepare strict div_zero_query with
  | exception Steno.Check_failed _ -> ()
  | _ -> Alcotest.fail "prepare did not raise where try_prepare refused");
  (* A lax engine prepares the same query and only records diagnostics. *)
  let lax = engine () in
  match Steno.Engine.try_prepare lax div_zero_query with
  | Ok p ->
    Alcotest.(check bool) "diagnostics recorded" true
      (Steno.Prepared.diagnostics p <> [])
  | Error e ->
    Alcotest.failf "lax engine refused: %s" (Steno.Engine.error_message e)

let test_try_prepare_compile_failure () =
  let eng = engine ~backend:Steno.Native ~fallback:false () in
  let was = !Dynload.disabled in
  Dynload.disabled := true;
  Fun.protect ~finally:(fun () -> Dynload.disabled := was) @@ fun () ->
  match Steno.Engine.try_prepare_scalar eng (nth_query 0 data) with
  | Error (Steno.Engine.Compile_failure Steno.Compiler_unavailable) -> ()
  | Ok _ -> Alcotest.fail "prepared with the compiler disabled"
  | Error e ->
    Alcotest.failf "wrong error: %s" (Steno.Engine.error_message e)

(* {2 Sessions} *)

let test_session_stats_and_labels () =
  let reg = Metrics.create () in
  let eng = engine ~metrics:reg () in
  let alice =
    Steno.Session.create eng ~client_id:"alice" ~labels:[ "tier", "gold" ]
  in
  let q = ints data |> Query.where (fun x -> I.(x > Expr.int 4)) in
  let p = Steno.Session.prepare alice q in
  ignore (Steno.Prepared.run p);
  ignore (Steno.Prepared.run p);
  ignore (Steno.Session.to_array alice q);
  let st = Steno.Session.stats alice in
  Alcotest.(check int) "prepares" 2 st.Steno.Session.prepares;
  Alcotest.(check int) "runs" 3 st.Steno.Session.runs;
  Alcotest.(check bool) "run time accumulates" true
    (st.Steno.Session.run_ms >= 0.0);
  let rendered = Metrics.render reg in
  Alcotest.(check bool) "client label rendered" true
    (contains rendered {|client="alice"|});
  Alcotest.(check bool) "tenant label rendered" true
    (contains rendered {|tier="gold"|});
  Alcotest.(check bool) "runs counter rendered" true
    (contains rendered "steno_runs_total");
  (* Cache control through a session is engine-scoped. *)
  Alcotest.(check int) "session sees the engine cache"
    (Steno.Engine.cache_size eng)
    (Steno.Session.cache_size alice)

(* Config overrides on a session apply to its prepares without touching
   the engine or sibling sessions. *)
let test_session_overrides () =
  let eng = engine () in
  let strict_sess =
    Steno.Session.create eng ~client_id:"strict"
      ~config:Steno.Config.(with_strict true)
  in
  let lax_sess = Steno.Session.create eng ~client_id:"lax" in
  (match Steno.Session.try_prepare strict_sess div_zero_query with
  | Error (Steno.Engine.Check_error _) -> ()
  | Ok _ -> Alcotest.fail "strict session accepted a division by zero"
  | Error e ->
    Alcotest.failf "wrong error: %s" (Steno.Engine.error_message e));
  (match Steno.Session.try_prepare lax_sess div_zero_query with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "lax session refused: %s" (Steno.Engine.error_message e));
  match Steno.Engine.try_prepare eng div_zero_query with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "engine itself changed: %s" (Steno.Engine.error_message e)

(* {2 Server admission control} *)

let test_server_admission_rejects () =
  let eng = engine () in
  let srv = Server.create ~max_inflight:1 ~max_queue:0 eng in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let blocker =
    Domain.spawn (fun () ->
        Server.submit srv ~client_id:"blocker" (fun _sess ->
            Atomic.set started true;
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            42))
  in
  (* Only proceed once the blocker holds the single execution slot. *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (match Server.submit srv ~client_id:"shed" (fun _ -> 0) with
  | Server.Rejected Server.Queue_full -> ()
  | Server.Rejected Server.Shutting_down ->
    Alcotest.fail "wrong rejection reason"
  | Server.Done _ | Server.Failed _ ->
    Alcotest.fail "second request must be shed, not run");
  Atomic.set gate true;
  (match Domain.join blocker with
  | Server.Done v -> Alcotest.(check int) "blocker completes" 42 v
  | _ -> Alcotest.fail "blocker did not complete");
  let st = Server.stats srv in
  Alcotest.(check int) "accepted" 1 st.Server.accepted;
  Alcotest.(check int) "completed" 1 st.Server.completed;
  Alcotest.(check int) "rejected" 1 st.Server.rejected;
  Alcotest.(check int) "inflight drained" 0 st.Server.inflight

let test_server_failure_and_shutdown () =
  let eng = engine () in
  let srv = Server.create ~max_inflight:2 ~max_queue:4 eng in
  (* A request that raises is contained as a value... *)
  (match Server.submit srv ~client_id:"bad" (fun _ -> failwith "boom") with
  | Server.Failed (Failure msg) ->
    Alcotest.(check string) "exception preserved" "boom" msg
  | _ -> Alcotest.fail "expected Failed");
  (* ...and the server keeps serving. *)
  (match
     Server.submit srv ~client_id:"ok" (fun sess ->
         Steno.Session.scalar sess (nth_query 0 data))
   with
  | Server.Done v ->
    Alcotest.(check int) "served after a failure"
      (Reference.scalar (nth_query 0 data))
      v
  | _ -> Alcotest.fail "expected Done");
  Server.shutdown srv;
  (match Server.submit srv ~client_id:"late" (fun _ -> 0) with
  | Server.Rejected Server.Shutting_down -> ()
  | _ -> Alcotest.fail "expected Shutting_down after shutdown");
  let st = Server.stats srv in
  Alcotest.(check int) "failed" 1 st.Server.failed;
  Alcotest.(check int) "completed" 1 st.Server.completed

let test_server_concurrent_load () =
  let eng = engine () in
  let srv = Server.create ~max_inflight:2 ~max_queue:64 eng in
  let n = 4 in
  let per = 8 in
  let expected = Array.fold_left ( + ) 0 data in
  let enter = barrier n in
  let doms =
    List.init n (fun d ->
        Domain.spawn (fun () ->
            enter ();
            let ok = ref 0 in
            for _i = 1 to per do
              match
                Server.submit srv
                  ~client_id:(Printf.sprintf "client-%d" d)
                  (fun sess ->
                    Steno.Session.scalar sess (Query.sum_int (ints data)))
              with
              | Server.Done v when v = expected -> incr ok
              | Server.Done v -> Alcotest.failf "wrong result %d" v
              | Server.Rejected _ -> ()
              | Server.Failed e -> raise e
            done;
            !ok))
  in
  let oks = List.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
  let st = Server.stats srv in
  Alcotest.(check int) "completions observed = completions counted"
    st.Server.completed oks;
  Alcotest.(check int) "every request accounted" (n * per)
    (st.Server.completed + st.Server.failed + st.Server.rejected);
  Alcotest.(check int) "nothing left inflight" 0 st.Server.inflight;
  Alcotest.(check int) "nothing left queued" 0 st.Server.queued

let () =
  Alcotest.run "server"
    [
      ( "single-flight",
        [
          Alcotest.test_case "one compile for N prepares" `Quick
            test_single_flight_one_compile;
          Alcotest.test_case "distinct queries differential" `Quick
            test_distinct_queries_differential;
        ] );
      ( "lru",
        [
          Alcotest.test_case "sharded hammer" `Quick test_lru_sharded_hammer;
        ] );
      ( "try-prepare",
        [
          Alcotest.test_case "check error" `Quick test_try_prepare_check_error;
          Alcotest.test_case "compile failure" `Quick
            test_try_prepare_compile_failure;
        ] );
      ( "session",
        [
          Alcotest.test_case "stats and labels" `Quick
            test_session_stats_and_labels;
          Alcotest.test_case "config overrides" `Quick test_session_overrides;
        ] );
      ( "server",
        [
          Alcotest.test_case "admission rejects" `Quick
            test_server_admission_rejects;
          Alcotest.test_case "failure and shutdown" `Quick
            test_server_failure_and_shutdown;
          Alcotest.test_case "concurrent load" `Quick
            test_server_concurrent_load;
        ] );
    ]
