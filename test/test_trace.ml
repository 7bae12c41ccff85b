(* The tracing and ops plane.  Cross-domain trace propagation
   (tier promotion on the pool and single-flight leader notes carry the
   originating trace_id), ring head-drop accounting and deterministic
   sampling, slow-query capture with plan/tier outcomes, the JSON
   escaping shared by every Steno JSON emitter, the spans and events the
   engine records (what the benchmark's per-layer view reads), eager
   registration of the server metric families, and the HTTP admin
   endpoints (byte-identical /metrics). *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let with_native f = if Steno.native_available () then f () else ()

let data = Array.init 64 (fun i -> i land 7)

let sumsq xs = Query.sum_int (ints xs |> Query.select (fun x -> I.(x * x)))

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* A spin barrier, as in test_server: domains pile up and release
   together so the engine really sees concurrent calls. *)
let barrier n =
  let waiting = Atomic.make 0 in
  fun () ->
    Atomic.incr waiting;
    while Atomic.get waiting < n do
      Domain.cpu_relax ()
    done

(* {2 Ring, sampling, drop accounting} *)

(* A capacity-2 ring keeps exactly 2 traces; the 4 overwritten heads are
   counted both on the tracer and as [steno_trace_dropped_total]. *)
let test_ring_head_drop () =
  let m = Metrics.create () in
  let t = Trace.create ~ring:2 ~metrics:m () in
  for i = 1 to 6 do
    Trace.with_trace t "r" (fun () -> ignore i)
  done;
  Alcotest.(check int) "ring keeps capacity" 2 (List.length (Trace.traces t));
  Alcotest.(check int) "head drops counted" 4 (Trace.dropped t);
  let rendered = Metrics.render m in
  Alcotest.(check bool)
    "drop counter exported" true
    (contains rendered "steno_trace_dropped_total{ring=\"trace\"} 4");
  List.iter
    (fun tr -> Alcotest.(check bool) "complete" true (Trace.complete tr))
    (Trace.traces t)

(* [sample] is deterministic 1-in-k on the root sequence: half of 10
   roots are retained, and unsampled roots still run their body. *)
let test_sampling () =
  let t = Trace.create ~sample:0.5 ~ring:64 ~metrics:(Metrics.create ()) () in
  let hits = ref 0 in
  for _ = 1 to 10 do
    Alcotest.(check int) "body runs regardless" 7
      (Trace.with_trace t "r" (fun () -> incr hits; 7))
  done;
  Alcotest.(check int) "every body ran" 10 !hits;
  Alcotest.(check int) "1-in-2 retained" 5 (List.length (Trace.traces t))

(* [sample = 0.0] disables recording outright — including the very first
   request, whose sequence number (0) is divisible by anything. *)
let test_zero_sample () =
  let t = Trace.create ~sample:0.0 ~ring:64 ~metrics:(Metrics.create ()) () in
  for i = 1 to 3 do
    Alcotest.(check int) "body still runs" i
      (Trace.with_trace t "r" (fun () -> i))
  done;
  Alcotest.(check int) "nothing traced" 0 (List.length (Trace.traces t))

(* Sampled traces must spread over all ring shards: at sample 0.5 the
   retained sequence numbers are all even, which must not alias onto
   half (or fewer) of the shards and shrink the effective capacity.  A
   ring of 64 holds all 64 sampled traces out of 128 roots. *)
let test_sampled_ring_capacity () =
  let t = Trace.create ~sample:0.5 ~ring:64 ~metrics:(Metrics.create ()) () in
  for _ = 1 to 128 do
    Trace.with_trace t "r" (fun () -> ())
  done;
  Alcotest.(check int) "full capacity used" 64 (List.length (Trace.traces t));
  Alcotest.(check int) "no aliasing drops" 0 (Trace.dropped t)

(* Re-annotating a key replaces its value instead of accumulating: a
   hot loop annotating [tier] every run keeps one entry, newest wins. *)
let test_annotate_replaces () =
  let t = Trace.create ~metrics:(Metrics.create ()) () in
  Trace.with_trace t "r" (fun () ->
      for i = 1 to 100 do
        Trace.annotate t [ ("tier", if i < 100 then "fused" else "native") ]
      done;
      Trace.annotate t [ ("plan", "scan") ]);
  match Trace.traces t with
  | [ tr ] ->
    let attrs = Trace.attrs tr in
    Alcotest.(check int) "one entry per key" 2 (List.length attrs);
    Alcotest.(check (option string))
      "newest value wins" (Some "native")
      (List.assoc_opt "tier" attrs)
  | l -> Alcotest.failf "expected one trace, got %d" (List.length l)

(* {2 JSON escaping (shared helper)} *)

let nasty = "q\"uo\\te\nline\ttab\rcr\x01ctl"

(* The exact escaping contract of the shared helper, and that both the
   exporter output and the attribute round-trip stay clean: no raw
   quote-in-value or control bytes in the Chrome JSON. *)
let test_json_escape () =
  Alcotest.(check string)
    "escape contract" "q\\\"uo\\\\te\\nline\\ttab\\rcr\\u0001ctl"
    (Telemetry.json_escape nasty);
  let t = Trace.create ~metrics:(Metrics.create ()) () in
  Trace.with_trace t "root" ~attrs:[ ("v", nasty) ] (fun () ->
      Trace.instant t "evil \"name\"" ~attrs:[ ("k", nasty) ] ());
  let out = Trace.export_chrome t in
  Alcotest.(check bool)
    "escaped value present" true
    (contains out "q\\\"uo\\\\te\\nline");
  Alcotest.(check bool) "raw value absent" false (contains out "q\"uo");
  String.iter
    (fun c ->
      if Char.code c < 0x20 && c <> '\n' then
        Alcotest.failf "raw control byte %d in export" (Char.code c))
    out;
  Alcotest.(check bool) "object form" true (contains out "\"traceEvents\"");
  Alcotest.(check bool) "root carries trace_id" true (contains out "trace_id")

(* {2 Recording} *)

(* The clock is monotonic and [duration_since] clamps at zero, so no
   recorded span ever has a negative duration. *)
let test_no_negative_durations () =
  let a = Telemetry.now_ms () in
  let b = Telemetry.now_ms () in
  Alcotest.(check bool) "monotonic" true (b >= a);
  Alcotest.(check (float 0.0)) "clamped" 0.0
    (Telemetry.duration_since (Telemetry.now_ms () +. 1e9));
  let t = Trace.create ~metrics:(Metrics.create ()) () in
  Trace.with_trace t "root" (fun () ->
      for i = 0 to 99 do
        Trace.with_span t (Printf.sprintf "s%d" i) ignore
      done);
  List.iter
    (fun tr ->
      List.iter
        (fun sp ->
          if sp.Trace.sp_duration_ms < 0.0 then
            Alcotest.failf "negative span duration: %s" sp.Trace.sp_name)
        (Trace.spans tr))
    (Trace.traces t)

(* A raising body still records its span, with an ["error"] attribute,
   and the exception propagates. *)
let test_span_exception () =
  let t = Trace.create ~metrics:(Metrics.create ()) () in
  Trace.with_trace t "root" (fun () ->
      Alcotest.check_raises "exception propagates" Exit (fun () ->
          Trace.with_span t "failing" (fun () -> raise Exit)));
  let tr = List.hd (Trace.traces t) in
  match Trace.find_span tr "failing" with
  | None -> Alcotest.fail "no span for the raising body"
  | Some sp ->
    Alcotest.(check bool) "error attr" true
      (List.mem_assoc "error" sp.Trace.sp_attrs)

(* A disabled tracer, or an enabled one outside any trace, runs the body
   and records nothing. *)
let test_span_untraced () =
  Alcotest.(check int) "disabled pass-through" 7
    (Trace.with_span Trace.disabled "x" (fun () -> 7));
  let t = Trace.create ~metrics:(Metrics.create ()) () in
  Alcotest.(check int) "no context pass-through" 8
    (Trace.with_span t "x" (fun () -> 8));
  Alcotest.(check int) "no trace kept" 0 (List.length (Trace.traces t))

(* [report] renders one trace: its header, then a line per span. *)
let test_report () =
  let t = Trace.create ~metrics:(Metrics.create ()) () in
  Trace.with_trace t "root" (fun () ->
      Trace.with_span t "stage" ~attrs:[ "k", "v" ] ignore;
      Trace.instant t "event" ~attrs:[ "n", "2" ] ());
  let lines =
    String.split_on_char '\n' (Trace.report (List.hd (Trace.traces t)))
  in
  Alcotest.(check bool) "header" true
    (String.starts_with ~prefix:"trace " (List.hd lines));
  List.iter
    (fun needle ->
      if not (List.exists (fun l -> contains l needle) lines) then
        Alcotest.failf "report misses %S" needle)
    [ "stage"; "k=v"; "event"; "n=2" ]

(* {2 The engine's spans and events}

   What the benchmark's per-layer view reads from a trace: stage spans
   by name, and events as instants carrying ["n"]. *)

let temp_seq = ref 0

let with_temp_dir f =
  incr temp_seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "steno-test-trace-%d-%d" (Unix.getpid ()) !temp_seq)
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

let traced_engine ?dir ?(optimize = true) backend =
  let cfg =
    Steno.Config.(
      default |> with_backend backend |> with_optimize optimize
      |> with_metrics (Metrics.create ())
      |> with_tracing ~sample:1.0)
  in
  Steno.Engine.create
    (match dir with
    | None -> cfg
    | Some dir -> Steno.Config.with_disk_cache ~dir cfg)

(* Run [f] as one trace on [eng] and return that trace. *)
let trace_of eng f =
  let tracer = Steno.Engine.tracer eng in
  Trace.with_trace tracer "test" f;
  match List.rev (Trace.traces tracer) with
  | tr :: _ -> tr
  | [] -> Alcotest.fail "no trace recorded"

let spans_named kind tr name =
  List.filter
    (fun sp -> sp.Trace.sp_kind = kind && sp.Trace.sp_name = name)
    (Trace.spans tr)

let interval tr name =
  match spans_named Trace.Interval tr name with
  | sp :: _ -> sp
  | [] -> Alcotest.failf "no %s span" name

(* An event's count: the ["n"] attributes of its instants, summed. *)
let event_n tr name =
  List.fold_left
    (fun acc sp ->
      match List.assoc_opt "n" sp.Trace.sp_attrs with
      | Some n -> acc + int_of_string n
      | None -> Alcotest.failf "%s instant without n" name)
    0
    (spans_named Trace.Instant tr name)

let ends sp = sp.Trace.sp_start_ms +. sp.Trace.sp_duration_ms

let disjoint a b =
  ends a <= b.Trace.sp_start_ms || ends b <= a.Trace.sp_start_ms

(* Each of [names] has a span inside the [outer] span. *)
let check_within tr ~outer names =
  let o = interval tr outer in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s inside %s" name outer)
        true
        (List.exists
           (fun sp ->
             sp.Trace.sp_start_ms >= o.Trace.sp_start_ms && ends sp <= ends o)
           (spans_named Trace.Interval tr name)))
    names

(* No [name] span overlaps a [pcache.lookup] span. *)
let check_outside_lookups tr name =
  let lookups = spans_named Trace.Interval tr "pcache.lookup" in
  Alcotest.(check bool) "store looked up" true (lookups <> []);
  Alcotest.(check bool)
    (name ^ " outside pcache.lookup")
    true
    (List.for_all (disjoint (interval tr name)) lookups)

let test_engine_spans_fused () =
  let eng = traced_engine Steno.Fused in
  let tr =
    trace_of eng (fun () ->
        Alcotest.(check int) "result" 14
          (Steno.Engine.scalar eng (sumsq [| 1; 2; 3 |])))
  in
  (* Fused never lowers to QUIL: it specializes and stages closures. *)
  check_within tr ~outer:"prepare"
    [ "check"; "optimize"; "specialize"; "stage" ];
  ignore (interval tr "run")

(* A Native prepare on a fresh store: every stage inside [prepare], the
   plugin handed to the store's publisher, which writes it off the
   prepare path (no [pcache.store] span), and one [cache.miss]. *)
let native_on_store dir =
  let eng = traced_engine ~dir Steno.Native in
  trace_of eng (fun () ->
      Alcotest.(check int) "result" 14
        (Steno.Engine.scalar eng (sumsq [| 1; 2; 3 |])))

let test_engine_spans_native () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let tr = native_on_store dir in
  check_within tr ~outer:"prepare"
    [
      "check"; "optimize"; "specialize"; "canon"; "codegen"; "pcache.lookup";
      "compile"; "dynlink"; "env-bind";
    ];
  Alcotest.(check int) "no pcache.store span" 0
    (List.length (spans_named Trace.Interval tr "pcache.store"));
  Alcotest.(check int) "one cache miss" 1 (event_n tr "cache.miss")

(* No rule fires on [sumsq]: neither pass records a rules event. *)
let test_no_rules_event () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let tr = native_on_store dir in
  Alcotest.(check int) "no rules event" 0
    (List.length (spans_named Trace.Instant tr "optimize.rules_applied"))

(* A full prepare specializes and canonicalizes its root once: the
   check's [SC000] lint builds the chain, and the plan lowers the same
   one when no rewrite changed the root.  A rewritten root lowers its
   rewritten form, so its prepare does both twice, and the trace's plan
   is the rewritten chain. *)
let test_lowered_once () =
  with_native @@ fun () ->
  let eng = traced_engine Steno.Native in
  let count tr name = List.length (spans_named Trace.Interval tr name) in
  let tr =
    trace_of eng (fun () ->
        Alcotest.(check int) "result" 14
          (Steno.Engine.scalar eng (sumsq [| 1; 2; 3 |])))
  in
  Alcotest.(check int) "unrewritten: no rules" 0 (event_n tr "optimize.rules_applied");
  Alcotest.(check int) "unrewritten: one specialize" 1 (count tr "specialize");
  Alcotest.(check int) "unrewritten: one canon" 1 (count tr "canon");
  let q =
    Query.of_array Ty.Int (Array.init 20 Fun.id)
    |> Query.where (fun x -> Expr.Infix.(x >= Expr.int 2))
    |> Query.where (fun x -> Expr.Infix.(x < Expr.int 18))
    |> Query.take 10 |> Query.take 5
  in
  let tr =
    trace_of eng (fun () ->
        Alcotest.(check (list int)) "result" (Reference.to_list q)
          (Array.to_list (Steno.Engine.to_array eng q)))
  in
  Alcotest.(check bool) "rewritten: rules fired" true
    (event_n tr "optimize.rules_applied" > 0);
  Alcotest.(check int) "rewritten: specialize for the check and the plan" 2
    (count tr "specialize");
  Alcotest.(check int) "rewritten: canon for the check and the plan" 2 (count tr "canon");
  Alcotest.(check (option string)) "rewritten: plan is the rewritten chain"
    (Some (Steno.quil q)) (List.assoc_opt "plan" (Trace.attrs tr))

(* [compile] and [dynlink] are live spans around their calls, so they
   do not overlap the store lookups that missed. *)
let test_lookup_before_compile () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  let tr = native_on_store dir in
  check_outside_lookups tr "compile";
  check_outside_lookups tr "dynlink"

(* A second engine on the same store loads the plugin: [pcache.hit], a
   [dynlink] outside the lookup, and no compile. *)
let test_disk_hit () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  ignore (native_on_store dir);
  let tr = native_on_store dir in
  Alcotest.(check int) "one pcache hit" 1 (event_n tr "pcache.hit");
  Alcotest.(check int) "no compile" 0
    (List.length (spans_named Trace.Interval tr "compile"));
  check_outside_lookups tr "dynlink"

(* A plan-memo hit on a stored record: the record lookup lies inside the
   one [prepare] span of the request. *)
let test_disk_memo_prepare_span () =
  with_native @@ fun () ->
  with_temp_dir @@ fun dir ->
  ignore (native_on_store dir);
  let tr = native_on_store dir in
  Alcotest.(check int) "no codegen" 0
    (List.length (spans_named Trace.Interval tr "codegen"));
  Alcotest.(check int) "one prepare span" 1
    (List.length (spans_named Trace.Interval tr "prepare"));
  check_within tr ~outer:"prepare" [ "pcache.lookup" ]

let test_fallback_event () =
  let eng = traced_engine Steno.Native in
  Dynload.disabled := true;
  Fun.protect ~finally:(fun () -> Dynload.disabled := false) @@ fun () ->
  let tr =
    trace_of eng (fun () ->
        Alcotest.(check int) "answers via fused" 3
          (Steno.Engine.scalar eng (Query.sum_int (ints [| 1; 2 |]))))
  in
  Alcotest.(check int) "fallback counted" 1 (event_n tr "engine.fallback");
  match spans_named Trace.Instant tr "fallback" with
  | [ fb ] ->
    Alcotest.(check bool) "reason attr" true
      (List.mem_assoc "reason" fb.Trace.sp_attrs)
  | _ -> Alcotest.fail "expected one fallback instant"

let redundant_where () =
  ints data
  |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
  |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))

let trace_fused ~optimize q =
  let eng = traced_engine ~optimize Steno.Fused in
  trace_of eng (fun () -> ignore (Steno.Engine.to_array eng q))

(* optimize=false runs the plan as written: no optimize span and no
   rules event. *)
let test_optimize_escape_hatch () =
  let off = trace_fused ~optimize:false (redundant_where ()) in
  Alcotest.(check int) "no optimize span" 0
    (List.length (spans_named Trace.Interval off "optimize"));
  Alcotest.(check int) "no rules event" 0
    (List.length (spans_named Trace.Instant off "optimize.rules_applied"))

(* optimize=true reports both the optimize span and the rules event,
   which names the pass that fired. *)
let test_optimize_telemetry () =
  let on = trace_fused ~optimize:true (redundant_where ()) in
  Alcotest.(check bool) "optimize span" true
    (spans_named Trace.Interval on "optimize" <> []);
  Alcotest.(check bool) "rules event" true (event_n on "optimize.rules_applied" > 0);
  Alcotest.(check (list (option string)))
    "level attr" [ Some "ast" ]
    (List.map
       (fun sp -> List.assoc_opt "level" sp.Trace.sp_attrs)
       (spans_named Trace.Instant on "optimize.rules_applied"))

(* [Engine.event] records the instant with its count, and bumps the
   counter its table names for it; an event without one only records. *)
let test_event_table () =
  let m = Metrics.create () in
  let eng =
    Steno.Engine.create Steno.Config.(default |> with_metrics m |> with_tracing)
  in
  let tr =
    trace_of eng (fun () ->
        Steno.Engine.event eng ~n:2 "flight.join";
        Steno.Engine.event eng "dryad.gathered")
  in
  Alcotest.(check int) "flight.join n" 2 (event_n tr "flight.join");
  Alcotest.(check int) "dryad.gathered n" 1 (event_n tr "dryad.gathered");
  Alcotest.(check int) "dedup counter" 2
    (Metrics.counter_value (Metrics.counter m "steno_prepare_dedup"));
  (* Untraced, the counter still moves. *)
  Steno.Engine.event eng "flight.join";
  Alcotest.(check int) "counted untraced" 3
    (Metrics.counter_value (Metrics.counter m "steno_prepare_dedup"))

(* The partitions that worker domains run reach the caller's trace: k
   partitions are k [partition] spans, merged by one [agg-merge]. *)
let test_partition_spans () =
  if Domain_pool.recommended_workers () = 1 then ()
  else begin
    let k = 8 in
    let eng = traced_engine Steno.Fused in
    (* Partitions long enough that the workers wake up and take some. *)
    let n = 1 lsl 20 in
    let xs = Array.init n (fun i -> i) in
    let tr =
      trace_of eng (fun () ->
          Alcotest.(check int) "sum" (n * (n - 1) / 2)
            (Par.scalar_auto ~engine:eng ~parts:k (Query.sum_int (ints xs))))
    in
    Alcotest.(check int) "partition spans" k
      (List.length (spans_named Trace.Interval tr "partition"));
    Alcotest.(check int) "one agg-merge" 1
      (List.length (spans_named Trace.Interval tr "agg-merge"))
  end

(* {2 Single-flight leader note} *)

(* The leader's note (its trace id, in engine use) reaches followers: a
   leader blocks inside the flight, a second domain joins, and the
   join returns [led = false] with the leader's note. *)
let test_flight_leader_note () =
  let fl : (string, int) Steno_flight.t = Steno_flight.create () in
  let entered = Atomic.make false in
  let release = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        Steno_flight.run ~note:"trace-A" fl "k" (fun () ->
            Atomic.set entered true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            42))
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let follower =
    Domain.spawn (fun () ->
        Steno_flight.run ~note:"trace-B" fl "k" (fun () -> 99))
  in
  (* Give the follower time to join the in-flight call, then release. *)
  Unix.sleepf 0.05;
  Atomic.set release true;
  let led_l, note_l, v_l = Domain.join leader in
  let led_f, note_f, v_f = Domain.join follower in
  Alcotest.(check bool) "leader led" true led_l;
  Alcotest.(check (option string)) "leader has no note" None note_l;
  Alcotest.(check int) "leader value" 42 v_l;
  if not led_f then begin
    (* The expected interleaving: the follower joined the leader. *)
    Alcotest.(check (option string))
      "follower sees leader note" (Some "trace-A") note_f;
    Alcotest.(check int) "follower shares value" 42 v_f
  end
  else
    (* The follower arrived after the leader finished and became a
       fresh leader itself — legal, just not the hammered path. *)
    Alcotest.(check int) "late follower recomputed" 99 v_f

(* {2 Cross-domain propagation under a 4-domain hammer} *)

let promotions m =
  let v r =
    Metrics.counter_value
      (Metrics.counter m "steno_tier_promotions" ~labels:[ ("result", r) ])
  in
  v "ok" + v "failed"

let await_promotions m n =
  let deadline = Unix.gettimeofday () +. 10. in
  while promotions m < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done

(* Four domains submit the same scalar through the server on a tiering
   engine with threshold 1: every request's run triggers a background
   promotion compile on the pool.  Each resulting trace must contain the
   [tier.promote] span recorded on a *different* domain than its root —
   the context hop through [Domain_pool.async ?ctx] — plus the plan and
   tier annotations; any [flight.follow] instants must cite the trace id
   of another trace in the ring. *)
let test_cross_domain_propagation () =
  with_native @@ fun () ->
  let m = Metrics.create () in
  let cfg =
    Steno.Config.(
      default |> with_metrics m
      |> with_tracing ~sample:1.0 ~slow_ms:0.0
      |> with_tiering ~threshold:1)
  in
  let eng = Steno.Engine.create cfg in
  let srv = Server.create eng in
  let b = barrier 4 in
  let doms =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            b ();
            Server.submit srv
              ~client_id:(Printf.sprintf "d%d" i)
              (fun s -> Steno.Session.scalar s (sumsq data))))
  in
  let expect = Array.fold_left (fun a x -> a + (x * x)) 0 data in
  List.iter
    (fun d ->
      match Domain.join d with
      | Server.Done v -> Alcotest.(check int) "result" expect v
      | Server.Rejected r ->
        Alcotest.failf "rejected: %s" (Server.reject_reason_message r)
      | Server.Failed e -> raise e)
    doms;
  (* Promotions run in the background; wait for all four to land. *)
  await_promotions m 4;
  let tracer = Steno.Engine.tracer eng in
  let traces = Trace.traces tracer in
  let requests = List.filter (fun tr -> Trace.root tr = "request") traces in
  Alcotest.(check int) "one trace per request" 4 (List.length requests);
  let ids = List.map Trace.id traces in
  List.iter
    (fun tr ->
      Alcotest.(check bool) "complete" true (Trace.complete tr);
      let attrs = Trace.attrs tr in
      Alcotest.(check bool) "plan attr" true (List.mem_assoc "plan" attrs);
      Alcotest.(check bool) "tier attr" true (List.mem_assoc "tier" attrs);
      Alcotest.(check bool) "client attr" true (List.mem_assoc "client" attrs);
      let root =
        match Trace.find_span tr "request" with
        | Some sp -> sp
        | None -> Alcotest.fail "missing request root span"
      in
      (match Trace.find_span tr "tier.promote" with
      | None -> Alcotest.failf "trace %s missing tier.promote" (Trace.id tr)
      | Some sp ->
        Alcotest.(check bool)
          "promotion attributed across domains" true
          (sp.Trace.sp_domain <> root.Trace.sp_domain));
      List.iter
        (fun sp ->
          if sp.Trace.sp_name = "flight.follow" then
            match List.assoc_opt "leader_trace" sp.Trace.sp_attrs with
            | None -> Alcotest.fail "flight.follow without leader_trace"
            | Some lid ->
              Alcotest.(check bool)
                "leader trace is another ring entry" true
                (List.mem lid ids && lid <> Trace.id tr))
        (Trace.spans tr))
    requests;
  (* With slow_ms = 0 every request also lands in the slow ring, and the
     report carries the per-span breakdown. *)
  Alcotest.(check bool) "slow ring populated" true (Trace.slow tracer <> []);
  let report = Trace.slow_report tracer in
  Alcotest.(check bool) "report has plan" true (contains report "plan");
  Alcotest.(check bool)
    "report has promote span" true
    (contains report "tier.promote");
  (* The Chrome export of the ring must pair run and promote spans under
     the same trace (pid). *)
  let chrome = Trace.export_chrome tracer in
  Alcotest.(check bool) "export has run span" true (contains chrome "\"run\"");
  Alcotest.(check bool)
    "export has promote span" true
    (contains chrome "tier.promote")

(* {2 Slow-query ring without native (portable path)} *)

(* With a zero threshold, a plain fused request lands in the slow ring
   with the plan, tier, client and outcome annotations attached. *)
let test_slow_ring_attrs () =
  let m = Metrics.create () in
  (* Tiering (and so the tier annotation) engages only on [Native];
     keep the default backend and gate that one check below. *)
  let cfg =
    Steno.Config.(
      default |> with_metrics m
      |> with_tracing ~sample:1.0 ~slow_ms:0.0
      |> with_tiering ~threshold:1_000_000)
  in
  let eng = Steno.Engine.create cfg in
  let srv = Server.create eng in
  (match
     Server.submit srv ~client_id:"tenant-a" (fun s ->
         Steno.Session.scalar s (sumsq data))
   with
  | Server.Done v ->
    Alcotest.(check int)
      "result" (Array.fold_left (fun a x -> a + (x * x)) 0 data) v
  | _ -> Alcotest.fail "submit did not complete");
  match Trace.slow (Steno.Engine.tracer eng) with
  | [] -> Alcotest.fail "slow ring empty"
  | tr :: _ ->
    let attrs = Trace.attrs tr in
    let get k =
      match List.assoc_opt k attrs with
      | Some v -> v
      | None -> Alcotest.failf "missing %s attr" k
    in
    if Steno.native_available () then
      (* Below threshold nothing promoted: still on the warm tier. *)
      Alcotest.(check string) "tier" "fused" (get "tier");
    Alcotest.(check string) "client" "tenant-a" (get "client");
    Alcotest.(check string) "outcome" "ok" (get "outcome");
    Alcotest.(check bool) "plan" true (String.length (get "plan") > 0);
    Alcotest.(check bool)
      "run span recorded" true
      (Trace.find_span tr "run" <> None)

(* {2 Eager server metric families} *)

(* [Server.create] must register its request and queue-wait families so
   the first scrape shows them before any request arrives. *)
let test_eager_server_families () =
  let m = Metrics.create () in
  let eng =
    Steno.Engine.create
      Steno.Config.(default |> with_backend Fused |> with_metrics m)
  in
  let _srv = Server.create eng in
  let r = Metrics.render m in
  Alcotest.(check bool)
    "requests family typed" true
    (contains r "# TYPE steno_server_requests counter");
  Alcotest.(check bool)
    "queue family typed" true
    (contains r "# TYPE steno_server_queue_ms histogram")

(* {2 Ops endpoints} *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      drain ()
    end
  in
  drain ();
  let s = Buffer.contents b in
  let rec find i =
    if i + 4 > String.length s then
      Alcotest.failf "no header/body separator in response to %s" path
    else if String.sub s i 4 = "\r\n\r\n" then i
    else find (i + 1)
  in
  let sep = find 0 in
  let status =
    match String.index_opt s '\r' with
    | Some j -> String.sub s 0 j
    | None -> s
  in
  (status, String.sub s (sep + 4) (String.length s - sep - 4))

(* /healthz answers, /metrics is byte-identical to [Metrics.render] of
   the engine registry, /traces is the Chrome export, unknown paths 404
   — all against an ephemeral port read back from [Ops.port]. *)
let test_ops_endpoints () =
  let m = Metrics.create () in
  let eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Fused |> with_metrics m
        |> with_tracing ~sample:1.0)
  in
  let tracer = Steno.Engine.tracer eng in
  Trace.with_trace tracer "request" ~attrs:[ ("client", "ops") ] (fun () ->
      Trace.instant tracer "cache.hit" ());
  let o = Ops.start ~port:0 eng in
  Fun.protect ~finally:(fun () -> Ops.stop o) @@ fun () ->
  let port = Ops.port o in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  let status, body = http_get port "/healthz" in
  Alcotest.(check bool) "healthz 200" true (contains status "200");
  Alcotest.(check string) "healthz body" "ok\n" body;
  let status, body = http_get port "/metrics" in
  Alcotest.(check bool) "metrics 200" true (contains status "200");
  Alcotest.(check string)
    "metrics byte-identical to render" (Metrics.render m) body;
  let status, body = http_get port "/traces" in
  Alcotest.(check bool) "traces 200" true (contains status "200");
  Alcotest.(check string)
    "traces is the Chrome export" (Trace.export_chrome tracer) body;
  Alcotest.(check bool) "export has the trace" true (contains body "trace_id");
  let status, _ = http_get port "/slow" in
  Alcotest.(check bool) "slow 200" true (contains status "200");
  let status, _ = http_get port "/nope" in
  Alcotest.(check bool) "unknown path 404" true (contains status "404")

(* A client that disconnects before reading its response must not kill
   the process: [start] ignores SIGPIPE so the doomed write surfaces as
   [EPIPE] inside the accept loop, and the next request is served. *)
let test_ops_client_abort () =
  let eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Fused |> with_metrics (Metrics.create ()))
  in
  let o = Ops.start ~port:0 eng in
  Fun.protect ~finally:(fun () -> Ops.stop o) @@ fun () ->
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Alcotest.(check bool)
    "sigpipe ignored after start" true
    (old = Sys.Signal_ignore);
  let port = Ops.port o in
  for _ = 1 to 3 do
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req = "GET /metrics HTTP/1.0\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req));
    (* Abort without reading the response; RST any buffered bytes. *)
    Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
    Unix.close fd
  done;
  let status, body = http_get port "/healthz" in
  Alcotest.(check bool) "still serving" true (contains status "200");
  Alcotest.(check string) "healthz body" "ok\n" body

(* Stopping is idempotent and releases the port for immediate rebinding. *)
let test_ops_stop () =
  let eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Fused |> with_metrics (Metrics.create ()))
  in
  let o = Ops.start ~port:0 eng in
  let port = Ops.port o in
  Ops.stop o;
  Ops.stop o;
  let o2 = Ops.start ~port eng in
  Alcotest.(check int) "rebound same port" port (Ops.port o2);
  Ops.stop o2

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "head drop accounting" `Quick test_ring_head_drop;
          Alcotest.test_case "deterministic sampling" `Quick test_sampling;
          Alcotest.test_case "zero sample disabled" `Quick test_zero_sample;
          Alcotest.test_case "sampled shard spread" `Quick
            test_sampled_ring_capacity;
          Alcotest.test_case "annotate replaces" `Quick test_annotate_replaces;
        ] );
      ( "export",
        [
          Alcotest.test_case "json escaping" `Quick test_json_escape;
          Alcotest.test_case "report" `Quick test_report;
        ] );
      ( "spans",
        [
          Alcotest.test_case "no negative durations" `Quick
            test_no_negative_durations;
          Alcotest.test_case "exception" `Quick test_span_exception;
          Alcotest.test_case "untraced" `Quick test_span_untraced;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fused spans" `Quick test_engine_spans_fused;
          Alcotest.test_case "native spans" `Quick test_engine_spans_native;
          Alcotest.test_case "lookup before compile" `Quick
            test_lookup_before_compile;
          Alcotest.test_case "disk hit" `Quick test_disk_hit;
          Alcotest.test_case "disk memo hit in prepare" `Quick
            test_disk_memo_prepare_span;
          Alcotest.test_case "no rules event" `Quick test_no_rules_event;
          Alcotest.test_case "lowered once" `Quick test_lowered_once;
          Alcotest.test_case "fallback counter" `Quick test_fallback_event;
          Alcotest.test_case "escape hatch" `Quick test_optimize_escape_hatch;
          Alcotest.test_case "telemetry" `Quick test_optimize_telemetry;
          Alcotest.test_case "event table" `Quick test_event_table;
          Alcotest.test_case "partition spans" `Quick test_partition_spans;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "flight leader note" `Quick
            test_flight_leader_note;
          Alcotest.test_case "4-domain hammer" `Quick
            test_cross_domain_propagation;
        ] );
      ( "slow",
        [ Alcotest.test_case "attrs captured" `Quick test_slow_ring_attrs ] );
      ( "server",
        [
          Alcotest.test_case "eager families" `Quick
            test_eager_server_families;
        ] );
      ( "ops",
        [
          Alcotest.test_case "endpoints" `Quick test_ops_endpoints;
          Alcotest.test_case "client abort survived" `Quick
            test_ops_client_abort;
          Alcotest.test_case "stop idempotent" `Quick test_ops_stop;
        ] );
    ]
