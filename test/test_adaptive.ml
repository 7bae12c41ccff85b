(* The cost-based adaptive phase end to end: statistics-driven predicate
   reordering (translation-validated, with an injected unsound reorder
   rejected), the empty-source and drift/stale-statistics regressions,
   cost-based backend choice, partition derivation, and a differential
   suite pinning adaptive execution to the Reference semantics. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

(* An expensive-looking, practically-always-true predicate the interval
   analysis cannot discharge (so [where-interval-true] keeps its hands
   off): an iterated hash compared against a bound one below the modulus
   range's top. *)
let hashy x =
  let h = ref I.(x * Expr.int 131 + Expr.int 7) in
  for _ = 1 to 3 do
    h := I.((!h * Expr.int 131 + Expr.int 7) mod Expr.int 1000003)
  done;
  I.(!h < Expr.int 1000002)

(* Selective and cheap: true on ~0.1% of values. *)
let rare x = I.(x mod Expr.int 997 = Expr.int 0)

let even x = I.(x mod Expr.int 2 = Expr.int 0)

let adaptive_engine ?(drift = 2.0) ?fused_below ?(profile = true)
    ?(backend = Steno.Fused) ?metrics () =
  let reg = match metrics with Some m -> m | None -> Metrics.create () in
  Steno.Engine.create
    Steno.Config.(
      default |> with_backend backend |> with_profile profile
      |> with_metrics reg
      |> with_adaptive ~drift ?fused_below)

let adaptive_count reg decision =
  Metrics.counter_value
    (Metrics.counter reg "steno_adaptive" ~labels:[ "decision", decision ])

let verify_count reg result =
  Metrics.counter_value
    (Metrics.counter reg "steno_verify" ~labels:[ "result", result ])

(* The adaptive phase runs on both plan kinds, so each test below takes
   its pipeline once as rows and once under a [count] aggregate.  A
   [handle] is a preparation of either kind, with its result rendered as
   a string so the two compare alike. *)
type handle = {
  run : unit -> string;
  log : string list;
  decisions : string list;
  diags : Check.diagnostic list;
}

type input = {
  kind : string;
  expected : unit -> string;  (* the Reference result, read at call time *)
  prepare : Steno.Engine.t -> handle;
  try_prepare : Steno.Engine.t -> (handle, Steno.Engine.error) result;
  prepare_in : Steno.Session.t -> handle;
  key : string;  (* the statistics key the engine records under *)
}

let handle show p =
  {
    run = (fun () -> show (Steno.Prepared.run p));
    log = Steno.Prepared.rewrite_log p;
    decisions = Steno.Prepared.decisions p;
    diags = Steno.Prepared.diagnostics p;
  }

let key root = Steno.Cost.plan_key ~optimize:true (fst (Opt.plan_ev root))

let rows (q : int Query.t) =
  let show xs = String.concat "," (List.map string_of_int xs) in
  let h = handle (fun a -> show (Array.to_list a)) in
  {
    kind = "rows";
    expected = (fun () -> show (Reference.to_list q));
    prepare = (fun eng -> h (Steno.Engine.prepare eng q));
    try_prepare = (fun eng -> Result.map h (Steno.Engine.try_prepare eng q));
    prepare_in = (fun s -> h (Steno.Session.prepare s q));
    key = key (Query.Rows q);
  }

let count (q : int Query.t) =
  let sq = Query.count q in
  let h = handle string_of_int in
  {
    kind = "count";
    expected = (fun () -> string_of_int (Reference.scalar sq));
    prepare = (fun eng -> h (Steno.Engine.prepare_scalar eng sq));
    try_prepare =
      (fun eng -> Result.map h (Steno.Engine.try_prepare_scalar eng sq));
    prepare_in = (fun s -> h (Steno.Session.prepare_scalar s sq));
    key = key (Query.Scalar sq);
  }

let each_kind test () = List.iter test [ rows; count ]

(* {2 Statistics-driven reordering} *)

(* Pessimal static order: the always-true predicate first.  The first
   profiled preparation observes per-conjunct selectivities (the split
   gives each conjunct its own probe point); the second preparation of
   the same plan reorders on them. *)
let test_reorder_from_observations (mk : int Query.t -> input) =
  let reg = Metrics.create () in
  let eng = adaptive_engine ~metrics:reg () in
  let inp =
    mk (ints (Array.init 500 (fun i -> i)) |> Query.where hashy
        |> Query.where rare)
  in
  let what s = inp.kind ^ ": " ^ s in
  let expected = inp.expected () in
  let p1 = inp.prepare eng in
  Alcotest.(check string) (what "first prepare (no stats) runs correctly")
    expected (p1.run ());
  Alcotest.(check (list string))
    (what "no reorder without observations") []
    (List.filter (fun r -> r = "stats-where-reorder") p1.log);
  (* Second preparation: the store now knows hashy ~ 1.0, rare ~ 0.001. *)
  let p2 = inp.prepare eng in
  Alcotest.(check bool) (what "reorder fired") true
    (List.mem "stats-where-reorder" p2.log);
  (match p2.decisions with
  | d :: _ ->
    Alcotest.(check bool)
      (what (Printf.sprintf "decision line (%s)" d))
      true
      (String.length d > 10 && String.sub d 0 10 = "reordered:")
  | [] -> Alcotest.fail (what "expected a reorder decision"));
  Alcotest.(check string) (what "reordered plan computes the same result")
    expected (p2.run ());
  Alcotest.(check bool) (what "reorder counted") true
    (adaptive_count reg "reorder" >= 1);
  Alcotest.(check bool) (what "validated") true
    (verify_count reg "accepted" >= 1);
  Alcotest.(check int) (what "nothing rejected") 0
    (verify_count reg "rejected");
  (* The store's view, through the public API. *)
  let key = inp.key in
  let store = Steno.Engine.cost_store eng in
  (match
     Steno.Cost.selectivity store ~key
       ~digest:(Steno.Cost.pred_digest (Expr.lam "x" Ty.Int hashy))
   with
  | Some s ->
    Alcotest.(check bool) (what "hashy observed ~always true") true (s > 0.9)
  | None -> Alcotest.fail (what "no selectivity recorded for hashy"));
  match
    Steno.Cost.selectivity store ~key
      ~digest:(Steno.Cost.pred_digest (Expr.lam "x" Ty.Int rare))
  with
  | Some s ->
    Alcotest.(check bool) (what "rare observed selective") true (s < 0.1)
  | None -> Alcotest.fail (what "no selectivity recorded for rare")

(* {2 An unsound reorder is rejected} *)

(* Swap two filters whose predicates call captured host functions — not
   provably commutative — with a forged selectivity fact.  The validator
   re-derives purity on the captured lambdas and must refuse; the engine
   falls back to the plan as written. *)
let swap_hook fired =
  {
    Opt.h =
      (fun (type a) (q : a Query.t) : (a Query.t * Opt.event) option ->
        match q with
        | Query.Where (Query.Where (q0, p1), p2) ->
          if !fired then None
          else begin
            fired := true;
            Some
              ( Query.Where (Query.Where (q0, p2), p1),
                {
                  Opt.ev_rule = "stats-where-reorder";
                  ev_facts = [ Check.Equiv.Stats_selectivity (p2, p1, 0.0, 1.0) ];
                } )
          end
        | _ -> None);
  }

let impure_query () =
  let host_even =
    Expr.capture (Ty.Func (Ty.Int, Ty.Bool)) (fun x -> x mod 2 = 0)
  in
  let host_small =
    Expr.capture (Ty.Func (Ty.Int, Ty.Bool)) (fun x -> x < 8)
  in
  ints [| 5; 2; 8; 2; 11; 14; 3; 8; 0; 7 |]
  |> Query.where (fun x -> Expr.Apply (host_even, x))
  |> Query.where (fun x -> Expr.Apply (host_small, x))

let test_unsound_reorder_rejected (mk : int Query.t -> input) =
  let inp = mk (impure_query ()) in
  let what s = inp.kind ^ ": " ^ s in
  let expected = inp.expected () in
  Opt.set_test_hook (Some (swap_hook (ref false)));
  Fun.protect
    ~finally:(fun () -> Opt.set_test_hook None)
    (fun () ->
      let reg = Metrics.create () in
      let eng =
        Steno.Engine.(
          create { default_config with backend = Steno.Fused; metrics = reg })
      in
      let p = inp.prepare eng in
      Alcotest.(check string)
        (what "fallback runs the plan as written") expected (p.run ());
      Alcotest.(check (list string))
        (what "no rules survive the rejection") [] p.log;
      Alcotest.(check int) (what "rejected counted") 1
        (verify_count reg "rejected");
      Alcotest.(check bool) (what "SC012 diagnostic recorded") true
        (List.exists (fun d -> d.Check.d_code = "SC012") p.diags))

let test_unsound_reorder_strict_raises (mk : int Query.t -> input) =
  let inp = mk (impure_query ()) in
  Opt.set_test_hook (Some (swap_hook (ref false)));
  Fun.protect
    ~finally:(fun () -> Opt.set_test_hook None)
    (fun () ->
      let eng =
        Steno.Engine.(
          create
            { default_config with backend = Steno.Fused; strict = true })
      in
      match inp.try_prepare eng with
      | Error (Steno.Engine.Check_error _) -> ()
      | Error _ -> Alcotest.failf "%s: wrong refusal" inp.kind
      | Ok _ ->
        Alcotest.failf "%s: strict engine accepted an unsound reorder"
          inp.kind)

(* {2 Empty-source regression} *)

(* A profiled empty-source run records zero rows everywhere: every
   selectivity read must come back [None] (not NaN), and re-preparation
   must neither reorder nor divide by the zero observations. *)
let test_empty_source_profiled () =
  let eng = adaptive_engine () in
  let q = ints [||] |> Query.where hashy |> Query.where rare in
  let p1 = Steno.Engine.prepare eng q in
  for _ = 1 to 3 do
    Alcotest.(check (list int)) "empty rows" [] (Array.to_list (Steno.Prepared.run p1))
  done;
  let key = key (Query.Rows q) in
  let store = Steno.Engine.cost_store eng in
  Alcotest.(check bool) "runs recorded" true (Steno.Cost.runs store ~key >= 3);
  Alcotest.(check (option (float 0.0))) "zero-row source averages to 0"
    (Some 0.0)
    (Steno.Cost.avg_source_rows store ~key);
  Alcotest.(check (option (float 0.0))) "untested predicate has no selectivity"
    None
    (Steno.Cost.selectivity store ~key
       ~digest:(Steno.Cost.pred_digest (Expr.lam "x" Ty.Int rare)));
  let p2 = Steno.Engine.prepare eng q in
  Alcotest.(check (list string)) "no reorder from zero observations" []
    (List.filter (fun r -> r = "stats-where-reorder")
       (Steno.Prepared.rewrite_log p2));
  Alcotest.(check (list int)) "still empty" []
    (Array.to_list (Steno.Prepared.run p2))

(* {2 Drift retires stale statistics} *)

let test_drift_retires_stale_stats (mk : int Query.t -> input) =
  let reg = Metrics.create () in
  (* Seeding engine: drift effectively off (threshold 2.0). *)
  let eng = adaptive_engine ~metrics:reg () in
  let data = Array.init 100 (fun i -> if i < 90 then 1000 + (2 * i) else 1001) in
  let p_even = even in
  let p_small x = I.(x < Expr.int 100) in
  let inp = mk (ints data |> Query.where p_even |> Query.where p_small) in
  let what s = inp.kind ^ ": " ^ s in
  let key = inp.key in
  let store = Steno.Engine.cost_store eng in
  let digest_of p = Steno.Cost.pred_digest (Expr.lam "x" Ty.Int p) in
  (* Phase A: even ~ 0.9, small = 0.0. *)
  let pa = inp.prepare eng in
  for _ = 1 to 5 do
    ignore (pa.run ())
  done;
  (match Steno.Cost.selectivity store ~key ~digest:(digest_of p_even) with
  | Some s -> Alcotest.(check bool) (what "phase A: even ~0.9") true (s > 0.8)
  | None -> Alcotest.fail (what "phase A recorded nothing"));
  Alcotest.(check int) (what "no retirement yet") 0
    (Steno.Cost.epoch store ~key);
  (* A drift-sensitive session on the same engine (same store). *)
  let sess =
    Steno.Session.create eng ~client_id:"drift"
      ~config:(fun c -> Steno.Config.with_adaptive ~drift:0.3 c)
  in
  let pb = inp.prepare_in sess in
  (* The phase-A statistics reorder [small] (0.0) above [even] (0.9). *)
  Alcotest.(check bool) (what "stale stats drove a reorder") true
    (List.mem "stats-where-reorder" pb.log);
  (* Flip the distribution in place: now everything is small and mostly
     odd (even 0.1, small 1.0 — both far from the assumptions). *)
  Array.iteri
    (fun i _ ->
      data.(i) <-
        (if i < 90 then (2 * (i mod 45)) + 1 else 2 * (i mod 45)))
    data;
  ignore (pb.run ());
  (* The drifted run retires the stale entry and seeds the new epoch
     with only post-flip observations — never an average of the two
     distributions (5 stale runs of 0.9 averaged in would leave ~0.77). *)
  Alcotest.(check int) (what "entry retired once") 1
    (Steno.Cost.epoch store ~key);
  Alcotest.(check bool) (what "drift counted") true
    (adaptive_count reg "drift" >= 1);
  (match Steno.Cost.selectivity store ~key ~digest:(digest_of p_even) with
  | Some s ->
    Alcotest.(check bool)
      (what (Printf.sprintf "post-swap selectivity only (%.2f)" s))
      true (s < 0.3)
  | None -> Alcotest.fail (what "post-drift seed missing"));
  (* The background re-preparation lands eventually. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while
    adaptive_count reg "reprepare-ok" + adaptive_count reg "reprepare-failed"
      = 0
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) (what "re-preparation succeeded") 1
    (adaptive_count reg "reprepare-ok");
  (* The swapped-in plan keeps computing the right result. *)
  Alcotest.(check string) (what "post-swap result") (inp.expected ())
    (pb.run ());
  (* A fresh preparation consults only the fresh epoch: even (0.1) is
     already ahead of small (1.0) in written order, so nothing moves. *)
  let pc = inp.prepare_in sess in
  Alcotest.(check (list string)) (what "no reorder from fresh stats") []
    (List.filter (fun r -> r = "stats-where-reorder") pc.log)

(* {2 Cost-based backend choice} *)

let test_backend_choice () =
  let reg = Metrics.create () in
  let eng =
    adaptive_engine ~metrics:reg ~profile:false ~backend:Steno.Native ()
  in
  (* Tiny captured array: the flow prior alone keeps it off Native —
     no compiler needed, so this branch runs on every host. *)
  let small = ints (Array.init 10 (fun i -> i)) |> Query.where even in
  let p = Steno.Engine.prepare eng small in
  Alcotest.(check bool) "tiny input stays fused" true
    (Steno.Prepared.backend_used p = Steno.Fused);
  Alcotest.(check (option (of_pp Fmt.nop))) "not a fallback" None
    ((Steno.Prepared.compile_info p).Steno.fallback);
  Alcotest.(check (list string)) "decision surfaced"
    [ "backend: fused (est. 10 rows)" ]
    (Steno.Prepared.decisions p);
  Alcotest.(check int) "counted" 1 (adaptive_count reg "backend-fused");
  (* A large range keeps the engine-level Native dispatch (whatever
     fallback then does about a missing compiler). *)
  let large = Query.range ~start:0 ~count:100_000 |> Query.where even in
  let p2 = Steno.Engine.prepare eng large in
  Alcotest.(check (list string)) "no decision on a large input" []
    (Steno.Prepared.decisions p2);
  (* An explicit per-call backend always wins over the heuristic. *)
  let p3 = Steno.Engine.prepare ~backend:Steno.Linq eng small in
  Alcotest.(check bool) "explicit backend wins" true
    (Steno.Prepared.backend_used p3 = Steno.Linq);
  Alcotest.(check (list string)) "no decision either" []
    (Steno.Prepared.decisions p3)

(* {2 Partition derivation} *)

let test_partitions_for_rows () =
  let pf = Steno.Cost.partitions_for_rows in
  Alcotest.(check int) "zero rows" 1 (pf ~workers:8 0);
  Alcotest.(check int) "negative clamps" 1 (pf ~workers:8 (-5));
  Alcotest.(check int) "tiny input: one chunk" 1 (pf ~workers:8 100);
  Alcotest.(check int) "one chunk per 4096 rows" 3 (pf ~workers:8 (3 * 4096));
  Alcotest.(check int) "capped at workers" 8 (pf ~workers:8 10_000_000);
  Alcotest.(check int) "workers floor" 1 (pf ~workers:0 10_000);
  (* Par integration: an adaptive engine's auto helpers stay correct on
     inputs small enough to collapse to one partition. *)
  let eng = adaptive_engine ~profile:false () in
  let sq = ints (Array.init 37 (fun i -> i)) |> Query.sum_int in
  Alcotest.(check int) "scalar_auto under adaptive" (Reference.scalar sq)
    (Par.scalar_auto ~engine:eng ~workers:4 sq)

(* {2 Differential: adaptive on/off vs Reference} *)

(* A tiny deterministic generator (no global RNG: runs must be
   reproducible) over pipelines heavy on stacked filters, the shape the
   adaptive pass rewrites. *)
let gen_state = ref 0x2545F49

let rand n =
  gen_state := ((!gen_state * 1103515245) + 12345) land 0x3FFFFFFF;
  !gen_state mod n

let gen_pred () =
  match rand 5 with
  | 0 -> even
  | 1 -> rare
  | 2 -> hashy
  | 3 -> fun x -> I.(x < Expr.int (rand 30))
  | _ ->
    let m = 2 + rand 5 in
    fun x -> I.(x mod Expr.int m = Expr.int 0)

let gen_op () =
  match rand 8 with
  | 0 | 1 | 2 ->
    let p = gen_pred () in
    fun q -> Query.where p q
  | 3 ->
    let k = rand 7 in
    fun q -> Query.select (fun x -> I.(x + Expr.int k)) q
  | 4 ->
    let n = rand 12 in
    fun q -> Query.take n q
  | 5 ->
    let n = rand 5 in
    fun q -> Query.skip n q
  | 6 -> fun q -> Query.distinct q
  | _ -> fun q -> Query.rev q

let gen_pipeline () =
  let src = ints (Array.init (rand 41) (fun i -> (i * 7) mod 53)) in
  let n_ops = 1 + rand 5 in
  let rec build q n = if n = 0 then q else build (gen_op () q) (n - 1) in
  build src n_ops

let test_differential () =
  let mk backend = adaptive_engine ~backend (), adaptive_engine ~backend ~profile:false () in
  let linq_on, linq_off = mk Steno.Linq in
  let fused_on, fused_off = mk Steno.Fused in
  let native =
    if Steno.native_available () then Some (mk Steno.Native) else None
  in
  for i = 1 to 200 do
    let q = gen_pipeline () in
    let expected = Reference.to_list q in
    let check_engine label eng =
      (* Prepare twice and run twice: the second preparation consumes
         whatever the first one's profiled runs recorded, so reorders
         actually engage mid-suite. *)
      let p1 = Steno.Engine.prepare eng q in
      let r1 = Array.to_list (Steno.Prepared.run p1) in
      ignore (Steno.Prepared.run p1);
      let p2 = Steno.Engine.prepare eng q in
      let r2 = Array.to_list (Steno.Prepared.run p2) in
      if r1 <> expected || r2 <> expected then
        Alcotest.failf "pipeline %d diverged on %s" i label
    in
    check_engine "linq+adaptive" linq_on;
    check_engine "linq" linq_off;
    check_engine "fused+adaptive" fused_on;
    check_engine "fused" fused_off;
    match native with
    | Some (on, off) when i mod 8 = 0 ->
      check_engine "native+adaptive" on;
      check_engine "native" off
    | _ -> ()
  done

(* The two plan keys come from one walk.  [plan_key] ignores capture
   values; [shape] holds their aliasing, the lengths of captured sources
   and the [strict] flag. *)
let test_keys () =
  let plan xs a b =
    Query.Rows
      (ints xs
      |> Query.where (fun x -> I.(x > Expr.capture Ty.Int a))
      |> Query.where (fun x -> I.(x < Expr.capture Ty.Int b)))
  in
  let key r = Steno.Cost.plan_key ~optimize:true r in
  let shape ?(strict = false) r =
    (Steno.Cost.shape ~optimize:true ~strict r).Steno.Cost.key
  in
  let same = Alcotest.(check string) and differ msg a b =
    Alcotest.(check bool) msg false (String.equal a b)
  in
  let base = plan [| 1; 2 |] 3 4 in
  same "plan_key: fresh variables and values" (key base)
    (key (plan [| 5; 6; 7 |] 8 8));
  differ "plan_key: optimize flag" (key base)
    (Steno.Cost.plan_key ~optimize:false base);
  same "shape: fresh variables and values" (shape base)
    (shape (plan [| 9; 9 |] 1 2));
  differ "shape: source length" (shape base) (shape (plan [| 1; 2; 3 |] 3 4));
  differ "shape: aliased captures" (shape base) (shape (plan [| 1; 2 |] 3 3));
  differ "shape: strict flag" (shape base) (shape ~strict:true base);
  differ "shape: constant for capture" (shape base)
    (shape
       (Query.Rows
          (ints [| 1; 2 |]
          |> Query.where (fun x -> I.(x > Expr.int 3))
          |> Query.where (fun x -> I.(x < Expr.capture Ty.Int 4)))));
  let sh = Steno.Cost.shape ~optimize:true ~strict:false base in
  Alcotest.(check int) "three capture classes" 3
    (Array.length sh.Steno.Cost.captures);
  Alcotest.(check (list int)) "the source is sized" [ 0 ] sh.Steno.Cost.sized

let () =
  Alcotest.run "adaptive"
    [
      ( "reorder",
        [
          Alcotest.test_case "observations drive a reorder" `Quick
            (each_kind test_reorder_from_observations);
          Alcotest.test_case "unsound reorder rejected" `Quick
            (each_kind test_unsound_reorder_rejected);
          Alcotest.test_case "strict refuses unsound reorder" `Quick
            (each_kind test_unsound_reorder_strict_raises);
        ] );
      ( "regressions",
        [
          Alcotest.test_case "empty source profiled" `Quick
            test_empty_source_profiled;
          Alcotest.test_case "drift retires stale stats" `Quick
            (each_kind test_drift_retires_stale_stats);
        ] );
      ( "decisions",
        [
          Alcotest.test_case "backend choice" `Quick test_backend_choice;
          Alcotest.test_case "partitions" `Quick test_partitions_for_rows;
        ] );
      ("keys", [ Alcotest.test_case "plan_key and shape" `Quick test_keys ]);
      ( "differential",
        [ Alcotest.test_case "200 pipelines" `Slow test_differential ] );
    ]
