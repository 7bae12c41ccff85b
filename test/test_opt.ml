(* The algebraic optimizer: per-rule unit tests on the rewrite log, a
   differential suite (every backend, optimization on and off, against
   the Reference semantics), and property tests for idempotence and
   operator-count monotonicity. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let backends =
  if Steno.native_available () then [ Steno.Linq; Steno.Fused; Steno.Native ]
  else [ Steno.Linq; Steno.Fused ]

let engine ~optimize backend =
  Steno.Engine.(create { default_config with backend; optimize })

(* Every backend, with and without the optimizer, must agree with the
   Reference evaluation of the query as written. *)
let check_differential name (q : int Query.t) =
  let expected = Reference.to_list q in
  List.iter
    (fun b ->
      List.iter
        (fun optimize ->
          let got = Steno.Engine.to_list (engine ~optimize b) q in
          if got <> expected then
            Alcotest.failf "%s/%s/optimize=%b: got [%s], want [%s]" name
              (Steno.backend_name b) optimize
              (String.concat ";" (List.map string_of_int got))
              (String.concat ";" (List.map string_of_int expected)))
        [ true; false ])
    backends

(* The optimizer returns a plan of the kind it was given. *)
let opt_rows (type a) (q : a Query.t) : a Query.t * string list =
  match Opt.plan (Query.Rows q) with
  | Query.Rows q', log -> q', log
  | Query.Scalar _, _ -> assert false

let opt_scalar (type s) (sq : s Query.sq) : s Query.sq * string list =
  match Opt.plan (Query.Scalar sq) with
  | Query.Scalar sq', log -> sq', log
  | Query.Rows _, _ -> assert false

(* One rule check: the expected log, operator count not increased, and
   the differential guarantee. *)
let check_rule name q expected_log =
  let q', log = opt_rows q in
  Alcotest.(check (list string)) (name ^ " log") expected_log log;
  if Query.operator_count q' > Query.operator_count q then
    Alcotest.failf "%s: operator count grew %d -> %d" name
      (Query.operator_count q) (Query.operator_count q');
  check_differential name q

let data = [| 5; 2; 8; 2; 11; 14; 3; 8; 0; 7; 12; 9 |]

let even x = I.(x mod Expr.int 2 = Expr.int 0)

let test_where_fuse () =
  check_rule "two wheres"
    (ints data |> Query.where even |> Query.where (fun x -> I.(x < Expr.int 10)))
    [ "where-fuse" ];
  check_rule "three wheres"
    (ints data |> Query.where even
    |> Query.where (fun x -> I.(x < Expr.int 10))
    |> Query.where (fun x -> I.(x > Expr.int 1)))
    [ "where-fuse"; "where-fuse" ]

let test_select_fuse () =
  check_rule "two selects"
    (ints data
    |> Query.select (fun x -> I.(x * x))
    |> Query.select (fun x -> I.(x + Expr.int 1)))
    [ "select-fuse" ];
  (* The composed selector must evaluate the first stage once even when
     the second uses its parameter twice ([Let] binding, not textual
     substitution): check via the value semantics. *)
  check_rule "reused parameter"
    (ints data
    |> Query.select (fun x -> I.(x + Expr.int 3))
    |> Query.select (fun y -> I.(y * y)))
    [ "select-fuse" ]

let test_take_take () =
  check_rule "take take" (ints data |> Query.take 7 |> Query.take 4)
    [ "take-take" ];
  check_rule "take take larger" (ints data |> Query.take 3 |> Query.take 9)
    [ "take-take" ]

let test_skip_skip () =
  check_rule "skip skip" (ints data |> Query.skip 2 |> Query.skip 3)
    [ "skip-skip" ];
  check_rule "skip zero" (ints data |> Query.skip 0) [ "skip-zero" ]

let test_take_zero () =
  (* take 0 collapses to the empty source; the downstream select then
     collapses too. *)
  check_rule "take zero"
    (ints data |> Query.take 0 |> Query.select (fun x -> I.(x * x)))
    [ "take-zero"; "empty-collapse" ]

let test_where_const () =
  check_rule "constant true" (ints data |> Query.where (fun _ -> Expr.bool true))
    [ "where-const-true" ];
  check_rule "constant false"
    (ints data |> Query.where (fun _ -> Expr.bool false))
    [ "where-const-false" ];
  (* A predicate that only folds to a constant: 1 + 1 = 2. *)
  check_rule "foldable predicate"
    (ints data
    |> Query.where (fun _ -> I.(Expr.int 1 + Expr.int 1 = Expr.int 2)))
    [ "where-const-true" ]

let test_while_const () =
  check_rule "take_while true"
    (ints data |> Query.take_while (fun _ -> Expr.bool true))
    [ "take-while-const" ];
  check_rule "take_while false"
    (ints data |> Query.take_while (fun _ -> Expr.bool false))
    [ "take-while-const" ];
  check_rule "skip_while false"
    (ints data |> Query.skip_while (fun _ -> Expr.bool false))
    [ "skip-while-const" ];
  check_rule "skip_while true"
    (ints data |> Query.skip_while (fun _ -> Expr.bool true))
    [ "skip-while-const" ]

let test_distinct_distinct () =
  check_rule "distinct distinct"
    (ints data |> Query.distinct |> Query.distinct)
    [ "distinct-distinct" ]

(* Property-driven rules: justified by the Check_flow analysis rather
   than by local shape, and each validated against its law by the
   engine's translation validator on every optimized prepare. *)

let test_distinct_on_distinct_free () =
  (* Range yields each value once, so Distinct over it is the identity. *)
  check_rule "distinct over range"
    (Query.range ~start:3 ~count:9 |> Query.distinct)
    [ "distinct-on-distinct-free" ];
  (* Distinctness survives a filter (subsequence), so the rule still
     fires through an interposed Where. *)
  check_rule "distinct over filtered range"
    (Query.range ~start:0 ~count:20 |> Query.where even |> Query.distinct)
    [ "distinct-on-distinct-free" ];
  (* A Select can introduce duplicates: no rewrite. *)
  check_rule "distinct after select kept"
    (Query.range ~start:0 ~count:9
    |> Query.select (fun x -> I.(x mod Expr.int 3))
    |> Query.distinct)
    []

let test_orderby_on_sorted () =
  (* Range is ascending by identity. *)
  check_rule "order-by over sorted range"
    (Query.range ~start:0 ~count:10 |> Query.order_by (fun x -> x))
    [ "orderby-on-sorted" ];
  (* Re-sorting by an alpha-equivalent key in the same direction. *)
  check_rule "re-sort same key"
    (ints data
    |> Query.order_by (fun x -> I.(x mod Expr.int 5))
    |> Query.order_by (fun y -> I.(y mod Expr.int 5)))
    [ "orderby-on-sorted" ];
  (* Opposite direction, different key: both kept. *)
  check_rule "descending over ascending kept"
    (Query.range ~start:0 ~count:10
    |> Query.order_by ~order:Query.Descending (fun x -> x))
    [];
  check_rule "different key kept"
    (ints data
    |> Query.order_by (fun x -> x)
    |> Query.order_by (fun x -> I.(x mod Expr.int 5)))
    []

let test_ast_rev_rev () =
  check_rule "rev rev at the AST level"
    (ints data |> Query.rev |> Query.rev)
    [ "rev-rev" ];
  check_rule "single rev kept" (ints data |> Query.rev) []

let test_nonempty_any_true () =
  let sq = Query.range ~start:0 ~count:5 |> Query.any in
  let sq', log = opt_scalar sq in
  Alcotest.(check (list string)) "log" [ "nonempty-any-true" ] log;
  Alcotest.(check bool) "rewrite preserves the answer"
    (Reference.scalar sq) (Reference.scalar sq');
  List.iter
    (fun b ->
      List.iter
        (fun optimize ->
          Alcotest.(check bool)
            (Printf.sprintf "any on %s" (Steno.backend_name b))
            true
            (Steno.Engine.scalar (engine ~optimize b) sq))
        [ true; false ])
    backends;
  (* Unprovably non-empty input: left alone. *)
  let _, log2 = opt_scalar (ints data |> Query.where even |> Query.any) in
  Alcotest.(check (list string)) "unprovable left alone" [] log2;
  (* Non-empty but impure prefix: the deleted pipeline would also delete
     its host-function calls, so the rule must not fire. *)
  let host_id = Expr.capture (Ty.Func (Ty.Int, Ty.Int)) (fun x -> x) in
  let _, log3 =
    opt_scalar
      (Query.range ~start:0 ~count:5
      |> Query.select (fun x -> Expr.Apply (host_id, x))
      |> Query.any)
  in
  Alcotest.(check (list string)) "impure prefix left alone" [] log3

(* Every rule the optimizer can fire is exercised by some plan in this
   battery — a new rule without a trigger here fails the test, keeping
   [Opt.rule_names], the law table and the suite in sync. *)
let test_rule_coverage () =
  let fired = Hashtbl.create 32 in
  let note names = List.iter (fun r -> Hashtbl.replace fired r ()) names in
  let runq q = note (snd (opt_rows q)) in
  let runsq sq = note (snd (opt_scalar sq)) in
  let runc q = note (snd (Opt.chain (Canon.of_query q))) in
  runq (ints data |> Query.where even |> Query.where even);
  runq
    (ints data
    |> Query.select (fun x -> I.(x * x))
    |> Query.select (fun x -> I.(x + Expr.int 1)));
  runq (ints data |> Query.take 7 |> Query.take 4);
  runq (ints data |> Query.skip 2 |> Query.skip 3);
  runq (ints data |> Query.skip 0);
  runq (ints data |> Query.take 0);
  runq (ints data |> Query.where (fun _ -> Expr.bool true));
  runq (ints data |> Query.where (fun _ -> Expr.bool false));
  runq
    (ints data |> Query.where (fun x -> I.(x mod Expr.int 10 < Expr.int 10)));
  runq
    (ints data |> Query.where (fun x -> I.(x mod Expr.int 10 > Expr.int 20)));
  runq
    (Query.Take
       ( ints data,
         Expr.Prim2 (Prim.Min_int, Expr.capture Ty.Int 7, Expr.int 0) ));
  runq (ints data |> Query.take_while (fun _ -> Expr.bool true));
  runq (ints data |> Query.skip_while (fun _ -> Expr.bool false));
  runq (ints data |> Query.distinct |> Query.distinct);
  runq (Query.range ~start:0 ~count:9 |> Query.distinct);
  runq (Query.range ~start:0 ~count:9 |> Query.order_by (fun x -> x));
  runq (ints data |> Query.rev |> Query.rev);
  runq (ints [||] |> Query.select (fun x -> I.(x * x)));
  runsq (Query.range ~start:0 ~count:5 |> Query.any);
  runc (ints data |> Query.rev |> Query.materialize |> Query.rev);
  (* [stats-where-reorder] only fires from the adaptive entry point: fuse
     two filters first, then hand the fused plan an estimator that rates
     the second conjunct more selective. *)
  let fused, _ =
    Opt.plan_ev
      (Query.Rows
         (ints data |> Query.where even
         |> Query.where (fun x -> I.(x < Expr.int 10))))
  in
  let calls = ref 0 in
  let est =
    { Opt.est = (fun _ -> incr calls; if !calls = 1 then 0.9 else 0.1) }
  in
  note
    (List.map
       (fun (e : Opt.event) -> e.Opt.ev_rule)
       (snd (Opt.adaptive_ev est ~split:false fused)));
  let missing =
    List.filter (fun r -> not (Hashtbl.mem fired r)) Opt.rule_names
  in
  Alcotest.(check (list string)) "every optimizer rule is exercised" []
    missing

let test_empty_collapse () =
  check_rule "operators over empty source"
    (ints [||] |> Query.select (fun x -> I.(x * x)) |> Query.rev)
    [ "empty-collapse"; "empty-collapse" ];
  check_rule "empty range"
    (Query.range ~start:5 ~count:0 |> Query.distinct)
    [ "empty-collapse" ];
  (* Join with one statically empty side. *)
  check_rule "join with empty inner"
    (ints data
    |> Query.join ~inner:(ints [||])
         ~outer_key:(fun x -> x)
         ~inner_key:(fun x -> x)
         ~result:(fun x y -> I.(x + y)))
    [ "empty-collapse" ]

let test_scalar_rewrites () =
  let sq =
    ints data |> Query.where even
    |> Query.where (fun x -> I.(x < Expr.int 10))
    |> Query.sum_int
  in
  let _, log = opt_scalar sq in
  Alcotest.(check (list string)) "scalar log" [ "where-fuse" ] log;
  let expected = Reference.scalar sq in
  List.iter
    (fun b ->
      List.iter
        (fun optimize ->
          Alcotest.(check int)
            (Printf.sprintf "sum on %s" (Steno.backend_name b))
            expected
            (Steno.Engine.scalar (engine ~optimize b) sq))
        [ true; false ])
    backends

(* Chain-level rules (these act on canonicalized QUIL, below the AST). *)

let test_chain_rev_rev () =
  let q = ints data |> Query.where even |> Query.rev |> Query.rev in
  let c = Canon.of_query q in
  let c', log = Opt.chain c in
  Alcotest.(check (list string)) "chain log" [ "quil-rev-rev" ] log;
  Alcotest.(check int) "two sinks removed"
    (Quil.operator_count c - 2)
    (Quil.operator_count c');
  check_differential "rev rev" q

let test_chain_drop_to_array () =
  let q =
    ints data |> Query.materialize |> Query.order_by (fun x -> x)
  in
  let c = Canon.of_query q in
  let c', log = Opt.chain c in
  Alcotest.(check (list string)) "chain log" [ "quil-drop-to-array" ] log;
  Alcotest.(check int) "one sink removed"
    (Quil.operator_count c - 1)
    (Quil.operator_count c');
  check_differential "materialize before sort" q

let test_chain_fixpoint () =
  (* Rev ; ToArray ; ToArray ; Rev needs a second pass: dropping the
     ToArrays only then makes the Reverse pair adjacent. *)
  let q =
    ints data |> Query.rev |> Query.materialize |> Query.materialize
    |> Query.rev
  in
  let c = Canon.of_query q in
  let c', log = Opt.chain c in
  Alcotest.(check (list string))
    "chain log"
    [ "quil-drop-to-array"; "quil-drop-to-array"; "quil-rev-rev" ]
    log;
  Alcotest.(check int) "all four ops removed"
    (Quil.operator_count c - 4)
    (Quil.operator_count c');
  check_differential "rev toarray toarray rev" q

(* The engine surface: rewrite logs on preparations, explain, and the
   optimize=false escape hatch. *)

let test_prepared_rewrite_log () =
  let q = ints data |> Query.where even |> Query.where even in
  let p = Steno.Engine.prepare (engine ~optimize:true Steno.Fused) q in
  Alcotest.(check (list string))
    "log on" [ "where-fuse" ]
    (Steno.Prepared.rewrite_log p);
  Alcotest.(check bool) "backend accessor" true
    (Steno.Prepared.backend_used p = Steno.Fused);
  let p0 = Steno.Engine.prepare (engine ~optimize:false Steno.Fused) q in
  Alcotest.(check (list string)) "log off" [] (Steno.Prepared.rewrite_log p0);
  (* Runs are repeatable and the accessors are stable across runs. *)
  Alcotest.(check bool) "re-run" true
    (Steno.Prepared.run p = Steno.Prepared.run p);
  Alcotest.(check bool) "diagnostics accessor" true
    (Steno.Prepared.diagnostics p = [])

let test_native_rewrite_log_has_chain_rules () =
  if not (Steno.native_available ()) then ()
  else begin
    (* The Rev pair now cancels at the AST level ([rev-rev]), so reach
       the chain pass with a shape only canonicalization exposes: a
       Materialize whose ToArray sink is redundant before a sort. *)
    let q =
      ints data |> Query.where even |> Query.materialize
      |> Query.order_by (fun x -> x)
    in
    let p = Steno.Engine.prepare (engine ~optimize:true Steno.Native) q in
    Alcotest.(check (list string))
      "ast + chain rules" [ "quil-drop-to-array" ]
      (Steno.Prepared.rewrite_log p)
  end

let test_explain () =
  let eng = engine ~optimize:true Steno.Fused in
  let q =
    ints data |> Query.where even |> Query.where even |> Query.take 5
    |> Query.take 3
  in
  let ex = Steno.Engine.explain eng q in
  Alcotest.(check (list string))
    "rules" [ "where-fuse"; "take-take" ]
    ex.Steno.Engine.rules;
  Alcotest.(check bool) "shrinks" true
    (ex.Steno.Engine.operators_after < ex.Steno.Engine.operators_before);
  let rendered = Steno.Engine.explain_to_string ex in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun line ->
               String.length line >= String.length needle
               && String.sub line 0 (String.length needle) = needle)
             (String.split_on_char '\n' rendered
             |> List.map String.trim))
      then Alcotest.failf "explain_to_string misses %S in:\n%s" needle rendered)
    [ "plan before:"; "plan after:"; "operators:"; "rules applied:"; "- where-fuse" ];
  (* With the optimizer off, explain reports the plan unchanged. *)
  let ex0 = Steno.Engine.explain (engine ~optimize:false Steno.Fused) q in
  Alcotest.(check (list string)) "no rules" [] ex0.Steno.Engine.rules;
  Alcotest.(check int) "same plan" ex0.Steno.Engine.operators_before
    ex0.Steno.Engine.operators_after

(* Property tests: random redundant pipelines ([Plan_gen.redundant]). *)

(* Second rewrite is a no-op: the fixpoint really is a normal form. *)
let random_idempotent =
  QCheck.Test.make ~name:"rewrite is idempotent (second pass fires no rules)"
    ~count:200 (QCheck.make Plan_gen.redundant) (fun q ->
      let q1, _ = opt_rows q in
      let q2, log2 = opt_rows q1 in
      log2 = [] && Query.operator_count q2 = Query.operator_count q1)

(* Rewriting (AST pass + chain pass) never grows the canonicalized plan. *)
let random_operator_count =
  QCheck.Test.make
    ~name:"optimized QUIL never has more operators than the original"
    ~count:200 (QCheck.make Plan_gen.redundant) (fun q ->
      let before = Quil.operator_count (Canon.of_query q) in
      let q', _ = opt_rows q in
      let c', _ = Opt.chain (Canon.of_query q') in
      Quil.operator_count c' <= before)

(* Rewritten queries still mean the same thing (Linq/Fused only: a native
   compile per random case would dominate the suite's runtime). *)
let random_differential =
  QCheck.Test.make ~name:"optimized results match reference" ~count:100
    (QCheck.make Plan_gen.redundant) (fun q ->
      let expected = Reference.to_list q in
      List.for_all
        (fun b -> Steno.Engine.to_list (engine ~optimize:true b) q = expected)
        [ Steno.Linq; Steno.Fused ])

let () =
  Alcotest.run "opt"
    [
      ( "rules",
        [
          Alcotest.test_case "where-fuse" `Quick test_where_fuse;
          Alcotest.test_case "select-fuse" `Quick test_select_fuse;
          Alcotest.test_case "take-take" `Quick test_take_take;
          Alcotest.test_case "skip-skip" `Quick test_skip_skip;
          Alcotest.test_case "take-zero" `Quick test_take_zero;
          Alcotest.test_case "where-const" `Quick test_where_const;
          Alcotest.test_case "while-const" `Quick test_while_const;
          Alcotest.test_case "distinct-distinct" `Quick test_distinct_distinct;
          Alcotest.test_case "distinct-on-distinct-free" `Quick
            test_distinct_on_distinct_free;
          Alcotest.test_case "orderby-on-sorted" `Quick test_orderby_on_sorted;
          Alcotest.test_case "rev-rev" `Quick test_ast_rev_rev;
          Alcotest.test_case "nonempty-any-true" `Quick test_nonempty_any_true;
          Alcotest.test_case "empty-collapse" `Quick test_empty_collapse;
          Alcotest.test_case "scalar" `Quick test_scalar_rewrites;
          Alcotest.test_case "rule coverage" `Quick test_rule_coverage;
        ] );
      ( "chain",
        [
          Alcotest.test_case "rev-rev" `Quick test_chain_rev_rev;
          Alcotest.test_case "drop-to-array" `Quick test_chain_drop_to_array;
          Alcotest.test_case "fixpoint" `Quick test_chain_fixpoint;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rewrite log" `Quick test_prepared_rewrite_log;
          Alcotest.test_case "native chain log" `Quick
            test_native_rewrite_log_has_chain_rules;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest random_idempotent;
          QCheck_alcotest.to_alcotest random_operator_count;
          QCheck_alcotest.to_alcotest random_differential;
        ] );
    ]
