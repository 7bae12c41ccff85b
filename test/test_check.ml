(* Steno.Check: the QUIL well-formedness PDA (gallery acceptance and
   malformed-chain rejection), expression purity/interval analysis, the
   plan linter's rule codes, the parallelizability classifier, and the
   engine integration (strict mode, diagnostics accessors, interval
   rewrites, rewrite-log dedup). *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let data = [| 5; 2; 8; 2; 11; 14; 3; 8; 0; 7; 12; 9 |]

let even x = I.(x mod Expr.int 2 = Expr.int 0)

let fused_engine ?(strict = false) ?(optimize = true) () =
  Steno.Engine.(
    create { default_config with backend = Fused; strict; optimize })

let codes ds = List.map (fun d -> d.Check.d_code) ds

(* {2 PDA acceptance} *)

(* The chain of every canonicalizable query must be accepted, the
   accepting kind must agree with [Quil.returns_scalar], and the PDA
   must agree with [Quil_grammar.validate] (two independent
   implementations of the grammar). *)
let accepted name chain =
  (match Check.Pda.accepts chain with
  | Ok k ->
    Alcotest.(check bool)
      (name ^ " kind") (Quil.returns_scalar chain)
      (k = Check.Pda.Scalar)
  | Error e -> Alcotest.failf "%s: PDA rejected: %s" name e);
  match Quil_grammar.validate chain with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: validate rejected: %s" name e

let test_pda_gallery () =
  accepted "even-squares"
    (Canon.of_query (ints data |> Query.where even |> Query.select (fun x -> I.(x * x))));
  accepted "pipeline"
    (Canon.of_query
       (ints data |> Query.where even
       |> Query.select (fun x -> I.(x + Expr.int 1))
       |> Query.skip 1 |> Query.take 4 |> Query.rev));
  accepted "order-take"
    (Canon.of_query
       (ints data
       |> Query.order_by ~order:Query.Descending (fun x -> x)
       |> Query.take 5));
  accepted "group-by"
    (Canon.of_query
       (ints data
       |> Query.group_by (fun x -> I.(x mod Expr.int 4))
       |> Query.select (fun g -> Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g)))));
  accepted "join"
    (Canon.of_query
       (ints data
       |> Query.join ~inner:(ints data)
            ~outer_key:(fun x -> x)
            ~inner_key:(fun y -> y)
            ~result:(fun x y -> I.(x + y))));
  accepted "select-many"
    (Canon.of_query
       (ints data
       |> Query.select_many (fun x ->
              ints [| 1; 2; 3 |] |> Query.select (fun y -> I.(x * y)))));
  accepted "nested-scalar-pred"
    (Canon.of_query
       (ints data
       |> Query.where_sq (fun x ->
              ints data |> Query.exists (fun y -> I.(y = x)))));
  accepted "sum" (Canon.of_scalar (ints data |> Query.sum_int));
  accepted "min-by"
    (Canon.of_scalar
       (Query.range ~start:0 ~count:8
       |> Query.min_by (fun j -> I.(j * j - j))));
  accepted "exists"
    (Canon.of_scalar (ints data |> Query.exists (fun x -> I.(x = Expr.int 14))))

let test_pda_tokens () =
  let open Check.Pda in
  let ok name toks kind =
    match run toks with
    | Ok k -> Alcotest.(check bool) name true (k = kind)
    | Error e -> Alcotest.failf "%s rejected: %s" name e
  in
  let rejected name toks =
    match run toks with
    | Ok _ -> Alcotest.failf "%s: accepted a malformed sentence" name
    | Error _ -> ()
  in
  ok "src-ret" [ Src; Ret ] Collection;
  ok "src-agg-ret" [ Src; Agg; Ret ] Scalar;
  ok "body" [ Src; Trans; Pred; Sink; Ret ] Collection;
  ok "nested scalar"
    [ Src; Open Scalar; Src; Agg; Ret; Close; Trans; Ret ]
    Collection;
  ok "nested collection"
    [ Src; Open Collection; Src; Pred; Ret; Close; Trans; Ret ]
    Collection;
  rejected "empty" [];
  rejected "no src" [ Trans; Ret ];
  rejected "missing ret" [ Src; Agg ];
  rejected "agg not terminal" [ Src; Agg; Trans; Ret ];
  rejected "src mid-chain" [ Src; Src; Ret ];
  rejected "unbalanced close" [ Src; Ret; Close ];
  rejected "unclosed sub-query" [ Src; Open Collection; Src; Ret ];
  rejected "kind mismatch"
    [ Src; Open Scalar; Src; Ret; Close; Trans; Ret ];
  rejected "token after ret" [ Src; Ret; Trans ]

(* Hand-built malformed chains: the builders can't produce these, which
   is exactly why the PDA exists as an independent acceptor. *)
let r s : Quil.render = fun _ _ -> s

let dummy_lam1 : Quil.lam1 = { Quil.bind1 = (fun _ env -> env); body1 = r "true" }

let dummy_agg : Quil.agg =
  {
    Quil.accs =
      [ { Quil.seed = r "0"; step = (fun ~accs:_ ~elem:_ -> r "0"); first = None } ];
    first_element = false;
    require_nonempty = false;
    early_exit = None;
    result = (fun ~accs:_ -> r "0");
  }

let chain ops : Quil.chain =
  { Quil.src = Quil.Src_range { start = r "0"; count = r "3" }; ops }

let test_pda_malformed_chains () =
  let rejected name c =
    (match Check.Pda.accepts c with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ());
    match Check.assert_well_formed c with
    | () -> Alcotest.failf "%s: assert_well_formed passed" name
    | exception Check.Malformed_chain _ -> ()
  in
  rejected "trans after agg"
    (chain [ Quil.Agg dummy_agg; Quil.Trans dummy_lam1 ]);
  rejected "nested wants collection, got scalar"
    (chain
       [
         Quil.Nested
           {
             Quil.bind_outer = (fun _ env -> env);
             inner = chain [ Quil.Agg dummy_agg ];
             result2 = None;
           };
       ]);
  rejected "nested-scalar wants scalar, got collection"
    (chain
       [
         Quil.Trans_nested
           {
             Quil.bind_outer_s = (fun _ env -> env);
             inner_s = chain [ Quil.Trans dummy_lam1 ];
           };
       ]);
  (* And the same fixtures must stay rejectable by [validate]: the two
     acceptors agree on the negative cases too. *)
  (match
     Quil_grammar.validate (chain [ Quil.Agg dummy_agg; Quil.Trans dummy_lam1 ])
   with
  | Ok () -> Alcotest.fail "validate accepted trans-after-agg"
  | Error _ -> ());
  (* A correct hand-built chain is accepted as scalar. *)
  match Check.Pda.accepts (chain [ Quil.Pred dummy_lam1; Quil.Agg dummy_agg ]) with
  | Ok k -> Alcotest.(check bool) "scalar kind" true (k = Check.Pda.Scalar)
  | Error e -> Alcotest.failf "well-formed fixture rejected: %s" e

(* {2 Expression analysis} *)

let int_body f = (Expr.lam "x" Ty.Int f).Expr.body

let host_succ = Expr.capture (Ty.Func (Ty.Int, Ty.Int)) (fun v -> v + 1)

let test_purity_census () =
  let pure = int_body (fun x -> I.((x * x) + Expr.int 1)) in
  Alcotest.(check bool) "pure" true (Check.Purity.purity pure = Check.Purity.Pure);
  let c = Check.Purity.census pure in
  Alcotest.(check int) "applies" 0 c.Check.Purity.c_applies;
  Alcotest.(check int) "free vars" 1 c.Check.Purity.c_free_vars;
  let opaque = int_body (fun x -> Expr.Apply (host_succ, x)) in
  Alcotest.(check bool) "opaque" true
    (Check.Purity.purity opaque = Check.Purity.Opaque);
  let c = Check.Purity.census opaque in
  Alcotest.(check int) "one apply" 1 c.Check.Purity.c_applies;
  Alcotest.(check int) "one capture" 1 c.Check.Purity.c_captures;
  Alcotest.(check bool) "apply costs more" true
    (c.Check.Purity.c_cost > (Check.Purity.census pure).Check.Purity.c_cost)

let itv_check name e lo hi =
  let i = Check.Purity.interval e in
  Alcotest.(check (option int)) (name ^ " lo") lo i.Check.Purity.lo;
  Alcotest.(check (option int)) (name ^ " hi") hi i.Check.Purity.hi

let test_intervals () =
  itv_check "const" (Expr.int 5) (Some 5) (Some 5);
  itv_check "arith" I.((Expr.int 2 * Expr.int 3) - Expr.int 10) (Some (-4)) (Some (-4));
  itv_check "capture" (Expr.capture Ty.Int 42) None None;
  itv_check "mod" (int_body (fun x -> I.(x mod Expr.int 10))) (Some (-9)) (Some 9);
  itv_check "min clamps" (Expr.Prim2 (Prim.Min_int, Expr.capture Ty.Int 7, Expr.int 0)) None (Some 0);
  itv_check "let"
    (Expr.let_ "y" (Expr.int 4) (fun y -> I.(y + y)))
    (Some 8) (Some 8)

let bool_body f = (Expr.lam "x" Ty.Int f).Expr.body

let test_truth () =
  let t e = Check.Purity.truth e in
  Alcotest.(check bool) "mod < 10 true" true
    (t (bool_body (fun x -> I.(x mod Expr.int 10 < Expr.int 10))) = Check.Purity.True);
  Alcotest.(check bool) "mod > 20 false" true
    (t (bool_body (fun x -> I.(x mod Expr.int 10 > Expr.int 20))) = Check.Purity.False);
  Alcotest.(check bool) "x < 10 unknown" true
    (t (bool_body (fun x -> I.(x < Expr.int 10))) = Check.Purity.Unknown);
  Alcotest.(check bool) "env refines" true
    (Check.Purity.truth
       ~env:
         [
           ( (Expr.lam "x" Ty.Int (fun x -> x)).Expr.param.Expr.id,
             Check.Purity.exactly 3 );
         ]
       (bool_body (fun x -> I.(x < Expr.int 10)))
    = Check.Purity.Unknown)

let test_zero_division_and_nonpositive () =
  Alcotest.(check int) "one zero site" 1
    (Check.Purity.zero_division_sites
       (int_body (fun x -> I.(x / (Expr.int 5 - Expr.int 5)))));
  Alcotest.(check int) "safe division" 0
    (Check.Purity.zero_division_sites (int_body (fun x -> I.(x / Expr.int 5))));
  Alcotest.(check bool) "min(c,0) nonpositive" true
    (Check.Purity.always_nonpositive
       (Expr.Prim2 (Prim.Min_int, Expr.capture Ty.Int 7, Expr.int 0)));
  Alcotest.(check bool) "capture not nonpositive" false
    (Check.Purity.always_nonpositive (Expr.capture Ty.Int 0))

(* {2 The linter} *)

let test_lint_codes () =
  (* SC001 opaque lambda *)
  let ds =
    Check.query (ints data |> Query.select (fun x -> Expr.Apply (host_succ, x)))
  in
  Alcotest.(check (list string)) "SC001" [ "SC001"; "SC011" ] (codes ds);
  (* SC003 rev after order-by, plus the SC002 blocker at the sort *)
  let ds =
    Check.query (ints data |> Query.order_by (fun x -> x) |> Query.rev)
  in
  Alcotest.(check (list string)) "SC003" [ "SC002"; "SC003" ] (codes ds);
  Alcotest.(check string) "SC003 golden"
    "SC003 hint [2:rev] Rev directly after OrderBy: flip the sort \
     direction instead and drop the Rev sink"
    (Check.to_string (List.nth ds 1));
  (* SC004 where after take *)
  let ds = Check.query (ints data |> Query.take 5 |> Query.where even) in
  Alcotest.(check (list string)) "SC004" [ "SC002"; "SC004" ] (codes ds);
  let sc4 = List.nth ds 1 in
  Alcotest.(check int) "SC004 index" 2 sc4.Check.d_index;
  Alcotest.(check string) "SC004 op" "where" sc4.Check.d_op;
  Alcotest.(check bool) "SC004 severity" true
    (sc4.Check.d_severity = Check.Warning);
  (* SC005 group-by without aggregation specialization *)
  let ds =
    Check.query (ints data |> Query.group_by (fun x -> I.(x mod Expr.int 4)))
  in
  Alcotest.(check (list string)) "SC005" [ "SC002"; "SC005" ] (codes ds);
  (* group_by_agg is the fix: no SC005 *)
  let ds =
    Check.query
      (ints data
      |> Query.group_by_agg
           ~key:(fun x -> I.(x mod Expr.int 4))
           ~seed:(Expr.int 0)
           ~step:(fun acc _ -> I.(acc + Expr.int 1)))
  in
  Alcotest.(check (list string)) "group-by-agg" [ "SC002" ] (codes ds);
  (* SC006 provable division by zero is an error *)
  let ds =
    Check.query
      (ints data
      |> Query.where (fun x -> I.(x / (Expr.int 5 - Expr.int 5) > Expr.int 0)))
  in
  Alcotest.(check (list string)) "SC006" [ "SC006" ] (codes ds);
  Alcotest.(check int) "SC006 errors" 1 (List.length (Check.errors ds));
  (* SC007 aggregate over a provably empty source *)
  let ds = Check.scalar (ints [||] |> Query.min_elt) in
  Alcotest.(check (list string)) "SC007" [ "SC007" ] (codes ds);
  Alcotest.(check string) "SC007 golden"
    "SC007 error [1:min] this aggregate requires a non-empty input, but \
     its source is statically empty: every run raises"
    (Check.to_string (List.hd ds));
  (* clean pipelines really are clean *)
  Alcotest.(check (list string)) "clean" []
    (codes (Check.query (ints data |> Query.where even |> Query.select (fun x -> I.(x * x)))));
  Alcotest.(check (list string)) "clean scalar" []
    (codes (Check.scalar (ints data |> Query.sum_int)))

(* SC008-SC011: the flow-analysis lints added with the translation
   validator. *)
let test_lint_flow_codes () =
  (* SC008 redundant Distinct: Range is duplicate-free. *)
  let ds = Check.query (Query.range ~start:0 ~count:5 |> Query.distinct) in
  Alcotest.(check (list string)) "SC008" [ "SC002"; "SC008" ] (codes ds);
  Alcotest.(check string) "SC008 golden"
    "SC008 hint [1:distinct] Distinct over an input that is provably \
     duplicate-free: the operator pays a hash table per run and removes \
     nothing (the optimizer drops it)"
    (Check.to_string (List.nth ds 1));
  (* ...but Distinct over possible duplicates is not flagged. *)
  let ds = Check.query (ints data |> Query.distinct) in
  Alcotest.(check (list string)) "no SC008" [ "SC002" ] (codes ds);
  (* SC009 sort discarded by re-sort. *)
  let ds =
    Check.query
      (ints data
      |> Query.order_by (fun x -> x)
      |> Query.order_by (fun x -> I.(x mod Expr.int 5)))
  in
  Alcotest.(check (list string)) "SC009" [ "SC002"; "SC009" ] (codes ds);
  Alcotest.(check string) "SC009 golden"
    "SC009 warning [2:order-by] OrderBy directly over OrderBy: the \
     earlier sort survives only as a stable-sort tie-break; sort once by \
     a composite key if multi-key ordering is intended"
    (Check.to_string (List.nth ds 1));
  (* SC010 statically empty plan, attached to the source. *)
  let ds = Check.query (ints [||] |> Query.select (fun x -> I.(x * x))) in
  Alcotest.(check (list string)) "SC010" [ "SC010" ] (codes ds);
  Alcotest.(check string) "SC010 golden"
    "SC010 warning [0:of-array] the plan is statically empty \
     (cardinality upper bound is zero elements): every run produces \
     nothing"
    (Check.to_string (List.hd ds));
  (* Take 0 also empties the plan, transitively. *)
  let ds = Check.query (ints data |> Query.take 0 |> Query.rev) in
  Alcotest.(check bool) "SC010 via take 0" true
    (List.mem "SC010" (codes ds));
  (* SC011 opaque lambda inside the splittable prefix... *)
  let ds =
    Check.query
      (ints data
      |> Query.select (fun x -> Expr.Apply (host_succ, x))
      |> Query.order_by (fun x -> x))
  in
  Alcotest.(check (list string)) "SC011" [ "SC001"; "SC011"; "SC002" ]
    (codes ds);
  Alcotest.(check string) "SC011 golden"
    "SC011 hint [1:select] an opaque lambda inside the splittable \
     prefix: partitioned execution would reorder or parallelize its \
     host-function calls"
    (Check.to_string (List.nth ds 1));
  (* ...but not after the homomorphic prefix ends. *)
  let ds =
    Check.query
      (ints data
      |> Query.order_by (fun x -> x)
      |> Query.select (fun x -> Expr.Apply (host_succ, x)))
  in
  Alcotest.(check (list string)) "no SC011 past the blocker"
    [ "SC002"; "SC001" ] (codes ds)

(* Every rule code in the registry fires somewhere in this battery, so a
   code can neither be retired silently nor added without a test. *)
let test_lint_code_coverage () =
  let seen = Hashtbl.create 16 in
  let note ds =
    List.iter (fun d -> Hashtbl.replace seen d.Check.d_code ()) ds
  in
  note
    (Check.query
       (ints data
       |> Query.select (fun x -> Expr.Apply (host_succ, x))
       |> Query.order_by (fun x -> x)));
  note (Check.query (ints data |> Query.order_by (fun x -> x) |> Query.rev));
  note (Check.query (ints data |> Query.take 5 |> Query.where even));
  note (Check.query (ints data |> Query.group_by (fun x -> x)));
  note
    (Check.query
       (ints data
       |> Query.where (fun x ->
              I.(x / (Expr.int 5 - Expr.int 5) > Expr.int 0))));
  note (Check.scalar (ints [||] |> Query.min_elt));
  note (Check.query (Query.range ~start:0 ~count:5 |> Query.distinct));
  note
    (Check.query
       (ints data
       |> Query.order_by (fun x -> x)
       |> Query.order_by (fun x -> I.(x mod Expr.int 5))));
  note (Check.query (ints [||] |> Query.rev));
  (* SC000 and SC012 are engine-emitted (PDA rejection, rejected
     rewrite); their constructors produce the registry diagnostics. *)
  note [ Check.malformed "probe" ];
  note [ Check.rejected_rewrite "probe" ];
  let missing =
    List.filter
      (fun (r : Check.rule) -> not (Hashtbl.mem seen r.Check.r_code))
      Check.rules
  in
  Alcotest.(check (list string)) "every registry code exercised" []
    (List.map (fun (r : Check.rule) -> r.Check.r_code) missing)

let test_lint_nested () =
  let ds =
    Check.query
      (ints data
      |> Query.select_many (fun _x ->
             ints data |> Query.take 2 |> Query.where even))
  in
  match List.filter (fun d -> d.Check.d_code = "SC004") ds with
  | [ d ] ->
    Alcotest.(check int) "attached to embedding op" 1 d.Check.d_index;
    Alcotest.(check string) "op" "select-many" d.Check.d_op;
    Alcotest.(check bool) "marked" true
      (String.length d.Check.d_message > 23
      && String.sub d.Check.d_message 0 23 = "in nested sub-query: Wh")
  | ds -> Alcotest.failf "expected one nested SC004, got %d" (List.length ds)

let test_lint_deterministic () =
  let q =
    ints data |> Query.take 3 |> Query.where even
    |> Query.group_by (fun x -> x)
  in
  let a = Check.query q and b = Check.query q in
  Alcotest.(check (list string)) "stable" (List.map Check.to_string a)
    (List.map Check.to_string b);
  (* sorted by position, then code *)
  let positions = List.map (fun d -> d.Check.d_index) a in
  Alcotest.(check (list int)) "by position" (List.sort compare positions)
    positions

(* {2 The parallelizability classifier} *)

let test_homo_classifier () =
  let report =
    Check.Homo.classify
      (ints data |> Query.where even
      |> Query.order_by (fun x -> x)
      |> Query.take 3)
  in
  Alcotest.(check int) "prefix" 2 report.Check.Homo.r_prefix;
  Alcotest.(check (list string)) "labels"
    [ "of-array"; "where"; "order-by"; "take" ]
    (List.map (fun o -> o.Check.Homo.o_label) report.Check.Homo.r_ops);
  (match report.Check.Homo.r_blocker with
  | Some b ->
    Alcotest.(check int) "blocker index" 2 b.Check.Homo.o_index;
    Alcotest.(check string) "blocker label" "order-by" b.Check.Homo.o_label
  | None -> Alcotest.fail "expected a blocker");
  Alcotest.(check bool) "splittable pipeline" true
    (Check.Homo.is_homomorphic
       (ints data |> Query.where even |> Query.select (fun x -> I.(x * x))));
  (* scalar: combinable aggregates split, positional ones don't *)
  let sum = Check.Homo.classify_scalar (ints data |> Query.sum_int) in
  Alcotest.(check bool) "sum splits" true (sum.Check.Homo.r_blocker = None);
  (* First decomposes (leftmost non-empty partial) since PR 5; the truly
     positional Element_at still blocks. *)
  let first = Check.Homo.classify_scalar (ints data |> Query.first) in
  Alcotest.(check bool) "first splits" true (first.Check.Homo.r_blocker = None);
  let nth = Check.Homo.classify_scalar (ints data |> Query.element_at 2) in
  (match nth.Check.Homo.r_blocker with
  | Some b ->
    Alcotest.(check string) "element-at blocks" "element-at"
      b.Check.Homo.o_label
  | None -> Alcotest.fail "Element_at must block");
  (match
     Check.Homo.aggregate_combinability
       (Query.of_array Ty.Float [| 1.0; 2.0 |] |> Query.average)
   with
  | Check.Homo.Combinable _ -> ()
  | Check.Homo.Not_combinable r -> Alcotest.failf "average not combinable: %s" r);
  (match
     Check.Homo.aggregate_combinability
       (ints data
       |> Query.aggregate ~combine:( + ) ~seed:(Expr.int 0) ~step:(fun a x ->
              I.(a + x)))
   with
  | Check.Homo.Combinable _ -> ()
  | Check.Homo.Not_combinable r ->
    Alcotest.failf "declared combiner not combinable: %s" r);
  (match
     Check.Homo.aggregate_combinability
       (ints data |> Query.aggregate ~seed:(Expr.int 0) ~step:(fun a x ->
            I.(a + x)))
   with
  | Check.Homo.Not_combinable _ -> ()
  | Check.Homo.Combinable _ ->
    Alcotest.fail "an undeclared aggregate must not be combinable");
  match
    Check.Homo.aggregate_combinability (ints data |> Query.sum_int)
  with
  | Check.Homo.Combinable _ -> ()
  | Check.Homo.Not_combinable r -> Alcotest.failf "sum not combinable: %s" r

(* Explicit per-operator classifications: the verdict for each operator
   class is part of the module's contract (reason strings are not). *)
let test_homo_operator_verdicts () =
  let verdict_at label (report : Check.Homo.report) =
    match
      List.find_opt
        (fun o -> o.Check.Homo.o_label = label)
        report.Check.Homo.r_ops
    with
    | Some o -> o.Check.Homo.o_verdict
    | None -> Alcotest.failf "no %S operator in the report" label
  in
  let is_splittable = function
    | Check.Homo.Splittable -> true
    | Check.Homo.Blocking _ -> false
  in
  (* Join: only the outer side is walked (the inner side re-evaluates
     per outer element), so the operator itself splits. *)
  let join_q =
    ints data
    |> Query.join ~inner:(ints data)
         ~outer_key:(fun x -> x)
         ~inner_key:(fun x -> x)
         ~result:(fun a b -> I.(a + b))
  in
  Alcotest.(check bool) "join splits" true
    (is_splittable (verdict_at "join" (Check.Homo.classify join_q)));
  Alcotest.(check bool) "join pipeline homomorphic" true
    (Check.Homo.is_homomorphic join_q);
  (* Group_by_elem materializes per-key bags of the whole input. *)
  let gbe =
    ints data
    |> Query.group_by_elem
         ~key:(fun x -> I.(x mod Expr.int 4))
         ~elem:(fun x -> I.(x * x))
  in
  Alcotest.(check bool) "group-by-elem blocks" false
    (is_splittable (verdict_at "group-by" (Check.Homo.classify gbe)));
  (* Group_by_agg blocks the naive split too (the parallel layer's
     dedicated group-aggregate path is a different mechanism). *)
  let gba =
    ints data
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 4))
         ~seed:(Expr.int 0)
         ~step:(fun acc _ -> I.(acc + Expr.int 1))
  in
  Alcotest.(check bool) "group-by-agg blocks" false
    (is_splittable (verdict_at "group-by-agg" (Check.Homo.classify gba)));
  (* Order_by: a global sort. *)
  let sorted = ints data |> Query.order_by (fun x -> x) in
  Alcotest.(check bool) "order-by blocks" false
    (is_splittable (verdict_at "order-by" (Check.Homo.classify sorted)));
  (* Rev: reverses the global order. *)
  let rev = ints data |> Query.rev in
  Alcotest.(check bool) "rev blocks" false
    (is_splittable (verdict_at "rev" (Check.Homo.classify rev)));
  (* Each blocker caps the prefix at its own position. *)
  List.iter
    (fun (name, report, prefix) ->
      Alcotest.(check int) (name ^ " prefix") prefix
        report.Check.Homo.r_prefix)
    [
      "join", Check.Homo.classify join_q, 2;
      "group-by-elem", Check.Homo.classify gbe, 1;
      "group-by-agg", Check.Homo.classify gba, 1;
      "order-by", Check.Homo.classify sorted, 1;
      "rev", Check.Homo.classify rev, 1;
    ]

(* {2 Engine integration} *)

let div_zero_query =
  ints data
  |> Query.where (fun x -> I.(x / (Expr.int 5 - Expr.int 5) > Expr.int 0))

let test_engine_diagnostics () =
  let eng = fused_engine () in
  let q = ints data |> Query.take 5 |> Query.where even in
  Alcotest.(check (list string)) "check" [ "SC002"; "SC004" ]
    (codes (Steno.Engine.check eng q));
  let p = Steno.Engine.prepare eng q in
  Alcotest.(check (list string)) "prepared diagnostics"
    [ "SC002"; "SC004" ]
    (codes (Steno.Prepared.diagnostics p));
  (* First splits since PR 5, so it no longer trips SC002; the
     positional Element_at still does. *)
  let ps = Steno.Engine.prepare_scalar eng (ints data |> Query.first) in
  Alcotest.(check (list string)) "first has no diagnostics" []
    (codes (Steno.Prepared_scalar.diagnostics ps));
  let ps = Steno.Engine.prepare_scalar eng (ints data |> Query.element_at 1) in
  Alcotest.(check (list string)) "scalar diagnostics" [ "SC002" ]
    (codes (Steno.Prepared_scalar.diagnostics ps));
  (* explain carries and renders them *)
  let ex = Steno.Engine.explain eng q in
  Alcotest.(check (list string)) "explain diagnostics"
    [ "SC002"; "SC004" ]
    (codes ex.Steno.Engine.diagnostics);
  let rendered = Steno.Engine.explain_to_string ex in
  List.iter
    (fun needle ->
      let found =
        List.exists
          (fun line ->
            String.length line >= String.length needle
            && String.sub line 0 (String.length needle) = needle)
          (String.split_on_char '\n' rendered |> List.map String.trim)
      in
      if not found then Alcotest.failf "missing %S in:\n%s" needle rendered)
    [ "diagnostics:"; "SC002 hint"; "SC004 warning" ]

let test_engine_metrics_family () =
  let reg = Metrics.create () in
  let eng =
    Steno.Engine.(
      create { default_config with backend = Fused; metrics = reg })
  in
  ignore (Steno.Engine.prepare eng (ints data |> Query.take 5 |> Query.where even));
  let rendered = Metrics.render reg in
  Alcotest.(check bool) "family present" true
    (let needle = "check_diagnostics" in
     let n = String.length needle in
     let rec scan i =
       i + n <= String.length rendered
       && (String.sub rendered i n = needle || scan (i + 1))
     in
     scan 0)

let test_strict_mode () =
  let strict = fused_engine ~strict:true () in
  (match Steno.Engine.prepare strict div_zero_query with
  | exception Steno.Check_failed errs ->
    Alcotest.(check (list string)) "div-zero refused" [ "SC006" ] (codes errs)
  | _ -> Alcotest.fail "strict engine prepared a certain division by zero");
  (match Steno.Engine.prepare_scalar strict (ints [||] |> Query.min_elt) with
  | exception Steno.Check_failed errs ->
    Alcotest.(check (list string)) "empty-min refused" [ "SC007" ] (codes errs)
  | _ -> Alcotest.fail "strict engine prepared an aggregate over empty");
  (* warnings and hints never block, even under strict *)
  let p =
    Steno.Engine.prepare strict (ints data |> Query.take 5 |> Query.where even)
  in
  Alcotest.(check bool) "warnings pass" true
    (Steno.Prepared.diagnostics p <> [])

(* Regression for the strict-mode gap: [Check.assert_well_formed] only
   ran inside the Native path's chain thunk, so a Fused or Linq prepare
   never exercised the PDA on the post-optimization chain.  A strict
   engine now runs the acceptance check eagerly on every prepare,
   whatever the backend — observable through the [steno_pda_checks]
   counter. *)
let test_strict_pda_every_backend () =
  let pda_checks reg =
    Metrics.counter_value (Metrics.counter reg "steno_pda_checks")
  in
  let reg = Metrics.create () in
  let eng =
    Steno.Engine.(
      create
        { default_config with backend = Fused; strict = true; metrics = reg })
  in
  Alcotest.(check int) "no checks yet" 0 (pda_checks reg);
  ignore (Steno.Engine.prepare eng (ints data |> Query.where even));
  Alcotest.(check int) "fused prepare runs the PDA" 1 (pda_checks reg);
  ignore (Steno.Engine.prepare_scalar eng (ints data |> Query.sum_int));
  Alcotest.(check int) "scalar prepare too" 2 (pda_checks reg);
  ignore
    (Steno.Engine.prepare ~backend:Steno.Linq eng
       (ints data |> Query.where even |> Query.where even));
  Alcotest.(check int) "linq prepare too" 3 (pda_checks reg);
  (* A non-strict engine keeps the old lazy behaviour: no eager check. *)
  let reg0 = Metrics.create () in
  let eng0 =
    Steno.Engine.(
      create { default_config with backend = Fused; metrics = reg0 })
  in
  ignore (Steno.Engine.prepare eng0 (ints data |> Query.where even));
  Alcotest.(check int) "non-strict stays lazy" 0 (pda_checks reg0)

(* Non-strict engines must treat diagnostics as pure observation: any
   lint-carrying query still computes exactly what an unoptimized Linq
   evaluation computes. *)
let test_diagnostics_never_change_results () =
  let reference q = Steno.Engine.to_list (fused_engine ~optimize:false ()) q in
  List.iter
    (fun (name, q) ->
      Alcotest.(check (list int))
        name (reference q)
        (Steno.Engine.to_list (fused_engine ()) q))
    [
      "where after take", ints data |> Query.take 5 |> Query.where even;
      "rev after sort", ints data |> Query.order_by (fun x -> x) |> Query.rev;
      ( "opaque lambda",
        ints data |> Query.select (fun x -> Expr.Apply (host_succ, x)) );
      ( "group-by without agg",
        ints data
        |> Query.group_by (fun x -> I.(x mod Expr.int 4))
        |> Query.select (fun g -> Expr.Fst g) );
    ]

(* {2 Interval rewrites} *)

let test_interval_rewrites () =
  let reference q = Steno.Engine.to_list (fused_engine ~optimize:false ()) q in
  let tautology =
    ints data |> Query.where (fun x -> I.(x mod Expr.int 10 < Expr.int 10))
  in
  let _, log = Opt.plan (Query.Rows tautology) in
  Alcotest.(check (list string)) "tautology log" [ "where-interval-true" ] log;
  Alcotest.(check (list int)) "tautology results" (reference tautology)
    (Steno.Engine.to_list (fused_engine ()) tautology);
  let contradiction =
    ints data |> Query.where (fun x -> I.(x mod Expr.int 10 > Expr.int 20))
  in
  let _, log = Opt.plan (Query.Rows contradiction) in
  Alcotest.(check (list string)) "contradiction log"
    [ "where-interval-false" ] log;
  Alcotest.(check (list int)) "contradiction results" []
    (Steno.Engine.to_list (fused_engine ()) contradiction);
  (* a Take whose non-constant count is provably <= 0 *)
  let clamped =
    Query.Take
      (ints data, Expr.Prim2 (Prim.Min_int, Expr.capture Ty.Int 7, Expr.int 0))
  in
  let _, log = Opt.plan (Query.Rows clamped) in
  Alcotest.(check (list string)) "clamped log" [ "take-interval-nonpos" ] log;
  Alcotest.(check (list int)) "clamped results" (reference clamped)
    (Steno.Engine.to_list (fused_engine ()) clamped);
  (* an undecidable predicate is left alone *)
  let _, log = Opt.plan (Query.Rows (ints data |> Query.where even)) in
  Alcotest.(check (list string)) "undecidable" [] log

(* {2 Rewrite-log dedup} *)

let test_rewrite_log_dedup () =
  let q =
    ints data |> Query.where even
    |> Query.where (fun x -> I.(x < Expr.int 10))
    |> Query.where (fun x -> I.(x > Expr.int 1))
  in
  (* the raw optimizer log keeps one entry per firing... *)
  let _, raw = Opt.plan (Query.Rows q) in
  Alcotest.(check (list string)) "raw" [ "where-fuse"; "where-fuse" ] raw;
  (* ...and the preparation compresses the run *)
  let p = Steno.Engine.prepare (fused_engine ()) q in
  Alcotest.(check (list string)) "compressed" [ "where-fuse (x2)" ]
    (Steno.Prepared.rewrite_log p);
  let ex = Steno.Engine.explain (fused_engine ()) q in
  Alcotest.(check (list string)) "explain compressed" [ "where-fuse (x2)" ]
    ex.Steno.Engine.rules

(* {2 Dryad checked apply} *)

let test_dryad_checked () =
  let c = Dryad.create ~workers:2 () in
  let seq = Array.init 30 (fun i -> (i * 7) mod 20) in
  let ds = Dataset.of_array ~parts:3 seq in
  let out =
    Dryad.apply_query_checked c
      (fun part -> ints part |> Query.select (fun x -> I.(x + Expr.int 1)))
      ds
  in
  Alcotest.(check (array int)) "splittable runs"
    (Array.map (fun x -> x + 1) seq)
    (Dataset.collect out);
  match
    Dryad.apply_query_checked c
      (fun part -> ints part |> Query.order_by (fun x -> x))
      ds
  with
  | _ -> Alcotest.fail "checked apply accepted a global sort"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the blocker" true
      (let needle = "order-by" in
       let n = String.length needle in
       let rec scan i =
         i + n <= String.length msg
         && (String.sub msg i n = needle || scan (i + 1))
       in
       scan 0)

let () =
  Alcotest.run "check"
    [
      ( "pda",
        [
          Alcotest.test_case "gallery acceptance" `Quick test_pda_gallery;
          Alcotest.test_case "token sentences" `Quick test_pda_tokens;
          Alcotest.test_case "malformed chains" `Quick
            test_pda_malformed_chains;
        ] );
      ( "purity",
        [
          Alcotest.test_case "census" `Quick test_purity_census;
          Alcotest.test_case "intervals" `Quick test_intervals;
          Alcotest.test_case "truth" `Quick test_truth;
          Alcotest.test_case "zero division" `Quick
            test_zero_division_and_nonpositive;
        ] );
      ( "lint",
        [
          Alcotest.test_case "rule codes" `Quick test_lint_codes;
          Alcotest.test_case "flow codes" `Quick test_lint_flow_codes;
          Alcotest.test_case "code coverage" `Quick test_lint_code_coverage;
          Alcotest.test_case "nested sub-queries" `Quick test_lint_nested;
          Alcotest.test_case "deterministic" `Quick test_lint_deterministic;
        ] );
      ( "homo",
        [
          Alcotest.test_case "classifier" `Quick test_homo_classifier;
          Alcotest.test_case "operator verdicts" `Quick
            test_homo_operator_verdicts;
        ] );
      ( "engine",
        [
          Alcotest.test_case "diagnostics" `Quick test_engine_diagnostics;
          Alcotest.test_case "metrics family" `Quick
            test_engine_metrics_family;
          Alcotest.test_case "strict mode" `Quick test_strict_mode;
          Alcotest.test_case "strict PDA all backends" `Quick
            test_strict_pda_every_backend;
          Alcotest.test_case "observation only" `Quick
            test_diagnostics_never_change_results;
          Alcotest.test_case "interval rewrites" `Quick
            test_interval_rewrites;
          Alcotest.test_case "rewrite-log dedup" `Quick
            test_rewrite_log_dedup;
        ] );
      ( "dryad",
        [ Alcotest.test_case "checked apply" `Quick test_dryad_checked ] );
    ]
