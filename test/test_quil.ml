(* QUIL: canonicalization (Table 1), the grammar recognizer (Fig. 4),
   and symbol strings. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let sym_q q = Quil.symbol_string (Canon.of_query q)

let sym_s sq = Quil.symbol_string (Canon.of_scalar sq)

let test_table1_mapping () =
  let src = ints [| 1 |] in
  Alcotest.(check string) "src" "Src Ret" (sym_q src);
  Alcotest.(check string) "select -> Trans" "Src Trans Ret"
    (sym_q (Query.select (fun x -> x) src));
  Alcotest.(check string) "where -> Pred" "Src Pred Ret"
    (sym_q (Query.where (fun x -> I.(x > Expr.int 0)) src));
  Alcotest.(check string) "take -> Pred" "Src Pred Ret"
    (sym_q (Query.take 3 src));
  Alcotest.(check string) "skip -> Pred" "Src Pred Ret"
    (sym_q (Query.skip 3 src));
  Alcotest.(check string) "group_by -> Sink" "Src Sink:GroupBy Ret"
    (sym_q (Query.group_by (fun x -> x) src));
  Alcotest.(check string) "order_by -> Sink" "Src Sink:OrderBy Ret"
    (sym_q (Query.order_by (fun x -> x) src));
  Alcotest.(check string) "distinct -> Sink" "Src Sink:Distinct Ret"
    (sym_q (Query.distinct src));
  Alcotest.(check string) "sum -> Agg" "Src Agg Ret" (sym_s (Query.sum_int src));
  Alcotest.(check string) "min -> Agg" "Src Agg Ret" (sym_s (Query.min_elt src));
  Alcotest.(check string) "last -> Agg" "Src Agg Ret" (sym_s (Query.last src));
  Alcotest.(check string) "element_at -> Pred Agg" "Src Pred Agg Ret"
    (sym_s (Query.element_at 2 src));
  Alcotest.(check string) "select_i -> Trans" "Src Trans Ret"
    (sym_q (Query.select_i (fun i x -> I.(i + x)) src));
  Alcotest.(check string) "where_i -> Pred" "Src Pred Ret"
    (sym_q (Query.where_i (fun i _ -> I.(i mod Expr.int 2 = Expr.int 0)) src));
  Alcotest.(check string) "range src" "Src Ret"
    (sym_q (Query.range ~start:0 ~count:3));
  Alcotest.(check string) "repeat src" "Src Ret"
    (sym_q (Query.repeat Ty.Int 5 ~count:3))

let test_nested_symbols () =
  let src = ints [| 1 |] in
  let nested = Query.select_many (fun _ -> Query.range ~start:0 ~count:2) src in
  Alcotest.(check string) "select_many" "Src [Src Ret] Ret" (sym_q nested);
  let scalar_nested =
    Query.select_sq (fun _ -> Query.sum_int (Query.range ~start:0 ~count:2)) src
  in
  Alcotest.(check string) "select_q" "Src Trans[Src Agg Ret] Ret"
    (sym_q scalar_nested);
  let pred_nested =
    Query.where_sq (fun x -> Query.exists (fun y -> I.(y = x)) (ints [| 1 |])) src
  in
  Alcotest.(check string) "where_q" "Src Pred[Src Agg Ret] Ret"
    (sym_q pred_nested)

let test_join_desugars_to_nested () =
  let orders = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) [| 1, 10 |] in
  let people = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) [| 1, 99 |] in
  let joined =
    Query.join ~inner:orders
      ~outer_key:(fun p -> Expr.Fst p)
      ~inner_key:(fun o -> Expr.Fst o)
      ~result:(fun p o -> Expr.Pair (Expr.Snd p, Expr.Snd o))
      people
  in
  (* Equi-join lowers to the specialized hash join by default, and to the
     paper's SelectMany-over-filtered-inner form when disabled (§5). *)
  Alcotest.(check string) "join (hash)" "Src HashJoin[Src Ret] Ret"
    (sym_q joined);
  Canon.hash_join_enabled := false;
  let nested_sym = sym_q joined in
  Canon.hash_join_enabled := true;
  Alcotest.(check string) "join (nested)" "Src [Src Pred Ret] Ret" nested_sym

let test_validate_accepts_canonical () =
  let check_ok chain =
    match Quil_grammar.validate chain with
    | Ok () -> ()
    | Error e -> Alcotest.failf "expected valid chain: %s" e
  in
  check_ok (Canon.of_query (ints [| 1 |] |> Query.select (fun x -> x)));
  check_ok (Canon.of_scalar (Query.sum_int (ints [| 1 |])));
  check_ok
    (Canon.of_query
       (ints [| 1 |]
       |> Query.group_by (fun x -> x)
       |> Query.select (fun g -> Expr.Fst g)));
  check_ok
    (Canon.of_scalar
       (Query.sum_int
          (Query.select_many (fun _ -> Query.range ~start:0 ~count:2) (ints [| 1 |]))))

let dummy_agg : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed = (fun _ _ -> "0");
          step = (fun ~accs:_ ~elem:_ _ _ -> "0");
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = false;
    early_exit = None;
    result = (fun ~accs:_ _ _ -> "0");
    additive = None;
  }

let dummy_src : Quil.src =
  Quil.Src_range { start = (fun _ _ -> "0"); count = (fun _ _ -> "1") }

let test_validate_rejects_agg_midchain () =
  let chain =
    {
      Quil.src = dummy_src;
      ops =
        [
          Quil.Agg dummy_agg;
          Quil.Trans { Quil.bind1 = (fun _ e -> e); body1 = (fun _ _ -> "x") };
        ];
    }
  in
  match Quil_grammar.validate chain with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "Agg mid-chain must be rejected"

let test_validate_rejects_collection_in_trans_position () =
  let inner = { Quil.src = dummy_src; ops = [] } in
  let chain =
    {
      Quil.src = dummy_src;
      ops =
        [
          Quil.Trans_nested
            { Quil.bind_outer_s = (fun _ e -> e); inner_s = inner };
        ];
    }
  in
  match Quil_grammar.validate chain with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "collection sub-query in Trans position must be rejected"

let test_validate_rejects_scalar_selectmany () =
  let inner = { Quil.src = dummy_src; ops = [ Quil.Agg dummy_agg ] } in
  let chain =
    {
      Quil.src = dummy_src;
      ops =
        [
          Quil.Nested
            { Quil.bind_outer = (fun _ e -> e); inner; result2 = None };
        ];
    }
  in
  match Quil_grammar.validate chain with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "scalar sub-query under SelectMany must be rejected"

let test_returns_scalar () =
  Alcotest.(check bool) "scalar" true
    (Quil.returns_scalar (Canon.of_scalar (Query.sum_int (ints [| 1 |]))));
  Alcotest.(check bool) "collection" false
    (Quil.returns_scalar (Canon.of_query (ints [| 1 |])))

let test_operator_count () =
  let q =
    ints [| 1 |]
    |> Query.where (fun x -> I.(x > Expr.int 0))
    |> Query.select_many (fun _ -> Query.range ~start:0 ~count:2)
  in
  (* Src, Pred, Nested + inner Src = 4 *)
  Alcotest.(check int) "count" 4 (Quil.operator_count (Canon.of_query q))

let test_default_literal () =
  Alcotest.(check (option string)) "int" (Some "0") (Canon.default_literal Ty.Int);
  Alcotest.(check (option string)) "pair" (Some "(0., false)")
    (Canon.default_literal (Ty.Pair (Ty.Float, Ty.Bool)));
  Alcotest.(check (option string)) "array" (Some "[||]")
    (Canon.default_literal (Ty.Array Ty.Int));
  Alcotest.(check (option string)) "func" None
    (Canon.default_literal (Ty.Func (Ty.Int, Ty.Int)))

(* Operator specialization (section 4.3). *)

let count_query () =
  ints [| 1; 2; 3; 4 |]
  |> Query.group_by (fun x -> I.(x mod Expr.int 2))
  |> Query.select (fun g -> Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g)))

let test_specialize_count () =
  Alcotest.(check string) "count pattern specializes"
    "Src Sink:GroupByAggregate Trans Ret"
    (sym_q (count_query ()));
  Alcotest.(check (list (pair int int))) "values preserved"
    (Reference.to_list (count_query ()))
    (List.map (fun x -> x) (Reference.to_list (Specialize.query (count_query ()))))

let test_specialize_fold () =
  let q =
    ints [| 1; 2; 3; 4; 5 |]
    |> Query.group_by (fun x -> I.(x mod Expr.int 2))
    |> Query.select_sq (fun g ->
           Query.Sum_int (Query.Of_array (Ty.Int, Expr.Snd g)))
  in
  Alcotest.(check string) "fold pattern specializes"
    "Src Sink:GroupByAggregate Trans Ret" (sym_q q);
  Alcotest.(check (list int)) "sums preserved"
    (Reference.to_list q)
    (Reference.to_list (Specialize.query q))

let test_specialize_fold_with_key_result () =
  (* Result selector mentioning the group key. *)
  let q =
    ints [| 1; 2; 3; 4; 5; 6 |]
    |> Query.group_by (fun x -> I.(x mod Expr.int 3))
    |> Query.select_sq (fun g ->
           Query.Aggregate_full
             ( Query.Of_array (Ty.Int, Expr.Snd g),
               Expr.int 0,
               Expr.lam2 "a" Ty.Int "x" Ty.Int (fun a x -> I.(a + x)),
               Expr.lam "a" Ty.Int (fun a -> Expr.Pair (Expr.Fst g, a)) ))
  in
  Alcotest.(check string) "specializes" "Src Sink:GroupByAggregate Trans Ret"
    (sym_q q);
  Alcotest.(check (list (pair int int))) "key+sum preserved"
    (Reference.to_list q)
    (Reference.to_list (Specialize.query q))

let test_specialize_does_not_apply () =
  (* Using the raw group values (not just an aggregate) blocks it. *)
  let q =
    ints [| 1; 2; 3 |]
    |> Query.group_by (fun x -> I.(x mod Expr.int 2))
    |> Query.select (fun g -> Expr.Snd g)
  in
  Alcotest.(check string) "stays a plain GroupBy" "Src Sink:GroupBy Trans Ret"
    (sym_q q)

let test_specialize_flag () =
  Specialize.enabled := false;
  let sym = sym_q (count_query ()) in
  Specialize.enabled := true;
  Alcotest.(check string) "disabled leaves GroupBy" "Src Sink:GroupBy Trans Ret"
    sym

let test_sorted_group () =
  let sorted_grouped =
    ints [| 5; 2; 8; 2; 5 |]
    |> Query.order_by (fun x -> I.(x mod Expr.int 3))
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 3))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x))
  in
  Alcotest.(check string) "sorted sink chosen"
    "Src Sink:OrderBy Sink:GroupByAggregateSorted Ret"
    (sym_q sorted_grouped);
  (* A different key keeps the hash sink. *)
  let different_key =
    ints [| 1 |]
    |> Query.order_by (fun x -> x)
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 3))
         ~seed:(Expr.int 0)
         ~step:(fun acc _ -> acc)
  in
  Alcotest.(check string) "different key keeps hash sink"
    "Src Sink:OrderBy Sink:GroupByAggregate Ret"
    (sym_q different_key);
  Canon.sorted_group_enabled := false;
  let sym = sym_q sorted_grouped in
  Canon.sorted_group_enabled := true;
  Alcotest.(check string) "flag off keeps hash sink"
    "Src Sink:OrderBy Sink:GroupByAggregate Ret" sym

let test_alpha_equal () =
  let k1 = Expr.lam "x" Ty.Int (fun x -> I.(x mod Expr.int 3)) in
  let k2 = Expr.lam "y" Ty.Int (fun y -> I.(y mod Expr.int 3)) in
  let k3 = Expr.lam "x" Ty.Int (fun x -> I.(x mod Expr.int 4)) in
  Alcotest.(check bool) "renamed params equal" true (Expr.alpha_equal_lam k1 k2);
  Alcotest.(check bool) "different constant differs" false
    (Expr.alpha_equal_lam k1 k3);
  let arr = [| 1.0 |] in
  let c1 = Expr.lam "x" Ty.Int (fun x -> Expr.Infix.((Expr.capture (Ty.Array Ty.Float) arr).%(x))) in
  let c2 = Expr.lam "x" Ty.Int (fun x -> Expr.Infix.((Expr.capture (Ty.Array Ty.Float) arr).%(x))) in
  let c3 = Expr.lam "x" Ty.Int (fun x -> Expr.Infix.((Expr.capture (Ty.Array Ty.Float) [| 1.0 |]).%(x))) in
  Alcotest.(check bool) "same captured value equal" true (Expr.alpha_equal_lam c1 c2);
  Alcotest.(check bool) "distinct captured arrays differ" false
    (Expr.alpha_equal_lam c1 c3)

let () =
  Alcotest.run "quil"
    [
      ( "canon",
        [
          Alcotest.test_case "table1" `Quick test_table1_mapping;
          Alcotest.test_case "nested" `Quick test_nested_symbols;
          Alcotest.test_case "join" `Quick test_join_desugars_to_nested;
          Alcotest.test_case "default_literal" `Quick test_default_literal;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "accepts canonical" `Quick test_validate_accepts_canonical;
          Alcotest.test_case "rejects Agg mid-chain" `Quick test_validate_rejects_agg_midchain;
          Alcotest.test_case "rejects collection Trans" `Quick
            test_validate_rejects_collection_in_trans_position;
          Alcotest.test_case "rejects scalar SelectMany" `Quick
            test_validate_rejects_scalar_selectmany;
          Alcotest.test_case "returns_scalar" `Quick test_returns_scalar;
          Alcotest.test_case "operator_count" `Quick test_operator_count;
        ] );
      ( "specialize",
        [
          Alcotest.test_case "count pattern" `Quick test_specialize_count;
          Alcotest.test_case "fold pattern" `Quick test_specialize_fold;
          Alcotest.test_case "fold with key result" `Quick
            test_specialize_fold_with_key_result;
          Alcotest.test_case "does not apply" `Quick test_specialize_does_not_apply;
          Alcotest.test_case "flag" `Quick test_specialize_flag;
          Alcotest.test_case "sorted group" `Quick test_sorted_group;
          Alcotest.test_case "alpha equality" `Quick test_alpha_equal;
        ] );
    ]
