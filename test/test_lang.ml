(* The textual front end: lexer, parser, elaborator, and end-to-end runs
   compared against hand-built combinator queries. *)

module I = Expr.Infix

let ints_in name xs : Elab.inputs = [ name, Elab.Input (Ty.Int, xs) ]

let xs = [| 5; 2; 8; 1; 9; 4; 7; 2 |]

let inputs : Elab.inputs =
  [
    "xs", Elab.Input (Ty.Int, xs);
    "fs", Elab.Input (Ty.Float, [| 1.5; -0.5; 2.25; 0.0 |]);
    ( "pairs",
      Elab.Input
        (Ty.Pair (Ty.Int, Ty.Float), [| 1, 10.0; 2, 20.0; 1, 30.0 |]) );
  ]

(* Lexer *)

let test_lexer () =
  let toks = Lexer.tokenize "from x in xs where x % 2 = 0 select x * x" in
  Alcotest.(check int) "token count incl. EOF" 15 (List.length toks);
  let kinds = List.map fst (Lexer.tokenize "1 2.5 1e3 \"hi\" <= <> && (,)") in
  Alcotest.(check bool) "literals and operators" true
    (kinds
    = [
        Lexer.INT 1; Lexer.FLOAT 2.5; Lexer.FLOAT 1000.0; Lexer.STRING "hi";
        Lexer.OP "<="; Lexer.OP "<>"; Lexer.OP "&&"; Lexer.LPAREN;
        Lexer.COMMA; Lexer.RPAREN; Lexer.EOF;
      ]);
  Alcotest.(check bool) "lex error raised" true
    (match Lexer.tokenize "a # b" with
    | exception Lexer.Lex_error (_, 2) -> true
    | _ -> false)

(* Parser *)

let test_parser_roundtrip () =
  let check src expected =
    let prog = Lang.parse src in
    Alcotest.(check string) src expected
      (Format.asprintf "%a" Surface.pp_program prog)
  in
  check "from x in xs select x" "from x in xs select x";
  check "from x in xs where x % 2 = 0 select x * x"
    "from x in xs where ((x % 2) = 0) select (x * x)";
  check "sum(from x in xs select x)" "sum(from x in xs select x)";
  check "from x in xs from y in range(0, x) select x + y"
    "from x in xs from y in range(0, x) select (x + y)";
  check "from x in xs orderby x desc take 3 select x"
    "from x in xs orderby x desc take 3 select x";
  check "from x in xs group x by x % 3" "from x in xs group x by (x % 3)";
  check "from g in (from x in xs group x by x % 3) select (fst g, count g)"
    "from g in (from x in xs group x by (x % 3)) select ((fst g), (count g))"

let test_parser_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3 = 7 && true" in
  Alcotest.(check string) "precedence" "(((1 + (2 * 3)) = 7) && true)"
    (Format.asprintf "%a" Surface.pp_expr e)

let test_parser_errors () =
  let fails src =
    match Lang.parse src with
    | exception Lang.Error (_, _) -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  fails "from x xs select x";
  fails "from x in xs";
  fails "from x in xs select";
  fails "from x in xs select x extra";
  fails "sum(from x in xs select x";
  fails "from in xs select 1"

(* Elaboration *)

let test_type_errors () =
  let fails src =
    match Lang.run ~inputs src with
    | exception Lang.Error (_, _) -> ()
    | _ -> Alcotest.failf "expected type error for %S" src
  in
  fails "from x in nope select x";
  fails "from x in xs select x +";
  fails "from x in xs where x select x";
  fails "from x in xs select x +. 1";
  fails "from x in xs where x = 1.5 select x";
  fails "from x in fs select x % 2";
  fails "from x in xs select fst x";
  fails "sum(from p in pairs select p)";
  fails "avg(from x in xs select x)";
  fails "from x in xs select unknown_aggregate(from y in xs select y) + x"

(* End-to-end: textual queries agree with combinator queries. *)

let run_ints src ins : int list =
  match Lang.run ~inputs:ins src with
  | Lang.Res_collection (Ty.Int, arr) -> Array.to_list arr
  | _ -> Alcotest.fail "expected an int collection"

let test_run_basic () =
  Alcotest.(check (list int)) "where/select" [ 4; 64; 16; 4 ]
    (run_ints "from x in xs where x % 2 = 0 select x * x" inputs);
  Alcotest.(check (list int)) "orderby desc take" [ 9; 8; 7 ]
    (run_ints "from x in xs orderby x desc take 3 select x" inputs);
  Alcotest.(check (list int)) "distinct" [ 5; 2; 8; 1; 9; 4; 7 ]
    (run_ints "from x in xs distinct select x" inputs);
  match Lang.run ~inputs "sum(from x in xs select x)" with
  | Lang.Res_scalar (Ty.Int, v) ->
    Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 xs) v
  | _ -> Alcotest.fail "expected int scalar"

let test_run_nested () =
  (* Multiple generators (SelectMany over pairs). *)
  Alcotest.(check (list int)) "two generators"
    [ 10; 20; 21; 30; 31; 32 ]
    (run_ints "from x in ys from y in range(0, x) select x * 10 + y"
       (ints_in "ys" [| 1; 2; 3 |]));
  (* Scalar subquery inside select. *)
  Alcotest.(check (list int)) "subquery in select" [ 0; 30; 60 ]
    (run_ints "from x in ys select sum(from y in range(0, x) select y) * 10"
       (ints_in "ys" [| 1; 3; 4 |]));
  (* Scalar subquery inside where. *)
  Alcotest.(check (list int)) "subquery in where" [ 3; 4 ]
    (run_ints
       "from x in ys where count(from y in range(0, x) select y) > 2 select x"
       (ints_in "ys" [| 1; 3; 2; 4 |]))

let test_run_grouping () =
  match
    Lang.run ~inputs
      "from g in (from x in xs group x by x % 3) select (fst g, count g)"
  with
  | Lang.Res_collection (Ty.Pair (Ty.Int, Ty.Int), arr) ->
    let expected =
      Reference.to_list
        (Query.of_array Ty.Int xs
        |> Query.group_by (fun x -> I.(x mod Expr.int 3))
        |> Query.select (fun g ->
               Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g))))
    in
    Alcotest.(check (list (pair int int))) "group counts" expected
      (Array.to_list arr)
  | _ -> Alcotest.fail "expected (int * int) collection"

let test_group_value_iteration () =
  (* Iterate a group's values with an array-expression source: the
     flattened groups contain every source element. *)
  let got =
    run_ints
      "from g in (from x in ys group x by x % 2) from v in snd g select v"
      (ints_in "ys" [| 5; 2; 8; 3 |])
  in
  Alcotest.(check (list int)) "flattened groups" [ 5; 3; 2; 8 ] got;
  (* Per-group aggregation over the values: sum of each group. *)
  let sums =
    run_ints
      "from g in (from x in ys group x by x % 2) select sum(from v in snd g \
       select v)"
      (ints_in "ys" [| 5; 2; 8; 3 |])
  in
  Alcotest.(check (list int)) "per-group sums" [ 8; 10 ] sums;
  (* That query is exactly the section 4.3 fold shape: the specialization
     pass must rewrite it to a GroupByAggregate sink. *)
  match
    Lang.elaborate ~inputs:(ints_in "ys" [| 5; 2; 8; 3 |])
      "from g in (from x in ys group x by x % 2) select sum(from v in snd g \
       select v)"
  with
  | Elab.Pgm_collection (Elab.Packed_query (_, q)) ->
    let quil = Steno.quil q in
    Alcotest.(check string) "specialized"
      "Src Sink:GroupByAggregate Trans Ret" quil
  | Elab.Pgm_scalar _ -> Alcotest.fail "expected collection"

let test_backends_agree_on_textual_queries () =
  let queries =
    [
      "from x in xs where x % 2 = 1 select x * 3";
      "from x in xs orderby x % 4 select x";
      "from x in xs skip 2 take 4 select x";
      "from x in xs select if x > 4 then x else 0 - x";
      "from x in xs from y in range(0, x % 3) select x + y";
      "from g in (from x in xs group x by x % 3) select (fst g, count g)";
    ]
  in
  let backends =
    if Steno.native_available () then [ Steno.Linq; Steno.Fused; Steno.Native ]
    else [ Steno.Linq; Steno.Fused ]
  in
  List.iter
    (fun src ->
      match Lang.elaborate ~inputs src with
      | Elab.Pgm_collection (Elab.Packed_query (ty, q)) ->
        let expected = Array.of_list (Reference.to_list q) in
        List.iter
          (fun b ->
            let got = Steno.to_array ~backend:b q in
            if Ty.compare_values (Ty.Array ty) got expected <> 0 then
              Alcotest.failf "backends disagree on %S" src)
          backends
      | Elab.Pgm_scalar _ -> Alcotest.fail "expected collection")
    queries

(* Property: pretty-printing a parsed program re-parses to the same
   pretty-printed form (fixpoint after one round). *)
let prop_pp_parse_roundtrip =
  let gen_expr_src =
    QCheck.Gen.(
      let var = oneofl [ "x"; "y" ] in
      sized @@ fix (fun self n ->
          if n <= 0 then
            oneof [ map string_of_int (int_bound 50); var ]
          else
            oneof
              [
                map string_of_int (int_bound 50);
                var;
                map2 (Printf.sprintf "%s + %s") (self (n / 2)) (self (n / 2));
                map2 (Printf.sprintf "%s * %s") (self (n / 2)) (self (n / 2));
                map2 (Printf.sprintf "%s %% %s") (self (n / 2))
                  (map string_of_int (int_range 1 9));
              ]))
  in
  let gen_src =
    QCheck.Gen.(
      gen_expr_src >>= fun cond_l ->
      gen_expr_src >>= fun cond_r ->
      gen_expr_src >>= fun body ->
      oneofl [ `Plain; `Where; `Take; `Order ] >|= fun clause ->
      let clause_s =
        match clause with
        | `Plain -> ""
        | `Where -> Printf.sprintf " where %s = %s" cond_l cond_r
        | `Take -> " take 3"
        | `Order -> Printf.sprintf " orderby %s desc" body
      in
      Printf.sprintf "from x in xs%s select %s" clause_s body)
  in
  QCheck.Test.make ~name:"pp/parse fixpoint" ~count:100
    (QCheck.make ~print:(fun s -> s) gen_src)
    (fun src ->
      match Lang.parse src with
      | prog ->
        let printed = Format.asprintf "%a" Surface.pp_program prog in
        let printed2 =
          Format.asprintf "%a" Surface.pp_program (Lang.parse printed)
        in
        String.equal printed printed2
      | exception Lang.Error (_, _) -> QCheck.assume_fail ())

let test_explain_mentions_quil () =
  let s = Lang.explain ~inputs "sum(from x in xs where x > 2 select x * x)" in
  Alcotest.(check bool) "has QUIL line" true
    (String.length s > 10 && String.sub s 0 5 = "QUIL:")

(* [select x] over the row is no operator at all: a filtered count
   reaches its aggregate straight from the filter, and so takes the
   branch-free mask. *)
let test_identity_select () =
  let src = "count(from x in xs where x % 3 <> 0 select x)" in
  (match Lang.elaborate ~inputs src with
  | Elab.Pgm_scalar (Elab.Packed_scalar (_, sq)) ->
    Alcotest.(check string) "no transform" "Src Pred Agg Ret"
      (Steno.quil_scalar sq)
  | Elab.Pgm_collection _ -> Alcotest.fail "expected a scalar");
  let s = Lang.explain ~inputs src in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "masked, no branch" true
    (has "Stdlib.Bool.to_int" && not (has "then begin"));
  (match Lang.elaborate ~inputs "from x in xs select x" with
  | Elab.Pgm_collection (Elab.Packed_query (_, q)) ->
    Alcotest.(check string) "bare source" "Src Ret" (Steno.quil q)
  | Elab.Pgm_scalar _ -> Alcotest.fail "expected a collection");
  (* Over two generators the row is a pair: [select x] projects. *)
  match Lang.elaborate ~inputs "from x in xs from y in xs select x" with
  | Elab.Pgm_collection (Elab.Packed_query (_, q)) ->
    Alcotest.(check bool) "projection kept" true
      (String.length (Steno.quil q) > String.length "Src Ret")
  | Elab.Pgm_scalar _ -> Alcotest.fail "expected a collection"

let () =
  Alcotest.run "lang"
    [
      ("lexer", [ Alcotest.test_case "tokens" `Quick test_lexer ]);
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "elaboration",
        [ Alcotest.test_case "type errors" `Quick test_type_errors ] );
      ( "run",
        [
          Alcotest.test_case "basic" `Quick test_run_basic;
          Alcotest.test_case "nested" `Quick test_run_nested;
          Alcotest.test_case "grouping" `Quick test_run_grouping;
          Alcotest.test_case "group value iteration" `Quick
            test_group_value_iteration;
          Alcotest.test_case "backends agree" `Quick
            test_backends_agree_on_textual_queries;
          Alcotest.test_case "explain" `Quick test_explain_mentions_quil;
          Alcotest.test_case "identity select" `Quick test_identity_select;
          QCheck_alcotest.to_alcotest prop_pp_parse_roundtrip;
        ] );
    ]
