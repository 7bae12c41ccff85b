(* Query AST construction, typing and structure. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let test_elem_ty () =
  let q = ints [| 1 |] in
  Alcotest.(check string) "src" "int" (Ty.to_string (Query.elem_ty q));
  let q2 = Query.select (fun x -> Expr.Pair (x, x)) q in
  Alcotest.(check string) "select" "(int * int)" (Ty.to_string (Query.elem_ty q2));
  let q3 = Query.group_by (fun x -> I.(x mod Expr.int 2)) q in
  Alcotest.(check string) "group_by" "(int * (int array))"
    (Ty.to_string (Query.elem_ty q3));
  let q4 =
    Query.group_by_agg ~key:(fun x -> x)
      ~seed:(Expr.float 0.0)
      ~step:(fun acc _ -> acc)
      q
  in
  Alcotest.(check string) "group_by_agg" "(int * float)"
    (Ty.to_string (Query.elem_ty q4));
  Alcotest.(check string) "scalar sum" "int"
    (Ty.to_string (Query.scalar_ty (Query.sum_int q)));
  Alcotest.(check string) "scalar avg" "float"
    (Ty.to_string (Query.scalar_ty (Query.average (Query.of_array Ty.Float [||]))))

let test_structure () =
  let q =
    ints [| 1; 2 |]
    |> Query.where (fun x -> I.(x > Expr.int 0))
    |> Query.select (fun x -> I.(x * x))
  in
  Alcotest.(check int) "operator_count" 3 (Query.operator_count q);
  let nested = Query.select_many (fun _ -> ints [| 1 |]) q in
  Alcotest.(check int) "nested count" 5 (Query.operator_count nested);
  let sq = Query.sum_int nested in
  Alcotest.(check int) "scalar count" 6 (Query.sq_operator_count sq)

let test_pp () =
  let q =
    ints [| 1 |]
    |> Query.where (fun x -> I.(x > Expr.int 0))
    |> Query.select (fun x -> I.(x * x))
  in
  Alcotest.(check string) "chain" "Src<int> -> Where -> Select -> Ret"
    (Format.asprintf "%a" Query.pp q);
  let sq = Query.sum_int q in
  Alcotest.(check string) "scalar chain"
    "Src<int> -> Where -> Select -> Sum -> Ret"
    (Format.asprintf "%a" Query.pp_sq sq);
  let nested =
    ints [| 1 |] |> Query.select_many (fun _ -> Query.range ~start:0 ~count:3)
  in
  Alcotest.(check string) "nested chain"
    "Src<int> -> SelectMany[Src:Range] -> Ret"
    (Format.asprintf "%a" Query.pp nested)

let test_reference_smoke () =
  let q =
    ints [| 1; 2; 3; 4 |]
    |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
    |> Query.select (fun x -> I.(x * Expr.int 10))
  in
  Alcotest.(check (list int)) "reference" [ 20; 40 ] (Reference.to_list q);
  Alcotest.(check (list int)) "linq" [ 20; 40 ] (Linq.to_list q);
  Alcotest.(check int) "scalar" 60 (Reference.scalar (Query.sum_int q))

(* Regression (PR 5): Reference.group_list was quadratic (List.mem +
   append + per-key filter).  The single-pass rewrite must preserve the
   exact grouping semantics — first-appearance key order, per-key
   insertion order — and make a large, key-heavy corpus tractable. *)
let test_reference_grouping () =
  let q =
    ints [| 5; 3; 5; 1; 3; 5 |] |> Query.group_by (fun x -> x)
  in
  let groups =
    List.map (fun (k, vs) -> k, Array.to_list vs) (Reference.to_list q)
  in
  Alcotest.(check (list (pair int (list int))))
    "first-appearance order, per-key insertion order"
    [ 5, [ 5; 5; 5 ]; 3, [ 3; 3 ]; 1, [ 1 ] ]
    groups;
  (* 50k rows over 10k keys: instant single-pass, minutes when
     quadratic. *)
  let n = 50_000 in
  let big = Array.init n (fun i -> (i * 7919) mod 10_000) in
  let agg =
    ints big
    |> Query.group_by_agg
         ~key:(fun x -> x)
         ~seed:(Expr.int 0)
         ~step:(fun acc _ -> I.(acc + Expr.int 1))
  in
  let sizes = Reference.to_list agg in
  Alcotest.(check int) "all keys present" 10_000 (List.length sizes);
  Alcotest.(check int) "sizes sum to rows" n
    (List.fold_left (fun a (_, c) -> a + c) 0 sizes)

let () =
  Alcotest.run "query"
    [
      ( "typing", [ Alcotest.test_case "elem_ty" `Quick test_elem_ty ] );
      ( "structure",
        [
          Alcotest.test_case "counts" `Quick test_structure;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "smoke" `Quick test_reference_smoke;
          Alcotest.test_case "grouping" `Quick test_reference_grouping;
        ] );
    ]
