(* The driver: prepared queries, the query cache, compile-info accounting
   and inspection helpers. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let with_native f = if Steno.native_available () then f () else ()

let test_prepare_and_rerun () =
  let q = ints [| 1; 2; 3 |] |> Query.select (fun x -> I.(x * x)) in
  List.iter
    (fun b ->
      let p = Steno.prepare ~backend:b q in
      Alcotest.(check (array int)) "run" [| 1; 4; 9 |] (Steno.Prepared.run p);
      Alcotest.(check (array int)) "re-run" [| 1; 4; 9 |] (Steno.Prepared.run p))
    (if Steno.native_available () then [ Steno.Linq; Steno.Fused; Steno.Native ]
     else [ Steno.Linq; Steno.Fused ])

let test_cache_hit_on_identical_structure () =
  with_native @@ fun () ->
  Steno.clear_cache ();
  let mk arr = Query.sum_int (ints arr |> Query.select (fun x -> I.(x + Expr.int 1))) in
  let p1 = Steno.prepare_scalar ~backend:Steno.Native (mk [| 1; 2 |]) in
  Alcotest.(check bool) "first is a miss" false (Steno.Prepared_scalar.compile_info p1).Steno.cache_hit;
  Alcotest.(check int) "sum 1" 5 (Steno.Prepared_scalar.run p1);
  (* Same structure, different captured data: cache hit, correct result. *)
  let p2 = Steno.prepare_scalar ~backend:Steno.Native (mk [| 10; 20; 30 |]) in
  Alcotest.(check bool) "second is a hit" true (Steno.Prepared_scalar.compile_info p2).Steno.cache_hit;
  Alcotest.(check int) "sum 2" 63 (Steno.Prepared_scalar.run p2);
  Alcotest.(check int) "one cached plugin" 1 (Steno.cache_size ());
  (* Different structure compiles separately. *)
  let p3 =
    Steno.prepare_scalar ~backend:Steno.Native
      (Query.sum_int (ints [| 1 |] |> Query.select (fun x -> I.(x * Expr.int 2))))
  in
  Alcotest.(check bool) "different structure misses" false
    (Steno.Prepared_scalar.compile_info p3).Steno.cache_hit;
  Alcotest.(check int) "two cached plugins" 2 (Steno.cache_size ())

let test_compile_info_timings () =
  with_native @@ fun () ->
  Steno.clear_cache ();
  let q = Query.sum_int (ints [| 1; 2; 3 |] |> Query.where (fun x -> I.(x > Expr.int 1))) in
  let p = Steno.prepare_scalar ~backend:Steno.Native q in
  let i = Steno.Prepared_scalar.compile_info p in
  Alcotest.(check bool) "compile cost present on miss" true (i.Steno.compile_ms > 0.5);
  Alcotest.(check bool) "prepare >= compile" true
    (i.Steno.prepare_ms >= i.Steno.compile_ms);
  let p2 = Steno.prepare_scalar ~backend:Steno.Native q in
  let i2 = Steno.Prepared_scalar.compile_info p2 in
  Alcotest.(check bool) "hit pays no compile" true (i2.Steno.compile_ms = 0.0)

let test_inspection () =
  let q = ints [| 1 |] |> Query.where (fun x -> I.(x > Expr.int 0)) in
  Alcotest.(check string) "quil" "Src Pred Ret" (Steno.quil q);
  Alcotest.(check string) "quil scalar" "Src Pred Agg Ret"
    (Steno.quil_scalar (Query.count q));
  let src = Steno.generated_source q in
  Alcotest.(check bool) "source mentions __query" true
    (String.length src > 0
    &&
    let needle = "let __query" in
    let rec go i =
      i + String.length needle <= String.length src
      && (String.sub src i (String.length needle) = needle || go (i + 1))
    in
    go 0)

let test_empty_seq_exception_parity () =
  with_native @@ fun () ->
  let sq = Query.min_elt (ints [||]) in
  Alcotest.check_raises "native raises No_such_element" Iterator.No_such_element
    (fun () -> ignore (Steno.scalar ~backend:Steno.Native sq))

let test_default_backend () =
  (* The default must be usable whatever the environment. *)
  let q = Query.sum_int (ints [| 4; 5 |]) in
  Alcotest.(check int) "default backend works" 9 (Steno.scalar q)

let test_compilation_failure_surfaces () =
  with_native @@ fun () ->
  Alcotest.(check bool) "bad source rejected" true
    (match Plugin_build.compile ~source:"let x = (" with
    | exception Dynload.Compilation_failed _ -> true
    | _ -> false)

let () =
  Alcotest.run "steno"
    [
      ( "driver",
        [
          Alcotest.test_case "prepare/run" `Quick test_prepare_and_rerun;
          Alcotest.test_case "cache" `Quick test_cache_hit_on_identical_structure;
          Alcotest.test_case "timings" `Quick test_compile_info_timings;
          Alcotest.test_case "inspection" `Quick test_inspection;
          Alcotest.test_case "exception parity" `Quick test_empty_seq_exception_parity;
          Alcotest.test_case "default backend" `Quick test_default_backend;
          Alcotest.test_case "compile failure" `Quick test_compilation_failure_surfaces;
        ] );
    ]
