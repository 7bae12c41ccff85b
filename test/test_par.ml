(* Multiprocessor execution: partitioning, HomomorphicApply, and the
   automatic Agg_i / Agg* splitting of section 6. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let test_partition_roundtrip () =
  let arr = Array.init 17 (fun i -> i) in
  let parts = Par.partition ~parts:4 arr in
  Alcotest.(check int) "4 parts" 4 (Array.length parts);
  Alcotest.(check (array int)) "concat restores" arr (Par.concat parts);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "balanced" true
        (abs (Array.length p - (17 / 4)) <= 1))
    parts;
  (* Regression (PR 5): more parts than elements used to emit empty
     trailing partitions, each costing a full engine run; parts are now
     capped at the row count. *)
  let tiny = Par.partition ~parts:5 [| 1; 2 |] in
  Alcotest.(check int) "parts capped at rows" 2 (Array.length tiny);
  Alcotest.(check (array int)) "tiny concat" [| 1; 2 |] (Par.concat tiny);
  Array.iter
    (fun p -> Alcotest.(check bool) "no empty partition" false (p = [||]))
    tiny;
  (* An empty input still yields a single (empty) partition. *)
  let empty = Par.partition ~parts:4 ([||] : int array) in
  Alcotest.(check int) "empty input, one partition" 1 (Array.length empty);
  Alcotest.(check (array int)) "empty partition" [||] empty.(0);
  Alcotest.check_raises "zero parts"
    (Invalid_argument "Par.partition: parts must be positive") (fun () ->
      ignore (Par.partition ~parts:0 [| 1 |]))

let test_domain_pool () =
  let results = Domain_pool.run ~workers:4 ~tasks:20 (fun i -> i * i) in
  Alcotest.(check (array int)) "ordered results"
    (Array.init 20 (fun i -> i * i))
    results;
  Alcotest.(check (array int)) "no tasks" [||]
    (Domain_pool.run ~workers:4 ~tasks:0 (fun i -> i));
  (* Exceptions propagate. *)
  Alcotest.check_raises "task failure" Exit (fun () ->
      ignore (Domain_pool.run ~workers:2 ~tasks:8 (fun i -> if i = 5 then raise Exit else i)))

(* The pool is persistent: repeated jobs reuse the same worker domains
   instead of spawning [workers - 1] new ones per call. *)
let test_domain_pool_persistent () =
  ignore (Domain_pool.run ~workers:3 ~tasks:6 (fun i -> i));
  let size_after_first = Domain_pool.pool_size () in
  let jobs_before = Domain_pool.jobs_run () in
  for _ = 1 to 10 do
    ignore (Domain_pool.run ~workers:3 ~tasks:6 (fun i -> i))
  done;
  Alcotest.(check int) "no new domains spawned" size_after_first
    (Domain_pool.pool_size ());
  Alcotest.(check bool) "jobs were submitted to the pool" true
    (Domain_pool.jobs_run () >= jobs_before);
  (* Nested submission from inside a task must not deadlock. *)
  let nested =
    Domain_pool.run ~workers:2 ~tasks:3 (fun i ->
        Array.fold_left ( + ) 0
          (Domain_pool.run ~workers:2 ~tasks:4 (fun j -> (i * 10) + j)))
  in
  Alcotest.(check (array int)) "nested results"
    [| 6; 46; 86 |] nested

let test_domain_pool_run_until () =
  (* Results computed before the stop are kept; unstarted tasks are
     abandoned as None. *)
  let results =
    Domain_pool.run_until ~workers:1 ~tasks:10
      ~stop:(fun r -> r = 3)
      (fun i -> i)
  in
  Alcotest.(check int) "10 slots" 10 (Array.length results);
  Alcotest.(check (option int)) "first ran" (Some 0) results.(0);
  Alcotest.(check (option int)) "stopper ran" (Some 3) results.(3);
  Alcotest.(check (option int)) "tail abandoned" None results.(9);
  (* Without a stopping result, everything runs. *)
  let all =
    Domain_pool.run_until ~workers:4 ~tasks:12 ~stop:(fun _ -> false) (fun i -> i)
  in
  Array.iteri
    (fun i r -> Alcotest.(check (option int)) "ran" (Some i) r)
    all

let test_homomorphic_apply () =
  let data = Array.init 100 (fun i -> i) in
  let parts = Par.partition ~parts:7 data in
  let build part =
    ints part
    |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
    |> Query.select (fun x -> I.(x * x))
  in
  let out = Par.homomorphic_apply ~workers:4 Ty.Int build parts in
  let sequential = Steno.to_array (build data) in
  Alcotest.(check (array int)) "same as sequential" sequential (Par.concat out)

let test_scalar_per_partition () =
  let data = Array.init 1000 (fun i -> i) in
  let parts = Par.partition ~parts:8 data in
  let total =
    Par.scalar_per_partition ~workers:4
      (fun part -> Query.sum_int (ints part))
      ~combine:( + ) parts
  in
  Alcotest.(check int) "partial sums combine" (999 * 1000 / 2) total

let test_is_homomorphic () =
  let src = ints [| 1 |] in
  Alcotest.(check bool) "select" true (Par.is_homomorphic (Query.select (fun x -> x) src));
  Alcotest.(check bool) "where" true (Par.is_homomorphic (Query.where (fun x -> I.(x > Expr.int 0)) src));
  Alcotest.(check bool) "select_many" true
    (Par.is_homomorphic (Query.select_many (fun _ -> Query.range ~start:0 ~count:2) src));
  Alcotest.(check bool) "take is not" false (Par.is_homomorphic (Query.take 1 src));
  Alcotest.(check bool) "order_by is not" false
    (Par.is_homomorphic (Query.order_by (fun x -> x) src));
  Alcotest.(check bool) "group_by is not" false
    (Par.is_homomorphic (Query.group_by (fun x -> x) src));
  Alcotest.(check bool) "distinct is not" false (Par.is_homomorphic (Query.distinct src))

(* Which scalar queries the typed decomposition framework splits. *)
let test_decompose_coverage () =
  let must_decompose : type s. string -> s Query.sq -> unit =
   fun name sq ->
    match Par.decompose sq with
    | Some _ -> ()
    | None -> Alcotest.failf "%s must decompose" name
  in
  let must_not : type s. string -> s Query.sq -> unit =
   fun name sq ->
    match Par.decompose sq with
    | None -> ()
    | Some _ -> Alcotest.failf "%s must not decompose" name
  in
  let fdata = Query.of_array Ty.Float [| 1.0; 2.0; 3.0 |] in
  let idata = ints [| 1; 2; 3 |] in
  must_decompose "sum over a homomorphic select prefix"
    (Query.sum_int (idata |> Query.select (fun x -> I.(x * Expr.int 3))));
  must_decompose "average" (Query.average fdata);
  must_decompose "first" (Query.first idata);
  must_decompose "last" (Query.last idata);
  must_decompose "any" (Query.any idata);
  must_decompose "contains" (Query.contains (Expr.int 2) idata);
  must_decompose "declared combiner"
    (idata
    |> Query.aggregate ~combine:( + ) ~seed:(Expr.int 0) ~step:(fun a x ->
           I.(a + x)));
  must_decompose "map_scalar over average"
    (Query.average fdata |> Query.map_scalar (fun r -> Expr.Infix.(r *. r)));
  must_not "undeclared aggregate"
    (idata |> Query.aggregate ~seed:(Expr.int 0) ~step:(fun a x -> I.(a + x)));
  must_not "element_at" (Query.element_at 1 idata);
  must_not "take prefix" (Query.sum_int (Query.take 2 idata));
  must_not "range source" (Query.sum_int (Query.range ~start:0 ~count:5))

let test_scalar_auto_matches_sequential () =
  let data = Array.init 777 (fun i -> (i * 37) mod 101) in
  let check_auto : type s. string -> s Query.sq -> unit =
   fun name sq ->
    let seq = Reference.scalar sq in
    let par = Par.scalar_auto ~workers:4 ~parts:5 sq in
    if compare par seq <> 0 then Alcotest.failf "%s: parallel <> sequential" name
  in
  let q = ints data |> Query.where (fun x -> I.(x mod Expr.int 3 = Expr.int 1)) in
  check_auto "sum" (Query.sum_int q);
  check_auto "count" (Query.count q);
  check_auto "min" (Query.min_elt q);
  check_auto "max" (Query.max_elt q);
  check_auto "min_by" (Query.min_by (fun x -> I.(x mod Expr.int 7)) q);
  check_auto "any" (Query.any q);
  check_auto "exists" (Query.exists (fun x -> I.(x = Expr.int 55)) q);
  check_auto "for_all" (Query.for_all (fun x -> I.(x < Expr.int 1000)) q);
  check_auto "contains" (Query.contains (Expr.int 4) q);
  (* Since PR 5 these execute across partitions (decomposed partials),
     not through a sequential fallback. *)
  check_auto "first" (Query.first q);
  check_auto "last" (Query.last q);
  check_auto "average"
    (Query.average (Query.of_array Ty.Float (Array.init 101 float_of_int)));
  check_auto "declared combiner"
    (q
    |> Query.aggregate ~combine:( + ) ~seed:(Expr.int 0) ~step:(fun a x ->
           I.(a + x)));
  check_auto "map_scalar over average"
    (Query.average (Query.of_array Ty.Float (Array.init 13 float_of_int))
    |> Query.map_scalar (fun r -> Expr.Infix.(r +. r)));
  (* Fallback path: non-splittable query still runs. *)
  check_auto "element_at fallback" (Query.element_at 5 q)

(* Regression (PR 5): rows < workers end-to-end — the capped partitioner
   must not schedule empty engine runs, and results stay exact. *)
let test_fewer_rows_than_workers () =
  let data = [| 42; 7 |] in
  let q = ints data in
  Alcotest.(check int) "sum of 2 rows on 8 workers" 49
    (Par.scalar_auto ~workers:8 ~parts:8 (Query.sum_int q));
  Alcotest.(check int) "first of 2 rows on 8 workers" 42
    (Par.scalar_auto ~workers:8 ~parts:8 (Query.first q));
  Alcotest.(check (array int)) "to_array of 2 rows on 8 workers" data
    (Par.to_array_auto ~workers:8 ~parts:8 q);
  let one = [| 5 |] in
  Alcotest.(check int) "singleton row" 5
    (Par.scalar_auto ~workers:8 ~parts:8 (Query.min_elt (ints one)))

let test_group_aggregate () =
  let data = Array.init 200 (fun i -> (i * 13) mod 29) in
  let q =
    ints data
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 7))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x))
  in
  let seq = Array.of_list (Reference.to_list q) in
  let par = Par.group_aggregate ~workers:4 ~parts:5 ~combine:( + ) q in
  Alcotest.(check (array (pair int int))) "partitioned = sequential" seq par;
  (* Key order is global first-appearance order, preserved by the
     pairwise table merge. *)
  let par1 = Par.group_aggregate ~workers:1 ~parts:1 ~combine:( + ) q in
  Alcotest.(check (array (pair int int))) "order independent of parts" par1 par

let test_scalar_auto_empty_partitions () =
  (* min over data that filters to a single partition's worth. *)
  let data = Array.init 40 (fun i -> i) in
  let q = ints data |> Query.where (fun x -> I.(x = Expr.int 39)) in
  Alcotest.(check int) "min with mostly-empty partials" 39
    (Par.scalar_auto ~workers:4 ~parts:8 (Query.min_elt q));
  let none = ints data |> Query.where (fun x -> I.(x > Expr.int 100)) in
  Alcotest.check_raises "all empty raises" Iterator.No_such_element (fun () ->
      ignore (Par.scalar_auto ~workers:2 ~parts:4 (Query.min_elt none)))

let test_to_array_auto () =
  let data = Array.init 333 (fun i -> (i * 17) mod 97) in
  let q =
    ints data
    |> Query.where (fun x -> I.(x mod Expr.int 3 = Expr.int 0))
    |> Query.select (fun x -> I.(x * Expr.int 2))
  in
  Alcotest.(check (array int)) "homomorphic query parallel = sequential"
    (Steno.to_array q)
    (Par.to_array_auto ~workers:3 ~parts:5 q);
  (* Non-homomorphic queries fall back to sequential and stay correct. *)
  let sorted = q |> Query.order_by (fun x -> I.(Expr.int 0 - x)) in
  Alcotest.(check (array int)) "fallback"
    (Steno.to_array sorted)
    (Par.to_array_auto ~workers:3 ~parts:5 sorted)

let prop_parallel_sum_equals_sequential =
  QCheck.Test.make ~name:"parallel sum = sequential sum for any partitioning"
    ~count:30
    QCheck.(pair (array small_int) (int_range 1 9))
    (fun (data, parts) ->
      let sq = Query.sum_int (ints data) in
      Par.scalar_auto ~workers:3 ~parts sq = Reference.scalar sq)

let () =
  Alcotest.run "par"
    [
      ( "partitioning",
        [
          Alcotest.test_case "roundtrip" `Quick test_partition_roundtrip;
          Alcotest.test_case "domain pool" `Quick test_domain_pool;
          Alcotest.test_case "persistent pool" `Quick test_domain_pool_persistent;
          Alcotest.test_case "run_until" `Quick test_domain_pool_run_until;
        ] );
      ( "execution",
        [
          Alcotest.test_case "homomorphic_apply" `Quick test_homomorphic_apply;
          Alcotest.test_case "scalar per partition" `Quick test_scalar_per_partition;
          Alcotest.test_case "group aggregate" `Quick test_group_aggregate;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "is_homomorphic" `Quick test_is_homomorphic;
          Alcotest.test_case "decompose coverage" `Quick test_decompose_coverage;
          Alcotest.test_case "auto = sequential" `Quick test_scalar_auto_matches_sequential;
          Alcotest.test_case "empty partitions" `Quick test_scalar_auto_empty_partitions;
          Alcotest.test_case "fewer rows than workers" `Quick test_fewer_rows_than_workers;
          Alcotest.test_case "to_array_auto" `Quick test_to_array_auto;
          QCheck_alcotest.to_alcotest prop_parallel_sum_equals_sequential;
        ] );
    ]
