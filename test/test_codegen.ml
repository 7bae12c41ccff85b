(* Structure of the generated code: the automaton's transitions must
   produce fused loops with no iterator machinery, matching the paper's
   figures. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains src needle =
  if not (contains ~needle src) then
    Alcotest.failf "generated code should contain %S:\n%s" needle src

let check_absent src needle =
  if contains ~needle src then
    Alcotest.failf "generated code should NOT contain %S:\n%s" needle src

let gen_q q = (Codegen.generate (Canon.of_query q)).Codegen.source

let gen_s sq = (Codegen.generate (Canon.of_scalar sq)).Codegen.source

let test_flat_query_is_one_loop () =
  let src =
    gen_s
      (ints [| 1 |]
      |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
      |> Query.select (fun x -> I.(x * x))
      |> Query.sum_int)
  in
  check_contains src "for ";
  check_contains src "Stdlib.Array.unsafe_get";
  (* Iterator fusion: exactly one loop, lambdas inlined, no closures. *)
  let count_occurrences needle s =
    let n = ref 0 in
    let len = String.length needle in
    for i = 0 to String.length s - len do
      if String.sub s i len = needle then incr n
    done;
    !n
  in
  Alcotest.(check int) "single loop" 1 (count_occurrences "for " src);
  check_absent src "fun ";
  check_absent src "move_next"

let test_predicate_moves_body_inside_conditional () =
  (* A filter feeding rows, not a count: no mask applies. *)
  let src = gen_q (ints [| 1 |] |> Query.where (fun x -> I.(x > Expr.int 0))) in
  check_contains src "if (";
  check_contains src "then begin"

let test_source_specialization () =
  (* Array sources iterate by index; Range needs no array at all. *)
  let arr_src = gen_q (ints [| 1 |]) in
  check_contains arr_src "Stdlib.Array.unsafe_get";
  let range_src = gen_q (Query.range ~start:5 ~count:10) in
  check_absent range_src "unsafe_get";
  check_contains range_src "for ";
  let repeat_src = gen_q (Query.repeat Ty.Int 5 ~count:10) in
  check_absent repeat_src "unsafe_get"

let test_captures_become_env_slots () =
  let src = gen_q (ints [| 1; 2 |]) in
  check_contains src "__c0 : (int array)";
  check_contains src "Stdlib.Array.get __env 0";
  (* Two structurally identical queries over different arrays generate
     identical source: the query-cache key property. *)
  let src2 = gen_q (ints [| 9; 9; 9 |]) in
  Alcotest.(check string) "identical source" src src2

let test_nested_loops_for_selectmany () =
  let q =
    ints [| 1; 2 |]
    |> Query.select_many (fun _x -> Query.of_array Ty.Int [| 3; 4 |])
    |> Query.sum_int
  in
  let src = gen_s q in
  let count_for s =
    let n = ref 0 in
    for i = 0 to String.length s - 4 do
      if String.sub s i 4 = "for " then incr n
    done;
    !n
  in
  Alcotest.(check int) "two loops" 2 (count_for src);
  (* The Sum of the outer query must update inside the innermost loop. *)
  check_contains src "done;"

let test_agg_declarations_in_prelude () =
  let src = gen_s (Query.sum_float (Query.of_array Ty.Float [| 1.0 |])) in
  check_contains src "ref (0.)";
  check_contains src "__result := Stdlib.Obj.repr"

let test_group_by_sink () =
  let src = gen_q (ints [| 1 |] |> Query.group_by (fun x -> x)) in
  (* An int key with no bounded range takes the precompiled int table,
     probed with [find]: no [caml_hash], no polymorphic compare, no
     option per row. *)
  check_contains src "Steno_rt.Int_tbl.create";
  check_contains src "Steno_rt.Int_tbl.find";
  check_contains src "exception Stdlib.Not_found";
  check_absent src "find_opt";
  check_absent src "Stdlib.Hashtbl";
  check_contains src "_order"

let test_table_per_key_type () =
  let table_of q = gen_q q in
  let floats = Query.of_array Ty.Float [| 1.0 |] in
  let strings = Query.of_array Ty.String [| "a" |] in
  let pairs = Query.of_array (Ty.Pair (Ty.Int, Ty.String)) [| 1, "a" |] in
  check_contains (table_of (ints [| 1 |] |> Query.distinct))
    "Steno_rt.Int_tbl.create";
  (* Any other key type takes the generic table, still probed with
     [find]. *)
  List.iter
    (fun src ->
      check_contains src "Stdlib.Hashtbl.create";
      check_absent src "Steno_rt")
    [
      table_of (floats |> Query.group_by (fun x -> x));
      table_of (strings |> Query.distinct);
    ];
  let pair_src = table_of (pairs |> Query.group_by (fun x -> x)) in
  check_contains pair_src "Stdlib.Hashtbl.create";
  check_contains pair_src "Stdlib.Hashtbl.find";
  check_absent pair_src "find_opt";
  check_absent pair_src "Steno_rt";
  let pair_join =
    table_of
      (pairs
      |> Query.join ~inner:pairs
           ~outer_key:(fun l -> l)
           ~inner_key:(fun r -> r)
           ~result:(fun l _ -> Expr.Fst l))
  in
  check_contains pair_join "Stdlib.Hashtbl.create";
  check_absent pair_join "Steno_rt"

let test_int_min_max_monomorphic () =
  (* [Stdlib.min]/[max] are polymorphic: a C comparison per call even on
     ints.  Int min/max render as [Stdlib.Int.min]/[max]. *)
  Alcotest.(check string) "min" "(Stdlib.Int.min a b)"
    (Prim.print2 Prim.Min_int "a" "b");
  Alcotest.(check string) "max" "(Stdlib.Int.max a b)"
    (Prim.print2 Prim.Max_int "a" "b");
  let src =
    gen_q
      (ints [| 1 |]
      |> Query.select (fun x ->
             Expr.Prim2
               ( Prim.Max_int,
                 Expr.int 0,
                 Expr.Prim2 (Prim.Min_int, Expr.int 9, x) )))
  in
  check_contains src "Stdlib.Int.max";
  check_contains src "Stdlib.Int.min";
  check_absent src "Stdlib.min";
  check_absent src "Stdlib.max"

let test_group_by_agg_stores_partials () =
  let src =
    gen_q
      (ints [| 1 |]
      |> Query.group_by_agg
           ~key:(fun x -> x)
           ~seed:(Expr.int 0)
           ~step:(fun acc _ -> I.(acc + Expr.int 1)))
  in
  check_contains src "Steno_rt.Int_tbl.create";
  check_absent src "Stdlib.Hashtbl";
  (* Aggregating sink: no per-key bags. *)
  check_absent src ":: !__b"

let clamp lo hi x =
  Expr.Prim2 (Prim.Max_int, Expr.int lo, Expr.Prim2 (Prim.Min_int, Expr.int hi, x))

let test_dense_group_tables () =
  (* [x mod 2] lies in [-1, 1]: three slots, read with the bounds-checked
     [Stdlib.Array.get]; no table module at all. *)
  let dense =
    gen_q (ints [| 1 |] |> Query.group_by (fun x -> I.(x mod Expr.int 2)))
  in
  check_contains dense "Stdlib.Array.make 3 None";
  check_contains dense "Stdlib.Array.get __sink";
  check_contains dense "(Some __cell)";
  check_contains dense "_order";
  check_absent dense "Steno_rt";
  check_absent dense "Hashtbl";
  check_absent dense "unsafe_get __sink";
  let agg =
    gen_q
      (ints [| 1 |]
      |> Query.group_by_agg
           ~key:(fun x -> clamp 0 63 x)
           ~seed:(Expr.int 0)
           ~step:(fun acc _ -> I.(acc + Expr.int 1)))
  in
  check_contains agg "Stdlib.Array.make 64 None";
  check_absent agg "Steno_rt";
  check_absent agg ":: !__b";
  (* Up to 256 slots the array is always used; past that, only in a run
     whose loop makes at least half as many trips as there are slots;
     past 8192 slots the keys are always hashed. *)
  let group_clamped hi =
    gen_q (ints [| 1 |] |> Query.group_by (fun x -> clamp 0 hi x))
  in
  let young = group_clamped 255 in
  check_contains young "Stdlib.Array.make 256 None";
  check_absent young "Steno_rt";
  check_absent young "_dense";
  let past_young = group_clamped 256 in
  check_contains past_young "_dense = Stdlib.Array.length __src";
  check_contains past_young " >= 129 in";
  check_contains past_young "then Stdlib.Array.make 257 None else [||]";
  check_contains past_young "Steno_rt.Int_tbl.create";
  let at_cap = group_clamped 8191 in
  check_contains at_cap " >= 4096 in";
  check_contains at_cap "Stdlib.Array.make 8192 None";
  check_contains at_cap "Steno_rt.Int_tbl.find";
  let past_cap = gen_q (ints [| 1 |] |> Query.group_by (fun x -> clamp 0 8192 x)) in
  check_contains past_cap "Steno_rt.Int_tbl.create";
  check_absent past_cap "Stdlib.Array.make";
  (* A captured modulus is unknown at code generation: hashed. *)
  let captured =
    gen_q
      (ints [| 1 |]
      |> Query.group_by (fun x -> I.(x mod Expr.capture Ty.Int 4)))
  in
  check_contains captured "Steno_rt.Int_tbl.create"

let test_dense_join_tables () =
  let join ~outer_key =
    gen_q
      (ints [| 1 |]
      |> Query.join ~inner:(ints [| 1 |]) ~outer_key
           ~inner_key:(fun y -> I.(y mod Expr.int 4096))
           ~result:(fun x y -> I.(x + y)))
  in
  (* Both keys in [-4095, 4095]: the probe indexes without a range test.
     8191 slots go dense only in a run whose outer loop makes at least
     4096 trips, so the hash table is there too. *)
  let inside = join ~outer_key:(fun x -> I.(x mod Expr.int 4096)) in
  check_contains inside "Stdlib.Array.make 8191 []";
  check_contains inside " >= 4096 in";
  check_contains inside "Stdlib.Array.get __jtbl";
  check_contains inside "Steno_rt.Int_tbl.find";
  check_absent inside "else []";
  (* Only the buckets the build filled are reversed, not every slot. *)
  check_contains inside "_used := __s :: !";
  check_contains inside "Stdlib.List.rev (Stdlib.Array.get __jtbl";
  check_absent inside "map_inplace";
  (* 127 slots: always dense, no hash table. *)
  let young =
    gen_q
      (ints [| 1 |]
      |> Query.join ~inner:(ints [| 1 |])
           ~outer_key:(fun x -> I.(x mod Expr.int 64))
           ~inner_key:(fun y -> I.(y mod Expr.int 64))
           ~result:(fun x y -> I.(x + y)))
  in
  check_contains young "Stdlib.Array.make 127 []";
  check_absent young "Steno_rt";
  check_absent young "_dense";
  (* An unbounded outer key is tested against the build side's range. *)
  let outside = join ~outer_key:(fun x -> x) in
  check_contains outside "Stdlib.Array.make 8191 []";
  check_contains outside ">= (-4095) &&";
  check_contains outside "else []"

let test_masked_filters () =
  let where3 agg =
    gen_s
      (ints [| 1 |]
      |> Query.where (fun x -> I.(x mod Expr.int 3 <> Expr.int 0))
      |> Query.where (fun x -> I.(x mod Expr.int 5 <> Expr.int 0))
      |> agg)
  in
  let count = where3 Query.count in
  check_contains count "Stdlib.Bool.to_int";
  check_contains count " land ";
  check_absent count "if ";
  check_absent count "then begin";
  let sum = where3 Query.sum_int in
  check_contains sum "land (-__mask";
  check_absent sum "then begin";
  (* [&&] inside one test is masked the same way. *)
  let conj =
    gen_s
      (ints [| 1 |]
      |> Query.where (fun x -> I.((x > Expr.int 2) && (x < Expr.int 9)))
      |> Query.count)
  in
  check_contains conj "land";
  check_absent conj "&&";
  check_absent conj "then begin";
  (* So is the conditional form where-fuse joins two filters with. *)
  let fused =
    match
      Opt.plan
        (Query.Scalar
           (ints [| 1 |]
           |> Query.where (fun x -> I.(x mod Expr.int 3 <> Expr.int 0))
           |> Query.where (fun x -> I.(x > Expr.int 7))
           |> Query.count))
    with
    | Query.Scalar sq, log ->
      Alcotest.(check (list string)) "fused" [ "where-fuse" ] log;
      gen_s sq
  in
  check_contains fused " land ";
  check_absent fused "then begin";
  let branchy name src =
    check_contains src "then begin";
    if contains ~needle:"Bool.to_int" src then
      Alcotest.failf "%s: should keep its branch:\n%s" name src
  in
  (* Float sums keep their branches: [inf *. 0.] is [nan]. *)
  branchy "float sum"
    (gen_s
       (Query.of_array Ty.Float [| 1. |]
       |> Query.where (fun x -> I.(x > Expr.float 0.))
       |> Query.sum_float));
  (* A division by a value that may be zero must stay guarded. *)
  branchy "guarded division"
    (gen_s
       (ints [| 1 |]
       |> Query.where (fun x -> I.(x <> Expr.int 0))
       |> Query.where (fun x -> I.(Expr.int 100 / x > Expr.int 3))
       |> Query.count));
  branchy "array read"
    (gen_s
       (ints [| 1 |]
       |> Query.where (fun x ->
              I.(Expr.Array_get (Expr.capture (Ty.Array Ty.Int) [| 1 |], x)
                 > Expr.int 0))
       |> Query.count));
  branchy "host function"
    (gen_s
       (ints [| 1 |]
       |> Query.where (fun x ->
              Expr.Apply
                (Expr.capture (Ty.Func (Ty.Int, Ty.Bool)) (fun _ -> true), x))
       |> Query.count));
  (* The mask's cost limit holds for the masked tests together: four
     [mod] tests cost 4 * 2 + 3 = 11 in one fused test and are masked,
     five cost 14 and branch.  Of three separate tests of cost 4, the
     first branches and the last two (8) are masked. *)
  let mods k =
    let test x =
      List.filteri (fun i _ -> i < k) [ 3; 5; 7; 11; 13 ]
      |> List.map (fun p -> I.(x mod Expr.int p <> Expr.int 0))
      |> List.fold_left
           (fun acc t ->
             match acc with
             | None -> Some t
             | Some a -> Some (Expr.If (a, t, Expr.bool false)))
           None
      |> Option.get
    in
    gen_s (ints [| 1 |] |> Query.where test |> Query.count)
  in
  check_contains (mods 4) "Stdlib.Bool.to_int";
  check_absent (mods 4) "then begin";
  branchy "five mod tests" (mods 5);
  let three =
    gen_s
      (ints [| 1 |]
      |> Query.where (fun x -> I.((x mod Expr.int 3 <> Expr.int 0) && (x > Expr.int 1)))
      |> Query.where (fun x -> I.((x mod Expr.int 5 <> Expr.int 0) && (x > Expr.int 2)))
      |> Query.where (fun x -> I.((x mod Expr.int 7 <> Expr.int 0) && (x > Expr.int 3)))
      |> Query.count)
  in
  check_contains three "(__elem0 > 1)) then begin";
  check_contains three "(Stdlib.Bool.to_int (__elem0 > 2))";
  check_contains three "(Stdlib.Bool.to_int (__elem0 > 3))";
  (* Profiled code keeps its branches, so the edges count rows. *)
  let chain =
    Canon.of_scalar
      (ints [| 1 |] |> Query.where (fun x -> I.(x > Expr.int 0)) |> Query.count)
  in
  branchy "profiled"
    (Codegen.generate ~probe:(Codegen.probe_of_chain chain) chain).Codegen.source

let test_sinking_state_starts_new_loop () =
  let q =
    ints [| 1 |]
    |> Query.group_by (fun x -> I.(x mod Expr.int 2))
    |> Query.select (fun g -> Expr.Fst g)
  in
  let src = gen_q q in
  let count_for s =
    let n = ref 0 in
    for i = 0 to String.length s - 4 do
      if String.sub s i 4 = "for " then incr n
    done;
    !n
  in
  Alcotest.(check int) "loop over sink" 2 (count_for src)

let test_require_nonempty_check () =
  let src = gen_s (Query.min_elt (Query.of_array Ty.Float [| 1.0 |])) in
  check_contains src Codegen.empty_sequence_message

let test_hash_join_structure () =
  let pairs xs = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) xs in
  let q =
    Query.join
      ~inner:(pairs [| 1, 2 |])
      ~outer_key:(fun l -> Expr.Fst l)
      ~inner_key:(fun r -> Expr.Fst r)
      ~result:(fun l r -> Expr.Pair (Expr.Snd l, Expr.Snd r))
      (pairs [| 1, 3 |])
  in
  let src = gen_q q in
  check_contains src "Steno_rt.Int_tbl.create";
  check_contains src "Steno_rt.Int_tbl.find";
  check_absent src "find_opt";
  check_absent src "Stdlib.Hashtbl";
  (* The bucket is walked in place, with no closure per outer element. *)
  check_contains src "while !__bucket";
  check_absent src "Stdlib.List.iter";
  (* The build side loops before the probe loop; two loops total. *)
  let count_for s =
    let n = ref 0 in
    for i = 0 to String.length s - 4 do
      if String.sub s i 4 = "for " then incr n
    done;
    !n
  in
  Alcotest.(check int) "build + probe loops" 2 (count_for src);
  (* With the flag off, the nested-loop join has no hash table. *)
  Canon.hash_join_enabled := false;
  let nested_src = gen_q q in
  Canon.hash_join_enabled := true;
  check_absent nested_src "Hashtbl";
  check_absent nested_src "Steno_rt"

let test_sorted_sink_structure () =
  let q =
    ints [| 1 |]
    |> Query.order_by (fun x -> I.(x mod Expr.int 4))
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 4))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x))
  in
  let src = gen_q q in
  (* One-pass grouping: no hash table after the sort. *)
  check_absent src "Hashtbl";
  check_absent src "Steno_rt";
  check_contains src "_key";
  check_contains src "_acc"

let test_early_exit_structure () =
  let with_exit = gen_s (Query.first (ints [| 1 |])) in
  check_contains with_exit "let exception Steno_brk";
  check_contains with_exit "raise_notrace";
  (* Chains without early-exit operators carry no handler. *)
  let without = gen_s (Query.sum_int (ints [| 1 |])) in
  check_absent without "exception Steno_brk";
  check_absent without "with Steno_brk"

let test_invalid_chain_rejected () =
  let dummy_agg : Quil.agg =
    {
      Quil.accs =
        [ { Quil.seed = (fun _ _ -> "0");
            step = (fun ~accs:_ ~elem:_ _ _ -> "0");
            first = None } ];
      first_element = false;
      require_nonempty = false;
      early_exit = None;
      result = (fun ~accs:_ _ _ -> "0");
      additive = None;
    }
  in
  let chain =
    {
      Quil.src = Quil.Src_range { start = (fun _ _ -> "0"); count = (fun _ _ -> "1") };
      ops = [ Quil.Agg dummy_agg; Quil.Agg dummy_agg ];
    }
  in
  match Codegen.generate chain with
  | exception Codegen.Invalid_chain _ -> ()
  | _ -> Alcotest.fail "invalid chain accepted"

let test_generated_code_compiles () =
  (* Every shape of generated code must be accepted by the compiler. *)
  if Dynload.is_available () then begin
    let sources =
      [
        gen_q (ints [| 1 |] |> Query.order_by (fun x -> I.(Expr.int 0 - x)));
        gen_q (ints [| 1 |] |> Query.distinct |> Query.rev);
        gen_q (ints [| 1; 2; 3 |] |> Query.take 2 |> Query.skip 1);
        gen_q (ints [| 1 |] |> Query.take_while (fun x -> I.(x < Expr.int 2)));
        gen_q (ints [| 1 |] |> Query.skip_while (fun x -> I.(x < Expr.int 2)));
        gen_s (Query.average (Query.of_array Ty.Float [| 1.0 |]));
        gen_s (Query.max_by (fun x -> I.(x mod Expr.int 3)) (ints [| 1 |]));
        gen_s (Query.first (ints [| 1 |]));
        gen_s (Query.for_all (fun x -> I.(x > Expr.int 0)) (ints [| 1 |]));
        gen_s (Query.contains (Expr.int 3) (ints [| 1 |]));
        (* One hashing shape per table module. *)
        gen_q (Query.of_array Ty.Float [| 1.0 |] |> Query.group_by (fun x -> x));
        gen_q
          (Query.of_array Ty.String [| "a" |]
          |> Query.group_by_elem ~key:(fun x -> x) ~elem:(fun _ -> Expr.int 1));
        gen_q
          (Query.of_array (Ty.Pair (Ty.Int, Ty.String)) [| 1, "a" |]
          |> Query.group_by_agg ~key:(fun x -> x) ~seed:(Expr.int 0)
               ~step:(fun acc _ -> I.(acc + Expr.int 1)));
        gen_q
          (ints [| 1 |]
          |> Query.join ~inner:(ints [| 1 |])
               ~outer_key:(fun x -> x)
               ~inner_key:(fun y -> y)
               ~result:(fun x y -> I.(x + y)));
        (* Dense key tables and masked filters. *)
        gen_q (ints [| 1 |] |> Query.group_by (fun x -> I.(x mod Expr.int 7)));
        gen_q
          (ints [| 1 |]
          |> Query.group_by_elem
               ~key:(fun x -> I.(x mod Expr.int 7))
               ~elem:(fun x -> I.(x + Expr.int 1)));
        gen_q
          (ints [| 1 |]
          |> Query.join ~inner:(ints [| 1 |])
               ~outer_key:(fun x -> x)
               ~inner_key:(fun y -> I.(y mod Expr.int 9))
               ~result:(fun x y -> I.(x + y)));
        gen_s
          (ints [| 1 |]
          |> Query.where (fun x -> I.((x > Expr.int 2) || (x < Expr.int (-2))))
          |> Query.sum_int);
      ]
    in
    List.iter (fun source -> ignore (Plugin_build.compile ~source)) sources
  end

let () =
  Alcotest.run "codegen"
    [
      ( "structure",
        [
          Alcotest.test_case "fused flat loop" `Quick test_flat_query_is_one_loop;
          Alcotest.test_case "pred conditional" `Quick
            test_predicate_moves_body_inside_conditional;
          Alcotest.test_case "source specialization" `Quick test_source_specialization;
          Alcotest.test_case "capture slots" `Quick test_captures_become_env_slots;
          Alcotest.test_case "nested loops" `Quick test_nested_loops_for_selectmany;
          Alcotest.test_case "agg prelude" `Quick test_agg_declarations_in_prelude;
          Alcotest.test_case "group_by sink" `Quick test_group_by_sink;
          Alcotest.test_case "group_by_agg" `Quick test_group_by_agg_stores_partials;
          Alcotest.test_case "table per key type" `Quick test_table_per_key_type;
          Alcotest.test_case "dense group tables" `Quick test_dense_group_tables;
          Alcotest.test_case "dense join tables" `Quick test_dense_join_tables;
          Alcotest.test_case "masked filters" `Quick test_masked_filters;
          Alcotest.test_case "int min/max monomorphic" `Quick
            test_int_min_max_monomorphic;
          Alcotest.test_case "sinking restarts loop" `Quick
            test_sinking_state_starts_new_loop;
          Alcotest.test_case "nonempty check" `Quick test_require_nonempty_check;
          Alcotest.test_case "hash join structure" `Quick test_hash_join_structure;
          Alcotest.test_case "sorted sink structure" `Quick test_sorted_sink_structure;
          Alcotest.test_case "early exit structure" `Quick test_early_exit_structure;
          Alcotest.test_case "invalid chain" `Quick test_invalid_chain_rejected;
        ] );
      ( "compilation",
        [ Alcotest.test_case "all shapes compile" `Slow test_generated_code_compiles ]
      );
    ]
