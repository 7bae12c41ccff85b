(* explain_analyze differential suite: profiled execution must return
   exactly what the Reference list semantics returns (probes must not
   change results), the analysis row counts must match, and the
   per-operator call counts must exhibit the paper's claim — one closure
   call per row on Fused, zero indirect calls on Native. *)

module I = Expr.Infix

let backends =
  if Steno.native_available () then [ Steno.Linq; Steno.Fused; Steno.Native ]
  else [ Steno.Linq; Steno.Fused ]

let backend_name = function
  | Steno.Linq -> "linq"
  | Steno.Fused -> "fused"
  | Steno.Native -> "native"

let show : type a. a Ty.t -> a -> string =
 fun ty v -> Format.asprintf "%a" (Ty.pp_value ty) v

(* One profiled engine per backend, shared across the suite so native
   compilations hit the plugin cache between explain_analyze and the
   profiled preparations. *)
let engines =
  lazy
    (List.map
       (fun b ->
         ( b,
           Steno.Engine.create
             {
               Steno.Engine.default_config with
               backend = b;
               profile = true;
               metrics = Metrics.create ();
             } ))
       backends)

let engine_for b = List.assoc b (Lazy.force engines)

let check_claim name b (ps : Steno.profile_snapshot) =
  List.iter
    (fun (op : Steno.op_profile) ->
      match b with
      | Steno.Fused ->
        if op.Steno.op_calls <> op.Steno.op_rows then
          Alcotest.failf "%s/fused %s: %d calls <> %d rows" name
            op.Steno.op_label op.Steno.op_calls op.Steno.op_rows
      | Steno.Native ->
        if op.Steno.op_calls <> 0 then
          Alcotest.failf "%s/native %s: %d indirect calls, want 0" name
            op.Steno.op_label op.Steno.op_calls
      | Steno.Linq ->
        (* Every yielded row costs at least one move_next call. *)
        if op.Steno.op_calls < op.Steno.op_rows then
          Alcotest.failf "%s/linq %s: %d calls < %d rows" name
            op.Steno.op_label op.Steno.op_calls op.Steno.op_rows)
    ps.Steno.ps_ops

let check_q name (q : 'a Query.t) =
  let ty = Ty.Array (Query.elem_ty q) in
  let expected = Array.of_list (Reference.to_list q) in
  List.iter
    (fun b ->
      let eng = engine_for b in
      let a = Steno.Engine.explain_analyze ~backend:b eng q in
      Alcotest.(check (option int))
        (Printf.sprintf "%s/%s result rows vs reference" name (backend_name b))
        (Some (Array.length expected))
        a.Steno.Engine.a_result_rows;
      let ps = a.Steno.Engine.a_profile in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s has operator points" name (backend_name b))
        true
        (ps.Steno.ps_ops <> []);
      Alcotest.(check int)
        (Printf.sprintf "%s/%s analysis ran once" name (backend_name b))
        1 ps.Steno.ps_runs;
      (* The last operator's output is the result stream. *)
      (match List.rev ps.Steno.ps_ops with
      | last :: _ when b <> Steno.Native ->
        Alcotest.(check int)
          (Printf.sprintf "%s/%s last-operator rows" name (backend_name b))
          (Array.length expected) last.Steno.op_rows
      | _ -> ());
      check_claim name b ps;
      (* A profiled preparation returns exactly the reference rows, on
         every run, and its snapshot accumulates. *)
      let p = Steno.Engine.prepare ~backend:b eng q in
      let got = Steno.Prepared.run p in
      if Ty.compare_values ty got expected <> 0 then
        Alcotest.failf "%s/%s profiled: got %s, want %s" name (backend_name b)
          (show ty got) (show ty expected);
      let got2 = Steno.Prepared.run p in
      if Ty.compare_values ty got2 expected <> 0 then
        Alcotest.failf "%s/%s profiled rerun: got %s, want %s" name
          (backend_name b) (show ty got2) (show ty expected);
      match Steno.Prepared.profile p with
      | None ->
        Alcotest.failf "%s/%s: profiled engine gave no snapshot" name
          (backend_name b)
      | Some ps ->
        Alcotest.(check int)
          (Printf.sprintf "%s/%s runs accumulate" name (backend_name b))
          2 ps.Steno.ps_runs)
    backends

let check_sq name (sq : 's Query.sq) =
  let ty = Query.scalar_ty sq in
  let expected =
    match Reference.scalar sq with
    | v -> Ok v
    | exception Iterator.No_such_element -> Error `Empty
  in
  List.iter
    (fun b ->
      let eng = engine_for b in
      (match expected with
      | Ok _ ->
        let a = Steno.Engine.explain_analyze_scalar ~backend:b eng sq in
        Alcotest.(check (option int))
          (Printf.sprintf "%s/%s scalar has no row count" name
             (backend_name b))
          None a.Steno.Engine.a_result_rows;
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s has operator points" name (backend_name b))
          true
          (a.Steno.Engine.a_profile.Steno.ps_ops <> []);
        check_claim name b a.Steno.Engine.a_profile
      | Error `Empty -> ());
      let p = Steno.Engine.prepare_scalar ~backend:b eng sq in
      let got =
        match Steno.Prepared_scalar.run p with
        | v -> Ok v
        | exception Iterator.No_such_element -> Error `Empty
      in
      match expected, got with
      | Ok e, Ok g ->
        if Ty.compare_values ty g e <> 0 then
          Alcotest.failf "%s/%s profiled: got %s, want %s" name
            (backend_name b) (show ty g) (show ty e)
      | Error `Empty, Error `Empty -> ()
      | Ok e, Error `Empty ->
        Alcotest.failf "%s/%s profiled raised on non-empty (want %s)" name
          (backend_name b) (show ty e)
      | Error `Empty, Ok g ->
        Alcotest.failf "%s/%s profiled got %s, want empty-sequence failure"
          name (backend_name b) (show ty g))
    backends

let ints xs = Query.of_array Ty.Int xs

let sample = [| 5; 3; 8; 1; 9; 2; 8; 3; 7; 0 |]

let test_pipelines () =
  check_q "where-select"
    (ints sample
    |> Query.where (fun x -> I.(x > Expr.int 2))
    |> Query.select (fun x -> I.(x * x)));
  check_q "skip-take"
    (ints sample |> Query.skip 2 |> Query.take 5);
  check_q "filtered to empty"
    (ints sample |> Query.where (fun x -> I.(x > Expr.int 100)));
  check_q "order_by then take"
    (ints sample |> Query.order_by (fun x -> x) |> Query.take 3);
  check_q "distinct" (ints sample |> Query.distinct)

let test_groups_and_joins () =
  check_q "group_by_agg sum"
    (ints sample
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 3))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x)));
  let pairs xs = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) xs in
  check_q "join"
    (pairs (Array.init 12 (fun i -> i mod 4, i))
    |> Query.join
         ~inner:(pairs (Array.init 8 (fun i -> i mod 4, 100 + i)))
         ~outer_key:(fun l -> Expr.Fst l)
         ~inner_key:(fun r -> Expr.Fst r)
         ~result:(fun l r -> Expr.Pair (Expr.Snd l, Expr.Snd r)));
  check_q "select_many"
    (ints [| 1; 2; 3 |]
    |> Query.select_many (fun x ->
           Query.range ~start:0 ~count:3
           |> Query.select (fun y -> I.(y + (x * Expr.int 10)))));
  check_q "where_sq exists"
    (ints sample
    |> Query.where_sq (fun x ->
           Query.of_array Ty.Int [| 2; 5; 8 |]
           |> Query.exists (fun y -> I.(y = x))))

let test_scalars () =
  check_sq "sum of squares of evens"
    (Query.sum_int
       (ints sample
       |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
       |> Query.select (fun x -> I.(x * x))));
  check_sq "count" (Query.count (ints sample));
  check_sq "exists (early exit)"
    (Query.exists (fun x -> I.(x = Expr.int 9)) (ints sample));
  check_sq "min empty raises through probes" (Query.min_elt (ints [||]))

let test_analysis_rendering () =
  let eng = engine_for Steno.Linq in
  let a =
    Steno.Engine.explain_analyze ~backend:Steno.Linq eng
      (ints sample |> Query.where (fun x -> I.(x > Expr.int 2)))
  in
  let s = Steno.Engine.analysis_to_string a in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length s in
      let rec contains i =
        i + n <= m && (String.sub s i n = needle || contains (i + 1))
      in
      if not (contains 0) then
        Alcotest.failf "analysis_to_string missing %S in:\n%s" needle s)
    [ "backend:"; "rows"; "calls"; "where" ]

let () =
  Alcotest.run "analyze"
    [
      ( "differential",
        [
          Alcotest.test_case "pipelines" `Quick test_pipelines;
          Alcotest.test_case "groups and joins" `Quick test_groups_and_joins;
          Alcotest.test_case "scalars" `Quick test_scalars;
        ] );
      ( "rendering",
        [ Alcotest.test_case "table fields" `Quick test_analysis_rendering ] );
    ]
