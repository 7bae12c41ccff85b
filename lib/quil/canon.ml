exception Unsupported of string

(* Equi-joins lower to a hash join by default; disable to get the paper's
   literal nested SelectMany-Where loop (the ablation benchmark compares
   the two). *)
let hash_join_enabled = ref true

(* Recognize GroupByAggregate over input sorted by the same key and use
   the one-pass, O(1)-state sink (section 4.3's memory note). *)
let sorted_group_enabled = ref true

let rec default_literal : type a. a Ty.t -> string option = function
  | Ty.Unit -> Some "()"
  | Ty.Bool -> Some "false"
  | Ty.Int -> Some "0"
  | Ty.Float -> Some "0."
  | Ty.String -> Some "\"\""
  | Ty.Pair (a, b) -> (
    match default_literal a, default_literal b with
    | Some da, Some db -> Some (Printf.sprintf "(%s, %s)" da db)
    | _, _ -> None)
  | Ty.Triple (a, b, c) -> (
    match default_literal a, default_literal b, default_literal c with
    | Some da, Some db, Some dc ->
      Some (Printf.sprintf "(%s, %s, %s)" da db dc)
    | _, _, _ -> None)
  | Ty.Array _ -> Some "[||]"
  | Ty.List _ -> Some "[]"
  | Ty.Option _ -> Some "None"
  | Ty.Func (_, _) -> None

(* Render closures: printing is deferred until the code generator has
   chosen variable names and created the capture table. *)

let render_expr e : Quil.render =
 fun nenv tbl -> Expr.print ~captures:tbl nenv e

let literal s : Quil.render = fun _ _ -> s

let lam1_of (l : (_, _) Expr.lam) : Quil.lam1 =
  let body = Expr.simplify l.Expr.body in
  {
    Quil.bind1 = (fun name nenv -> Expr.name_env_add l.Expr.param name nenv);
    body1 = render_expr body;
  }

let lam2_of (l : (_, _, _) Expr.lam2) : Quil.lam2 =
  let body = Expr.simplify l.Expr.body2 in
  {
    Quil.bind2 =
      (fun n1 n2 nenv ->
        Expr.name_env_add l.Expr.param1 n1
          (Expr.name_env_add l.Expr.param2 n2 nenv));
    body2 = render_expr body;
  }

let bind_var v = fun name nenv -> Expr.name_env_add v name nenv

let append chain op = { chain with Quil.ops = chain.Quil.ops @ [ op ] }

(* Aggregation plans.  [accs] passed to step/result are already
   dereferenced, parenthesized accumulator expressions. *)

let acc1 x = function [ a ] -> x a | _ -> assert false
let acc2 x = function [ a; b ] -> x a b | _ -> assert false

let fold_agg ~seed ~(step : Quil.lam2) ?(result : Quil.lam1 option) () : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed;
          step =
            (fun ~accs ~elem nenv tbl ->
              acc1 (fun a -> step.Quil.body2 (step.Quil.bind2 a elem nenv) tbl) accs);
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = false;
    early_exit = None;
    result =
      (fun ~accs nenv tbl ->
        acc1
          (fun a ->
            match result with
            | None -> a
            | Some r -> r.Quil.body1 (r.Quil.bind1 a nenv) tbl)
          accs);
  }

let simple_fold ?early_exit ~seed ~step_code () : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed = literal seed;
          step = (fun ~accs ~elem _ _ -> acc1 (fun a -> step_code a elem) accs);
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = false;
    early_exit;
    result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
  }

let sum_int_agg =
  simple_fold ~seed:"0" ~step_code:(fun a e -> Printf.sprintf "(%s + %s)" a e) ()

let sum_float_agg =
  simple_fold ~seed:"0."
    ~step_code:(fun a e -> Printf.sprintf "(%s +. %s)" a e)
    ()

let count_agg =
  simple_fold ~seed:"0" ~step_code:(fun a _ -> Printf.sprintf "(%s + 1)" a) ()

let average_agg : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed = literal "0.";
          step =
            (fun ~accs ~elem _ _ ->
              acc2 (fun s _ -> Printf.sprintf "(%s +. %s)" s elem) accs);
          first = None;
        };
        {
          Quil.seed = literal "0";
          step =
            (fun ~accs ~elem:_ _ _ ->
              acc2 (fun _ n -> Printf.sprintf "(%s + 1)" n) accs);
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = true;
    early_exit = None;
    result =
      (fun ~accs _ _ ->
        acc2
          (fun s n -> Printf.sprintf "(%s /. Stdlib.float_of_int %s)" s n)
          accs);
  }

(* Min/Max: floats and ints get a neutral seed and a primitive comparison;
   other element types fall back to first-element semantics seeded with a
   type-derived placeholder. *)
let extremum_agg (type a) ~(is_min : bool) (ty : a Ty.t) : Quil.agg =
  let cmp_step op a e = Printf.sprintf "(if %s %s %s then %s else %s)" e op a e a in
  let op = if is_min then "<" else ">" in
  match ty with
  | Ty.Float ->
    let fn = if is_min then "Stdlib.Float.min" else "Stdlib.Float.max" in
    {
      Quil.accs =
        [
          {
            Quil.seed = literal (if is_min then "Stdlib.infinity" else "Stdlib.neg_infinity");
            step =
              (fun ~accs ~elem _ _ ->
                acc1 (fun a -> Printf.sprintf "(%s %s %s)" fn a elem) accs);
            first = None;
          };
        ];
      first_element = false;
      require_nonempty = true;
      early_exit = None;
      result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
    }
  | Ty.Int ->
    {
      Quil.accs =
        [
          {
            Quil.seed = literal (if is_min then "Stdlib.max_int" else "Stdlib.min_int");
            step =
              (fun ~accs ~elem _ _ -> acc1 (fun a -> cmp_step op a elem) accs);
            first = None;
          };
        ];
      first_element = false;
      require_nonempty = true;
      early_exit = None;
      result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
    }
  | other -> (
    match default_literal other with
    | None ->
      raise
        (Unsupported
           "Min/Max over a type with no default literal (e.g. functions)")
    | Some dflt ->
      {
        Quil.accs =
          [
            {
              Quil.seed = literal dflt;
              step =
                (fun ~accs ~elem _ _ -> acc1 (fun a -> cmp_step op a elem) accs);
              first = Some (fun ~elem _ _ -> elem);
            };
          ];
        first_element = true;
        require_nonempty = true;
        early_exit = None;
        result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
      })

let extremum_by_agg (type a k) ~(is_min : bool) (elt_ty : a Ty.t)
    (key_ty : k Ty.t) (key : Quil.lam1) : Quil.agg =
  let op = if is_min then "<" else ">" in
  let dflt ty what =
    match default_literal ty with
    | Some d -> d
    | None ->
      raise
        (Unsupported
           (Printf.sprintf
              "MinBy/MaxBy %s type has no default literal" what))
  in
  let elt_dflt = dflt elt_ty "element" in
  let key_dflt = dflt key_ty "key" in
  let key_of elem nenv tbl = key.Quil.body1 (key.Quil.bind1 elem nenv) tbl in
  {
    Quil.accs =
      [
        (* Best element; the placeholder seeds are never read before the
           first element overwrites them. *)
        {
          Quil.seed = literal elt_dflt;
          step =
            (fun ~accs ~elem nenv tbl ->
              acc2
                (fun best best_key ->
                  Printf.sprintf "(if %s %s %s then %s else %s)"
                    (key_of elem nenv tbl) op best_key elem best)
                accs);
          first = Some (fun ~elem _ _ -> elem);
        };
        (* Best key; bind the key once so it is not recomputed. *)
        {
          Quil.seed = literal key_dflt;
          step =
            (fun ~accs ~elem nenv tbl ->
              acc2
                (fun _ best_key ->
                  Printf.sprintf
                    "(let __k = %s in if __k %s %s then __k else %s)"
                    (key_of elem nenv tbl) op best_key best_key)
                accs);
          first = Some (fun ~elem nenv tbl -> key_of elem nenv tbl);
        };
      ];
    first_element = true;
    require_nonempty = true;
    early_exit = None;
    result = (fun ~accs _ _ -> acc2 (fun best _ -> best) accs);
  }

let first_agg (type a) (elt_ty : a Ty.t) : Quil.agg =
  let dflt =
    match default_literal elt_ty with
    | Some d -> d
    | None -> raise (Unsupported "First over a type with no default literal")
  in
  {
    Quil.accs =
      [
        {
          Quil.seed = literal dflt;
          step = (fun ~accs ~elem:_ _ _ -> acc1 (fun a -> a) accs);
          first = Some (fun ~elem _ _ -> elem);
        };
      ];
    first_element = true;
    require_nonempty = true;
    early_exit = Some (fun ~accs:_ _ _ -> "true");
    result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
  }

let last_agg (type a) (elt_ty : a Ty.t) : Quil.agg =
  let dflt =
    match default_literal elt_ty with
    | Some d -> d
    | None -> raise (Unsupported "Last over a type with no default literal")
  in
  {
    Quil.accs =
      [
        {
          Quil.seed = literal dflt;
          step = (fun ~accs:_ ~elem _ _ -> elem);
          first = Some (fun ~elem _ _ -> elem);
        };
      ];
    first_element = false;
    require_nonempty = true;
    early_exit = None;
    result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
  }

let any_agg =
  simple_fold ~seed:"false"
    ~step_code:(fun _ _ -> "true")
    ~early_exit:(fun ~accs _ _ -> acc1 (fun a -> a) accs)
    ()

let exists_agg (p : Quil.lam1) : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed = literal "false";
          step =
            (fun ~accs ~elem nenv tbl ->
              acc1
                (fun a ->
                  Printf.sprintf "(%s || %s)" a
                    (p.Quil.body1 (p.Quil.bind1 elem nenv) tbl))
                accs);
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = false;
    early_exit = Some (fun ~accs _ _ -> acc1 (fun a -> a) accs);
    result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
  }

let for_all_agg (p : Quil.lam1) : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed = literal "true";
          step =
            (fun ~accs ~elem nenv tbl ->
              acc1
                (fun a ->
                  Printf.sprintf "(%s && %s)" a
                    (p.Quil.body1 (p.Quil.bind1 elem nenv) tbl))
                accs);
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = false;
    early_exit = Some (fun ~accs _ _ -> acc1 (fun a -> Printf.sprintf "(not %s)" a) accs);
    result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
  }

let contains_agg (v : Quil.render) : Quil.agg =
  {
    Quil.accs =
      [
        {
          Quil.seed = literal "false";
          step =
            (fun ~accs ~elem nenv tbl ->
              acc1
                (fun a ->
                  Printf.sprintf "(%s || (%s = %s))" a elem (v nenv tbl))
                accs);
          first = None;
        };
      ];
    first_element = false;
    require_nonempty = false;
    early_exit = Some (fun ~accs _ _ -> acc1 (fun a -> a) accs);
    result = (fun ~accs _ _ -> acc1 (fun a -> a) accs);
  }

(* Lowering. *)

let key_ty_of (key : (_, _) Expr.lam) = Ty.to_string (Expr.ty_of key.Expr.body)

let rec lower : type a. a Query.t -> Quil.chain = function
  | Query.Of_array (ty, arr) ->
    {
      Quil.src =
        Quil.Src_array
          {
            elem_ty = Ty.to_string ty;
            array = render_expr (Expr.simplify arr);
          };
      ops = [];
    }
  | Query.Range (start, count) ->
    {
      Quil.src =
        Quil.Src_range
          {
            start = render_expr (Expr.simplify start);
            count = render_expr (Expr.simplify count);
          };
      ops = [];
    }
  | Query.Repeat (_, v, count) ->
    {
      Quil.src =
        Quil.Src_repeat
          {
            value = render_expr (Expr.simplify v);
            count = render_expr (Expr.simplify count);
          };
      ops = [];
    }
  | Query.Select (q, lam) -> append (lower q) (Quil.Trans (lam1_of lam))
  | Query.Select_i (q, lam2) ->
    append (lower q) (Quil.Trans_idx (lam2_of lam2))
  | Query.Select_q (q, v, sq) ->
    append (lower q)
      (Quil.Trans_nested
         { Quil.bind_outer_s = bind_var v; inner_s = lower_scalar sq })
  | Query.Where (q, lam) -> append (lower q) (Quil.Pred (lam1_of lam))
  | Query.Where_i (q, lam2) ->
    append (lower q) (Quil.Pred_idx (lam2_of lam2))
  | Query.Where_q (q, v, sq) ->
    append (lower q)
      (Quil.Pred_nested
         { Quil.bind_outer_s = bind_var v; inner_s = lower_scalar sq })
  | Query.Take (q, n) ->
    append (lower q)
      (Quil.Pred_stateful (Quil.Take_n (render_expr (Expr.simplify n))))
  | Query.Skip (q, n) ->
    append (lower q)
      (Quil.Pred_stateful (Quil.Skip_n (render_expr (Expr.simplify n))))
  | Query.Take_while (q, lam) ->
    append (lower q)
      (Quil.Pred_stateful (Quil.Take_while_p (lam1_of lam)))
  | Query.Skip_while (q, lam) ->
    append (lower q)
      (Quil.Pred_stateful (Quil.Skip_while_p (lam1_of lam)))
  | Query.Select_many (q, v, inner) ->
    append (lower q)
      (Quil.Nested
         { Quil.bind_outer = bind_var v; inner = lower inner; result2 = None })
  | Query.Select_many_result (q, v, inner, lam2) ->
    append (lower q)
      (Quil.Nested
         {
           Quil.bind_outer = bind_var v;
           inner = lower inner;
           result2 = Some (lam2_of lam2);
         })
  | Query.Join (outer, inner, ok, ik, res) ->
    let ok1 = lam1_of ok and ik1 = lam1_of ik in
    let res2 = lam2_of res in
    if !hash_join_enabled then
      append (lower outer)
        (Quil.Hash_join
           {
             Quil.join_inner = lower inner;
             join_inner_key = ik1;
             join_outer_key = ok1;
             join_key_ty = key_ty_of ok;
             join_result = res2;
           })
    else begin
      (* Equi-join as the nested SelectMany-Where loop of section 5.  The
         outer binding covers the outer key selector; the result
         selector's parameters are bound by the code generator when it
         reaches the nested return.  Keys match under [compare], as in
         the hash join's tables (nan matches nan). *)
      let bind_outer = ok1.Quil.bind1 in
      let pred : Quil.lam1 =
        {
          Quil.bind1 = ik1.Quil.bind1;
          body1 =
            (fun nenv tbl ->
              Printf.sprintf "(Stdlib.compare %s %s = 0)"
                (ik1.Quil.body1 nenv tbl)
                (ok1.Quil.body1 nenv tbl));
        }
      in
      let inner_chain = append (lower inner) (Quil.Pred pred) in
      append (lower outer)
        (Quil.Nested
           { Quil.bind_outer; inner = inner_chain; result2 = Some res2 })
    end
  | Query.Group_by (q, key) ->
    append (lower q)
      (Quil.Sink
         (Quil.Group_by_sink { key = lam1_of key; key_ty = key_ty_of key }))
  | Query.Group_by_elem (q, key, elem) ->
    append (lower q)
      (Quil.Sink
         (Quil.Group_by_elem_sink
            { key = lam1_of key; key_ty = key_ty_of key; elem = lam1_of elem }))
  | Query.Group_by_agg (q, key, seed, step) -> (
    let hash_sink () =
      Quil.Sink
        (Quil.Group_by_agg_sink
           {
             key = lam1_of key;
             key_ty = key_ty_of key;
             seed = render_expr (Expr.simplify seed);
             step = lam2_of step;
           })
    in
    match q with
    | Query.Order_by (_, sort_key, _)
      when !sorted_group_enabled && Expr.alpha_equal_lam key sort_key -> (
      match default_literal (Expr.ty_of key.Expr.body) with
      | Some key_default ->
        append (lower q)
          (Quil.Sink
             (Quil.Group_by_agg_sorted_sink
                {
                  key = lam1_of key;
                  key_default;
                  seed = render_expr (Expr.simplify seed);
                  step = lam2_of step;
                }))
      | None -> append (lower q) (hash_sink ()))
    | _ -> append (lower q) (hash_sink ()))
  | Query.Order_by (q, key, dir) ->
    append (lower q)
      (Quil.Sink
         (Quil.Order_by_sink
            { key = lam1_of key; descending = dir = Query.Descending }))
  | Query.Distinct q ->
    append (lower q)
      (Quil.Sink
         (Quil.Distinct_sink { elem_ty = Ty.to_string (Query.elem_ty q) }))
  | Query.Rev q -> append (lower q) (Quil.Sink Quil.Reverse_sink)
  | Query.Materialize q -> append (lower q) (Quil.Sink Quil.To_array_sink)

and lower_scalar : type s. s Query.sq -> Quil.chain = function
  | Query.Aggregate (q, seed, step) ->
    append (lower q)
      (Quil.Agg
         (fold_agg ~seed:(render_expr (Expr.simplify seed))
            ~step:(lam2_of step) ()))
  | Query.Aggregate_combinable (q, seed, step, _) ->
    (* The combiner is a parallel-only annotation; generated code folds
       sequentially, exactly like a plain Aggregate. *)
    append (lower q)
      (Quil.Agg
         (fold_agg ~seed:(render_expr (Expr.simplify seed))
            ~step:(lam2_of step) ()))
  | Query.Aggregate_full (q, seed, step, result) ->
    append (lower q)
      (Quil.Agg
         (fold_agg ~seed:(render_expr (Expr.simplify seed))
            ~step:(lam2_of step) ~result:(lam1_of result) ()))
  | Query.Sum_int q -> append (lower q) (Quil.Agg sum_int_agg)
  | Query.Sum_float q -> append (lower q) (Quil.Agg sum_float_agg)
  | Query.Count q -> append (lower q) (Quil.Agg count_agg)
  | Query.Average q -> append (lower q) (Quil.Agg average_agg)
  | Query.Min q ->
    append (lower q) (Quil.Agg (extremum_agg ~is_min:true (Query.elem_ty q)))
  | Query.Max q ->
    append (lower q) (Quil.Agg (extremum_agg ~is_min:false (Query.elem_ty q)))
  | Query.Min_by (q, key) ->
    append (lower q)
      (Quil.Agg
         (extremum_by_agg ~is_min:true (Query.elem_ty q)
            (Expr.ty_of key.Expr.body) (lam1_of key)))
  | Query.Max_by (q, key) ->
    append (lower q)
      (Quil.Agg
         (extremum_by_agg ~is_min:false (Query.elem_ty q)
            (Expr.ty_of key.Expr.body) (lam1_of key)))
  | Query.First q -> append (lower q) (Quil.Agg (first_agg (Query.elem_ty q)))
  | Query.Last q -> append (lower q) (Quil.Agg (last_agg (Query.elem_ty q)))
  | Query.Element_at (q, n) ->
    (* ElementAt = Skip n then First: reuses early exit. *)
    lower_scalar (Query.First (Query.Skip (q, n)))
  | Query.Any q -> append (lower q) (Quil.Agg any_agg)
  | Query.Exists (q, lam) ->
    append (lower q) (Quil.Agg (exists_agg (lam1_of lam)))
  | Query.For_all (q, lam) ->
    append (lower q) (Quil.Agg (for_all_agg (lam1_of lam)))
  | Query.Contains (q, v) ->
    append (lower q)
      (Quil.Agg (contains_agg (render_expr (Expr.simplify v))))
  | Query.Map_scalar (sq, lam) -> (
    (* Compose the post-processing into the final Agg's result selector:
       the printed aggregate value is substituted for the parameter. *)
    let chain = lower_scalar sq in
    let l1 = lam1_of lam in
    match List.rev chain.Quil.ops with
    | Quil.Agg agg :: rev_rest ->
      let result ~accs nenv tbl =
        let inner = agg.Quil.result ~accs nenv tbl in
        l1.Quil.body1 (l1.Quil.bind1 inner nenv) tbl
      in
      {
        chain with
        Quil.ops = List.rev (Quil.Agg { agg with Quil.result = result } :: rev_rest);
      }
    | _ -> assert false (* scalar chains always end in Agg *))

(* Entry points: run the GroupBy-Aggregate specialization (section 4.3)
   before lowering, so the generated code stores per-key partial
   aggregates wherever the pattern applies.  The [of_specialized*] forms
   skip that pass for callers that have already run it (and timed it). *)
let of_specialized q = lower q

let of_specialized_scalar sq = lower_scalar sq

let of_query q = of_specialized (Specialize.query q)

let of_scalar sq = of_specialized_scalar (Specialize.scalar sq)
