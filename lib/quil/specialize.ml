let enabled = ref true

exception Not_applicable

(* -------------------------------------------------------------------- *)
(* Counting pattern: rewrite a lambda over (key, values array) into a
   lambda over (key, count), allowing the group variable to appear only
   as [Fst g] or [Array_length (Snd g)]. *)

let rec rewrite_count :
    type k a e.
    (k * a array) Expr.var -> (k * int) Expr.var -> e Expr.t -> e Expr.t =
 fun g g' e ->
  let r : type x. x Expr.t -> x Expr.t = fun e -> rewrite_count g g' e in
  match e with
  | Expr.Array_length (Expr.Snd (Expr.Var v)) when v.Expr.id = g.Expr.id ->
    (* The result type is [int] on both sides. *)
    Expr.Snd (Expr.Var g')
  | Expr.Fst (Expr.Var v) when v.Expr.id = g.Expr.id -> (
    match Ty.equal v.Expr.var_ty g.Expr.var_ty with
    | Some Ty.Refl -> Expr.Fst (Expr.Var g')
    | None -> raise Not_applicable)
  | Expr.Var v ->
    if v.Expr.id = g.Expr.id then raise Not_applicable else e
  | Expr.Const_unit | Expr.Const_bool _ | Expr.Const_int _
  | Expr.Const_float _ | Expr.Const_string _ | Expr.Capture _ ->
    e
  | Expr.If (c, a, b) -> Expr.If (r c, r a, r b)
  | Expr.Let (v, e1, body) -> Expr.Let (v, r e1, r body)
  | Expr.Pair (a, b) -> Expr.Pair (r a, r b)
  | Expr.Fst a -> Expr.Fst (r a)
  | Expr.Snd a -> Expr.Snd (r a)
  | Expr.Triple (a, b, c) -> Expr.Triple (r a, r b, r c)
  | Expr.Proj3_1 a -> Expr.Proj3_1 (r a)
  | Expr.Proj3_2 a -> Expr.Proj3_2 (r a)
  | Expr.Proj3_3 a -> Expr.Proj3_3 (r a)
  | Expr.Prim1 (p, a) -> Expr.Prim1 (p, r a)
  | Expr.Prim2 (p, a, b) -> Expr.Prim2 (p, r a, r b)
  | Expr.Array_get (arr, i) -> Expr.Array_get (r arr, r i)
  | Expr.Array_length arr -> Expr.Array_length (r arr)
  | Expr.Apply (f, a) -> Expr.Apply (r f, r a)

(* Result-selector pattern: rewrite an expression mentioning the group
   variable's key ([Fst g]) and the fold accumulator into an expression
   over the (key, aggregate) pair produced by GroupByAggregate. *)
let rec rewrite_result :
    type k a s e.
    (k * a array) Expr.var ->
    s Expr.var ->
    (k * s) Expr.var ->
    e Expr.t ->
    e Expr.t =
 fun g acc p e ->
  let r : type x. x Expr.t -> x Expr.t = fun e -> rewrite_result g acc p e in
  match e with
  | Expr.Fst (Expr.Var v) when v.Expr.id = g.Expr.id -> (
    match Ty.equal v.Expr.var_ty g.Expr.var_ty with
    | Some Ty.Refl -> Expr.Fst (Expr.Var p)
    | None -> raise Not_applicable)
  | Expr.Var v when v.Expr.id = acc.Expr.id -> (
    match Ty.equal v.Expr.var_ty acc.Expr.var_ty with
    | Some Ty.Refl -> Expr.Snd (Expr.Var p)
    | None -> raise Not_applicable)
  | Expr.Var v ->
    if v.Expr.id = g.Expr.id then raise Not_applicable else e
  | Expr.Const_unit | Expr.Const_bool _ | Expr.Const_int _
  | Expr.Const_float _ | Expr.Const_string _ | Expr.Capture _ ->
    e
  | Expr.If (c, a, b) -> Expr.If (r c, r a, r b)
  | Expr.Let (v, e1, body) -> Expr.Let (v, r e1, r body)
  | Expr.Pair (a, b) -> Expr.Pair (r a, r b)
  | Expr.Fst a -> Expr.Fst (r a)
  | Expr.Snd a -> Expr.Snd (r a)
  | Expr.Triple (a, b, c) -> Expr.Triple (r a, r b, r c)
  | Expr.Proj3_1 a -> Expr.Proj3_1 (r a)
  | Expr.Proj3_2 a -> Expr.Proj3_2 (r a)
  | Expr.Proj3_3 a -> Expr.Proj3_3 (r a)
  | Expr.Prim1 (p1, a) -> Expr.Prim1 (p1, r a)
  | Expr.Prim2 (p2, a, b) -> Expr.Prim2 (p2, r a, r b)
  | Expr.Array_get (arr, i) -> Expr.Array_get (r arr, r i)
  | Expr.Array_length arr -> Expr.Array_length (r arr)
  | Expr.Apply (f, a) -> Expr.Apply (r f, r a)

let mentions_var id e = List.mem id (Expr.free_var_ids e)

(* -------------------------------------------------------------------- *)
(* Folding pattern: a scalar sub-query whose source is exactly the group's
   values array, optionally through one element-wise Select. *)

(* Elements of the group are ['a]; the fold consumes ['e] elements
   produced by the optional mapping lambda. *)
type ('a, 'e) group_src =
  | Direct : ('a, 'a) group_src
  | Mapped : ('a, 'e) Expr.lam -> ('a, 'e) group_src

type ('a, 's) fold_plan = {
  fp_seed : 's Expr.t;
  fp_step : ('s, 'a, 's) Expr.lam2;
}

(* A recognized fold over the group's values: the plan plus the builder of
   the final expression from the accumulator variable. *)
type ('e, 'b) fold_parts =
  | Parts :
      ('e, 's) fold_plan * ('s Expr.var -> 'b Expr.t)
      -> ('e, 'b) fold_parts

let snd_array_ty : type k a. (k * a array) Expr.var -> a array Ty.t =
 fun g -> match g.Expr.var_ty with Ty.Pair (_, arr_ty) -> arr_ty

let match_group_src :
    type k a e.
    (k * a array) Expr.var -> e Query.t -> (a, e) group_src option =
 fun g src ->
  let is_group_values : type x. x array Expr.t -> bool = function
    | Expr.Snd (Expr.Var v) -> v.Expr.id = g.Expr.id
    | _ -> false
  in
  match src with
  | Query.Of_array (ty, arr) when is_group_values arr -> (
    (* The source elements are the group's values, so [e = a]. *)
    match Ty.equal (Ty.Array ty) (snd_array_ty g) with
    | Some Ty.Refl -> Some Direct
    | None -> None)
  | Query.Select (Query.Of_array (ty, arr), lam) when is_group_values arr -> (
    match Ty.equal (Ty.Array ty) (snd_array_ty g) with
    | Some Ty.Refl ->
      if mentions_var g.Expr.id lam.Expr.body then None else Some (Mapped lam)
    | None -> None)
  | _ -> None

(* Compose the fold with the optional element mapping: the specialized
   step consumes raw group elements. *)
let compose_step :
    type a e s.
    (a, e) group_src -> s Expr.t -> (s, e, s) Expr.lam2 -> a Ty.t ->
    (a, s) fold_plan =
 fun src seed step elem_ty ->
  match src with
  | Direct -> { fp_seed = seed; fp_step = step }
  | Mapped lam ->
    let acc = Expr.fresh_var "acc" (Expr.ty_of seed) in
    let x = Expr.fresh_var "x" elem_ty in
    let mapped = Expr.subst lam.Expr.param (Expr.Var x) lam.Expr.body in
    let body =
      Expr.subst step.Expr.param1 (Expr.Var acc)
        (Expr.subst step.Expr.param2 mapped step.Expr.body2)
    in
    { fp_seed = seed; fp_step = { Expr.param1 = acc; param2 = x; body2 = body } }

(* Pre-compose an element selector (Group_by_elem) so the plan consumes
   the raw source elements. *)
let compose_pre :
    type a e s. (a, e) Expr.lam -> (e, s) fold_plan -> (a, s) fold_plan =
 fun pre plan ->
  let acc = Expr.fresh_var "acc" (Expr.ty_of plan.fp_seed) in
  let x = Expr.fresh_var "x" pre.Expr.param.Expr.var_ty in
  let mapped = Expr.subst pre.Expr.param (Expr.Var x) pre.Expr.body in
  let body =
    Expr.subst plan.fp_step.Expr.param1 (Expr.Var acc)
      (Expr.subst plan.fp_step.Expr.param2 mapped plan.fp_step.Expr.body2)
  in
  {
    fp_seed = plan.fp_seed;
    fp_step = { Expr.param1 = acc; param2 = x; body2 = body };
  }

let const_step :
    type a s. s Expr.t -> (s Expr.t -> s Expr.t) -> a Ty.t -> (a, s) fold_plan
    =
 fun seed f elem_ty ->
  let acc = Expr.fresh_var "acc" (Expr.ty_of seed) in
  let x = Expr.fresh_var "x" elem_ty in
  {
    fp_seed = seed;
    fp_step = { Expr.param1 = acc; param2 = x; body2 = f (Expr.Var acc) };
  }

(* -------------------------------------------------------------------- *)

let rec query : type a. a Query.t -> a Query.t =
 fun q -> if not !enabled then q else query_always q

and query_always : type a. a Query.t -> a Query.t = function
  | Query.Select (Query.Group_by (q0, key), lam) -> (
    let q0 = query_always q0 in
    match count_pattern q0 key lam with
    | Some specialized -> specialized
    | None -> Query.Select (Query.Group_by (q0, key), lam))
  | Query.Select (Query.Group_by_elem (q0, key, elem), lam) -> (
    (* Counting is insensitive to the element selector. *)
    let q0 = query_always q0 in
    match count_pattern q0 key lam with
    | Some specialized -> specialized
    | None -> Query.Select (Query.Group_by_elem (q0, key, elem), lam))
  | Query.Select_q (Query.Group_by (q0, key), g, sq) -> (
    let q0 = query_always q0 in
    match fold_pattern q0 key None g sq with
    | Some specialized -> specialized
    | None -> Query.Select_q (Query.Group_by (q0, key), g, scalar_always sq))
  | Query.Select_q (Query.Group_by_elem (q0, key, elem), g, sq) -> (
    let q0 = query_always q0 in
    match fold_pattern q0 key (Some elem) g sq with
    | Some specialized -> specialized
    | None ->
      Query.Select_q (Query.Group_by_elem (q0, key, elem), g, scalar_always sq))
  | q -> Query.map always q

and scalar : type s. s Query.sq -> s Query.sq =
 fun sq -> if not !enabled then sq else scalar_always sq

and scalar_always : type s. s Query.sq -> s Query.sq =
 fun sq -> Query.map_sq always sq

and always = { Query.q = query_always; sq = scalar_always }

(* group_by key |> select (fun g -> ...count...) *)
and count_pattern :
    type k a e b.
    a Query.t ->
    (a, k) Expr.lam ->
    ((k * e array), b) Expr.lam ->
    b Query.t option =
 fun q0 key lam ->
  let g = lam.Expr.param in
  let g' =
    Expr.fresh_var "kc" (Ty.Pair (Expr.ty_of key.Expr.body, Ty.Int))
  in
  match rewrite_count g g' lam.Expr.body with
  | body' ->
    let counter =
      Expr.lam2 "acc" Ty.Int "x" (Query.elem_ty q0) (fun acc _ ->
          Expr.Prim2 (Prim.Add_int, acc, Expr.Const_int 1))
    in
    Some
      (Query.Select
         ( Query.Group_by_agg (q0, key, Expr.Const_int 0, counter),
           { Expr.param = g'; body = body' } ))
  | exception Not_applicable -> None

(* group_by key |> select_sq (fun g -> <fold over (snd g)>), optionally
   through an element selector (Group_by_elem) and/or a Map_scalar
   post-processing of the aggregate. *)
and fold_pattern :
    type k a e b.
    a Query.t ->
    (a, k) Expr.lam ->
    (a, e) Expr.lam option ->
    (k * e array) Expr.var ->
    b Query.sq ->
    b Query.t option =
 fun q0 key pre g sq ->
  let elem_ty : e Ty.t =
    match pre with
    | Some lam -> Expr.ty_of lam.Expr.body
    | None -> (
      (* Without a selector the group elements are the source elements. *)
      match g.Expr.var_ty with Ty.Pair (_, Ty.Array t) -> t)
  in
  let build :
      type s.
      (e, s) fold_plan -> result:(s Expr.var -> b Expr.t) -> b Query.t option =
   fun plan ~result ->
    if mentions_var g.Expr.id plan.fp_seed then None
    else if mentions_var g.Expr.id plan.fp_step.Expr.body2 then None
    else begin
      (* Consume raw source elements: compose the element selector. *)
      let plan_a : (a, s) fold_plan =
        match pre with
        | Some lam ->
          if mentions_var g.Expr.id lam.Expr.body then raise Not_applicable
          else compose_pre lam plan
        | None -> (
          (* e = a in this case; witness via the group variable's type
             against the source element type. *)
          match
            Ty.equal g.Expr.var_ty
              (Ty.Pair (Expr.ty_of key.Expr.body, Ty.Array (Query.elem_ty q0)))
          with
          | Some Ty.Refl -> plan
          | None -> raise Not_applicable)
      in
      let p =
        Expr.fresh_var "ks"
          (Ty.Pair (Expr.ty_of key.Expr.body, Expr.ty_of plan.fp_seed))
      in
      let gba = Query.Group_by_agg (q0, key, plan_a.fp_seed, plan_a.fp_step) in
      let acc = Expr.fresh_var "acc" (Expr.ty_of plan.fp_seed) in
      match rewrite_result g acc p (result acc) with
      | body -> Some (Query.Select (gba, { Expr.param = p; body }))
      | exception Not_applicable -> None
    end
  in
  (* Decompose the scalar query into a fold plan over the group's values
     plus a result builder. *)
  let rec parts : type r. r Query.sq -> (e, r) fold_parts option = function
    | Query.Sum_int src -> (
      match match_group_src g src with
      | Some gs ->
        Some
          (Parts
             ( compose_step gs (Expr.Const_int 0)
                 (Expr.lam2 "acc" Ty.Int "x" Ty.Int (fun acc x ->
                      Expr.Prim2 (Prim.Add_int, acc, x)))
                 elem_ty,
               fun acc -> Expr.Var acc ))
      | None -> None)
    | Query.Sum_float src -> (
      match match_group_src g src with
      | Some gs ->
        Some
          (Parts
             ( compose_step gs (Expr.Const_float 0.0)
                 (Expr.lam2 "acc" Ty.Float "x" Ty.Float (fun acc x ->
                      Expr.Prim2 (Prim.Add_float, acc, x)))
                 elem_ty,
               fun acc -> Expr.Var acc ))
      | None -> None)
    | Query.Count src -> (
      match match_group_src g src with
      | Some _ ->
        Some
          (Parts
             ( const_step (Expr.Const_int 0)
                 (fun acc -> Expr.Prim2 (Prim.Add_int, acc, Expr.Const_int 1))
                 elem_ty,
               fun acc -> Expr.Var acc ))
      | None -> None)
    | Query.Aggregate (src, seed, step) -> (
      match match_group_src g src with
      | Some gs ->
        Some (Parts (compose_step gs seed step elem_ty, fun acc -> Expr.Var acc))
      | None -> None)
    | Query.Aggregate_combinable (src, seed, step, _) -> (
      match match_group_src g src with
      | Some gs ->
        Some (Parts (compose_step gs seed step elem_ty, fun acc -> Expr.Var acc))
      | None -> None)
    | Query.Aggregate_full (src, seed, step, res) -> (
      match match_group_src g src with
      | Some gs ->
        Some
          (Parts
             ( compose_step gs seed step elem_ty,
               fun acc -> Expr.subst res.Expr.param (Expr.Var acc) res.Expr.body
             ))
      | None -> None)
    | Query.Map_scalar (inner, post) -> (
      match parts inner with
      | Some (Parts (plan, mk)) ->
        Some
          (Parts
             ( plan,
               fun acc ->
                 Expr.subst post.Expr.param (mk acc) post.Expr.body ))
      | None -> None)
    | Query.Average _ | Query.Min _ | Query.Max _ | Query.Min_by _
    | Query.Max_by _ | Query.First _ | Query.Last _ | Query.Element_at _
    | Query.Any _ | Query.Exists _ | Query.For_all _ | Query.Contains _ ->
      None
  in
  match parts sq with
  | Some (Parts (plan, mk)) -> (
    try build plan ~result:mk with Not_applicable -> None)
  | None -> None
