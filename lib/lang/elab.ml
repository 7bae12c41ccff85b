exception Type_error of string * int

type input = Input : 'a Ty.t * 'a array -> input

type inputs = (string * input) list

type packed_query = Packed_query : 'a Ty.t * 'a Query.t -> packed_query

type packed_scalar = Packed_scalar : 's Ty.t * 's Query.sq -> packed_scalar

type packed_program =
  | Pgm_collection of packed_query
  | Pgm_scalar of packed_scalar

type packed_expr = Packed_expr : 'a Ty.t * 'a Expr.t -> packed_expr

(* Value environment: surface names to (typed) expressions.  Query binders
   enter as projections from the current row variable; scalar-subquery
   results enter as plain variables. *)
type venv = (string * packed_expr) list

let err pos fmt = Printf.ksprintf (fun m -> raise (Type_error (m, pos))) fmt

let expect_ty : type a b. Surface.pos -> string -> a Ty.t -> b Ty.t -> b Expr.t -> a Expr.t =
 fun pos what expected got e ->
  match Ty.equal got expected with
  | Some Ty.Refl -> e
  | None ->
    err pos "%s has type %s, expected %s" what (Ty.to_string got)
      (Ty.to_string expected)

(* Scalar-subquery hoisting: an aggregate call embedded in an expression is
   pulled out and replaced by a synthetic variable, so the expression can be
   elaborated as the post-processing of a nested scalar query. *)
let hoist_scalars (e : Surface.expr) : (string * Surface.scalar) list * Surface.expr =
  let found = ref [] in
  let counter = ref 0 in
  let rec go (e : Surface.expr) : Surface.expr =
    let node =
      match e.Surface.e with
      | Surface.Scalar_of s ->
        let name = Printf.sprintf "%%subquery%d" !counter in
        incr counter;
        found := (name, s) :: !found;
        Surface.Var name
      | Surface.Var _ | Surface.Int_lit _ | Surface.Float_lit _
      | Surface.Bool_lit _ | Surface.String_lit _ ->
        e.Surface.e
      | Surface.Binop (op, a, b) -> Surface.Binop (op, go a, go b)
      | Surface.Unop (op, a) -> Surface.Unop (op, go a)
      | Surface.If_e (c, t, f) -> Surface.If_e (go c, go t, go f)
      | Surface.Pair_e (a, b) -> Surface.Pair_e (go a, go b)
      | Surface.Fst_e a -> Surface.Fst_e (go a)
      | Surface.Snd_e a -> Surface.Snd_e (go a)
      | Surface.Count_group a -> Surface.Count_group (go a)
    in
    { e with Surface.e = node }
  in
  let e' = go e in
  List.rev !found, e'

(* Operator dispatch on elaborated operand types. *)
let arith_prims = [ "+", (Prim.Add_int, Prim.Add_float);
                    "-", (Prim.Sub_int, Prim.Sub_float);
                    "*", (Prim.Mul_int, Prim.Mul_float);
                    "/", (Prim.Div_int, Prim.Div_float) ]

let rec elab_expr (inputs : inputs) (env : venv) (e : Surface.expr) : packed_expr =
  let pos = e.Surface.pos in
  match e.Surface.e with
  | Surface.Var name -> (
    match List.assoc_opt name env with
    | Some p -> p
    | None -> err pos "unbound name %S" name)
  | Surface.Int_lit n -> Packed_expr (Ty.Int, Expr.int n)
  | Surface.Float_lit x -> Packed_expr (Ty.Float, Expr.float x)
  | Surface.Bool_lit b -> Packed_expr (Ty.Bool, Expr.bool b)
  | Surface.String_lit s -> Packed_expr (Ty.String, Expr.string s)
  | Surface.Unop ("-", a) -> (
    match elab_expr inputs env a with
    | Packed_expr (Ty.Int, ea) ->
      Packed_expr (Ty.Int, Expr.Prim1 (Prim.Neg_int, ea))
    | Packed_expr (Ty.Float, ea) ->
      Packed_expr (Ty.Float, Expr.Prim1 (Prim.Neg_float, ea))
    | Packed_expr (ty, _) ->
      err pos "cannot negate a value of type %s" (Ty.to_string ty))
  | Surface.Unop ("not", a) -> (
    match elab_expr inputs env a with
    | Packed_expr (Ty.Bool, ea) ->
      Packed_expr (Ty.Bool, Expr.Prim1 (Prim.Not, ea))
    | Packed_expr (ty, _) ->
      err pos "'not' needs a bool, got %s" (Ty.to_string ty))
  | Surface.Unop (op, _) -> err pos "unknown unary operator %S" op
  | Surface.Binop (op, a, b) -> elab_binop inputs env pos op a b
  | Surface.If_e (c, t, f) -> (
    let (Packed_expr (cty, ec)) = elab_expr inputs env c in
    let ec = expect_ty c.Surface.pos "condition" Ty.Bool cty ec in
    let (Packed_expr (tty, et)) = elab_expr inputs env t in
    let (Packed_expr (fty, ef)) = elab_expr inputs env f in
    match Ty.equal fty tty with
    | Some Ty.Refl -> Packed_expr (tty, Expr.If (ec, et, ef))
    | None ->
      err pos "if branches have different types: %s vs %s" (Ty.to_string tty)
        (Ty.to_string fty))
  | Surface.Pair_e (a, b) ->
    let (Packed_expr (ta, ea)) = elab_expr inputs env a in
    let (Packed_expr (tb, eb)) = elab_expr inputs env b in
    Packed_expr (Ty.Pair (ta, tb), Expr.Pair (ea, eb))
  | Surface.Fst_e a -> (
    match elab_expr inputs env a with
    | Packed_expr (Ty.Pair (ta, _), ea) -> Packed_expr (ta, Expr.Fst ea)
    | Packed_expr (ty, _) ->
      err pos "fst needs a pair, got %s" (Ty.to_string ty))
  | Surface.Snd_e a -> (
    match elab_expr inputs env a with
    | Packed_expr (Ty.Pair (_, tb), ea) -> Packed_expr (tb, Expr.Snd ea)
    | Packed_expr (ty, _) ->
      err pos "snd needs a pair, got %s" (Ty.to_string ty))
  | Surface.Count_group a -> (
    match elab_expr inputs env a with
    | Packed_expr (Ty.Pair (_, Ty.Array _), ea) ->
      Packed_expr (Ty.Int, Expr.Array_length (Expr.Snd ea))
    | Packed_expr (Ty.Array _, ea) ->
      Packed_expr (Ty.Int, Expr.Array_length ea)
    | Packed_expr (ty, _) ->
      err pos "count needs a group or an array, got %s" (Ty.to_string ty))
  | Surface.Scalar_of _ ->
    err pos
      "scalar subqueries may only appear inside select/where bodies (where \
       they become nested queries)"

and elab_binop inputs env pos op a b =
  let (Packed_expr (ta, ea)) = elab_expr inputs env a in
  let (Packed_expr (tb, eb)) = elab_expr inputs env b in
  let same : type x y. x Ty.t -> y Ty.t -> y Expr.t -> x Expr.t =
   fun want got e -> expect_ty pos (Printf.sprintf "operand of %S" op) want got e
  in
  match op with
  | "+" | "-" | "*" | "/" -> (
    let int_p, float_p = List.assoc op arith_prims in
    match ta with
    | Ty.Int -> Packed_expr (Ty.Int, Expr.Prim2 (int_p, ea, same Ty.Int tb eb))
    | Ty.Float ->
      Packed_expr (Ty.Float, Expr.Prim2 (float_p, ea, same Ty.Float tb eb))
    | Ty.String when op = "+" ->
      Packed_expr
        (Ty.String, Expr.Prim2 (Prim.String_concat, ea, same Ty.String tb eb))
    | _ ->
      err pos "operator %S is not defined on %s" op (Ty.to_string ta))
  | "%" -> (
    match ta with
    | Ty.Int ->
      Packed_expr (Ty.Int, Expr.Prim2 (Prim.Mod_int, ea, same Ty.Int tb eb))
    | _ -> err pos "operator %% needs integers, got %s" (Ty.to_string ta))
  | "&&" | "||" ->
    let ea = same Ty.Bool ta ea in
    let eb = expect_ty pos (Printf.sprintf "operand of %S" op) Ty.Bool tb eb in
    let p = if op = "&&" then Prim.And else Prim.Or in
    Packed_expr (Ty.Bool, Expr.Prim2 (p, ea, eb))
  | "=" | "<>" | "<" | "<=" | ">" | ">=" -> (
    match Ty.equal tb ta with
    | Some Ty.Refl ->
      let p : (_, _, bool) Prim.t2 =
        match op with
        | "=" -> Prim.Eq
        | "<>" -> Prim.Ne
        | "<" -> Prim.Lt
        | "<=" -> Prim.Le
        | ">" -> Prim.Gt
        | _ -> Prim.Ge
      in
      Packed_expr (Ty.Bool, Expr.Prim2 (p, ea, eb))
    | None ->
      err pos "cannot compare %s with %s" (Ty.to_string ta) (Ty.to_string tb))
  | _ -> err pos "unknown operator %S" op

(* A lambda body over the current row: bind a fresh row variable, expose
   every surface binder as a projection from it, then elaborate.  Scalar
   subqueries inside the body yield `Some (scalar, post)` instead. *)

type 'r lambda_result =
  | Plain : packed_expr -> 'r lambda_result
  | With_subquery : packed_scalar * ('s Ty.t * 's Expr.var) * packed_expr
      -> 'r lambda_result
      (* The hoisted subquery, the variable its result is bound to, and
         the post-processing body mentioning that variable. *)

let rec elab_body :
    type r.
    inputs -> venv -> r Ty.t -> r Expr.var ->
    (string * (r Expr.t -> packed_expr)) list ->
    Surface.expr ->
    r lambda_result =
 fun inputs env _row_ty row_var projections body ->
  let env' =
    List.map (fun (name, proj) -> name, proj (Expr.Var row_var)) projections
    @ env
  in
  match hoist_scalars body with
  | [], body -> Plain (elab_expr inputs env' body)
  | [ (name, s) ], body ->
    let (Packed_scalar (sty, _) as packed) = elab_scalar inputs env' s in
    let rv = Expr.fresh_var "subq" sty in
    let env'' = (name, Packed_expr (sty, Expr.Var rv)) :: env' in
    With_subquery (packed, (sty, rv), elab_expr inputs env'' body)
  | _ :: _ :: _, _ ->
    err body.Surface.pos
      "at most one scalar subquery per select/where body is supported"

(* Sources. *)
and elab_source (inputs : inputs) (env : venv) (src : Surface.source) pos :
    packed_query =
  match src with
  | Surface.Input name -> (
    (* A binder holding an array (e.g. a group's values) shadows inputs. *)
    match List.assoc_opt name env with
    | Some (Packed_expr (Ty.Array ty, e)) ->
      Packed_query (ty, Query.Of_array (ty, e))
    | Some (Packed_expr (ty, _)) ->
      err pos "%S has type %s; only arrays can be iterated" name
        (Ty.to_string ty)
    | None -> (
      match List.assoc_opt name inputs with
      | Some (Input (ty, arr)) -> Packed_query (ty, Query.of_array ty arr)
      | None -> err pos "unknown input collection %S" name))
  | Surface.Range_src (a, b) ->
    let (Packed_expr (ta, ea)) = elab_expr inputs env a in
    let ea = expect_ty a.Surface.pos "range start" Ty.Int ta ea in
    let (Packed_expr (tb, eb)) = elab_expr inputs env b in
    let eb = expect_ty b.Surface.pos "range count" Ty.Int tb eb in
    Packed_query (Ty.Int, Query.Range (ea, eb))
  | Surface.Subquery q -> elab_query inputs env q
  | Surface.Expr_src e -> (
    match elab_expr inputs env e with
    | Packed_expr (Ty.Array ty, ea) -> Packed_query (ty, Query.Of_array (ty, ea))
    | Packed_expr (ty, _) ->
      err e.Surface.pos "source expression has type %s; an array is required"
        (Ty.to_string ty))

(* Queries. *)
and elab_query (inputs : inputs) (env : venv) (q : Surface.query) : packed_query =
  let (Packed_query (src_ty, src_q)) =
    elab_source inputs env q.Surface.src q.Surface.qpos
  in
  (* Initially the row is the binder itself. *)
  elab_clauses inputs env src_ty src_q
    [ (q.Surface.bind, fun row -> Packed_expr (src_ty, row)) ]
    q.Surface.clauses q.Surface.finish

and elab_clauses :
    type r.
    inputs -> venv -> r Ty.t -> r Query.t ->
    (string * (r Expr.t -> packed_expr)) list ->
    Surface.clause list ->
    Surface.finisher ->
    packed_query =
 fun inputs env row_ty q projections clauses finish ->
  match clauses with
  | [] -> elab_finisher inputs env row_ty q projections finish
  | Surface.Where_c e :: rest -> (
    let v = Expr.fresh_var "row" row_ty in
    match elab_body inputs env row_ty v projections e with
    | Plain (Packed_expr (ty, body)) ->
      let body = expect_ty e.Surface.pos "where predicate" Ty.Bool ty body in
      elab_clauses inputs env row_ty
        (Query.Where (q, { Expr.param = v; body }))
        projections rest finish
    | With_subquery (Packed_scalar (sty, sq), (sty', rv), Packed_expr (ty, post))
      -> (
      let post = expect_ty e.Surface.pos "where predicate" Ty.Bool ty post in
      match Ty.equal sty sty' with
      | Some Ty.Refl ->
        let wrapped =
          Query.Map_scalar (sq, { Expr.param = rv; body = post })
        in
        elab_clauses inputs env row_ty
          (Query.Where_q (q, v, wrapped))
          projections rest finish
      | None -> assert false))
  | Surface.Order_c (e, dir) :: rest -> (
    let v = Expr.fresh_var "row" row_ty in
    match elab_body inputs env row_ty v projections e with
    | Plain (Packed_expr (_, body)) ->
      let order =
        match dir with `Asc -> Query.Ascending | `Desc -> Query.Descending
      in
      elab_clauses inputs env row_ty
        (Query.Order_by (q, { Expr.param = v; body }, order))
        projections rest finish
    | With_subquery _ ->
      err e.Surface.pos "subqueries are not supported in orderby keys")
  | Surface.Take_c e :: rest ->
    let (Packed_expr (ty, count)) = elab_expr inputs env e in
    let count = expect_ty e.Surface.pos "take count" Ty.Int ty count in
    elab_clauses inputs env row_ty (Query.Take (q, count)) projections rest
      finish
  | Surface.Skip_c e :: rest ->
    let (Packed_expr (ty, count)) = elab_expr inputs env e in
    let count = expect_ty e.Surface.pos "skip count" Ty.Int ty count in
    elab_clauses inputs env row_ty (Query.Skip (q, count)) projections rest
      finish
  | Surface.Distinct_c :: rest ->
    elab_clauses inputs env row_ty (Query.Distinct q) projections rest finish
  | Surface.From (x, src) :: rest ->
    (* SelectMany: pair the current row with the new generator's element
       and rebase every binder. *)
    let v = Expr.fresh_var "row" row_ty in
    let env_inner =
      List.map (fun (name, proj) -> name, proj (Expr.Var v)) projections @ env
    in
    let (Packed_query (bty, inner_q)) =
      elab_source inputs env_inner src
        (match src with
        | Surface.Subquery sq -> sq.Surface.qpos
        | Surface.Expr_src e -> e.Surface.pos
        | Surface.Input _ | Surface.Range_src _ -> 0)
    in
    let w = Expr.fresh_var "y" bty in
    let pair_lam2 =
      {
        Expr.param1 = v;
        param2 = w;
        body2 = Expr.Pair (Expr.Var v, Expr.Var w);
      }
    in
    let q' = Query.Select_many_result (q, v, inner_q, pair_lam2) in
    let row_ty' = Ty.Pair (row_ty, bty) in
    let projections' =
      List.map
        (fun (name, proj) ->
          name, fun (row : (r * _) Expr.t) -> proj (Expr.Fst row))
        projections
      @ [ (x, fun row -> Packed_expr (bty, Expr.Snd row)) ]
    in
    elab_clauses inputs env row_ty' q' projections' rest finish

and elab_finisher :
    type r.
    inputs -> venv -> r Ty.t -> r Query.t ->
    (string * (r Expr.t -> packed_expr)) list ->
    Surface.finisher ->
    packed_query =
 fun inputs env row_ty q projections finish ->
  match finish with
  | Surface.Select_f e -> (
    let v = Expr.fresh_var "row" row_ty in
    match elab_body inputs env row_ty v projections e with
    | Plain (Packed_expr (_, Expr.Var w)) when w.Expr.id = v.Expr.id ->
      (* [select x] over the row itself: the query unchanged, so no
         identity transform stands between a filter and an aggregate. *)
      Packed_query (row_ty, q)
    | Plain (Packed_expr (ty, body)) ->
      Packed_query (ty, Query.Select (q, { Expr.param = v; body }))
    | With_subquery (Packed_scalar (sty, sq), (sty', rv), Packed_expr (ty, post))
      -> (
      match Ty.equal sty sty' with
      | Some Ty.Refl ->
        let wrapped =
          Query.Map_scalar (sq, { Expr.param = rv; body = post })
        in
        Packed_query (ty, Query.Select_q (q, v, wrapped))
      | None -> assert false))
  | Surface.Group_f (elem_e, key_e) -> (
    let v = Expr.fresh_var "row" row_ty in
    let elab_plain what e =
      match elab_body inputs env row_ty v projections e with
      | Plain p -> p
      | With_subquery _ ->
        err e.Surface.pos "subqueries are not supported in %s" what
    in
    let (Packed_expr (ety, elem_body)) = elab_plain "group elements" elem_e in
    let (Packed_expr (kty, key_body)) = elab_plain "group keys" key_e in
    Packed_query
      ( Ty.Pair (kty, Ty.Array ety),
        Query.Group_by_elem
          ( q,
            { Expr.param = v; body = key_body },
            { Expr.param = v; body = elem_body } ) ))

and elab_scalar (inputs : inputs) (env : venv) (s : Surface.scalar) :
    packed_scalar =
  let (Packed_query (ty, q)) = elab_query inputs env s.Surface.agg_body in
  let pos = s.Surface.spos in
  match s.Surface.agg_name with
  | "sum" -> (
    match ty with
    | Ty.Int -> Packed_scalar (Ty.Int, Query.Sum_int q)
    | Ty.Float -> Packed_scalar (Ty.Float, Query.Sum_float q)
    | _ -> err pos "sum needs int or float elements, got %s" (Ty.to_string ty))
  | "count" -> Packed_scalar (Ty.Int, Query.Count q)
  | "min" -> Packed_scalar (ty, Query.Min q)
  | "max" -> Packed_scalar (ty, Query.Max q)
  | "avg" -> (
    match ty with
    | Ty.Float -> Packed_scalar (Ty.Float, Query.Average q)
    | _ -> err pos "avg needs float elements, got %s" (Ty.to_string ty))
  | "any" -> Packed_scalar (Ty.Bool, Query.Any q)
  | "first" -> Packed_scalar (ty, Query.First q)
  | other -> err pos "unknown aggregate %S" other

(* Entry points. *)

let query inputs q = elab_query inputs [] q

let scalar inputs s = elab_scalar inputs [] s

let program inputs = function
  | Surface.Collection_p q -> Pgm_collection (query inputs q)
  | Surface.Scalar_p s -> Pgm_scalar (scalar inputs s)
