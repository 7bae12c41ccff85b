type order =
  | Ascending
  | Descending

type _ t =
  | Of_array : 'a Ty.t * 'a array Expr.t -> 'a t
  | Range : int Expr.t * int Expr.t -> int t
  | Repeat : 'a Ty.t * 'a Expr.t * int Expr.t -> 'a t
  | Select : 'a t * ('a, 'b) Expr.lam -> 'b t
  | Select_i : 'a t * (int, 'a, 'b) Expr.lam2 -> 'b t
  | Select_q : 'a t * 'a Expr.var * 'b sq -> 'b t
  | Where : 'a t * ('a, bool) Expr.lam -> 'a t
  | Where_i : 'a t * (int, 'a, bool) Expr.lam2 -> 'a t
  | Where_q : 'a t * 'a Expr.var * bool sq -> 'a t
  | Take : 'a t * int Expr.t -> 'a t
  | Skip : 'a t * int Expr.t -> 'a t
  | Take_while : 'a t * ('a, bool) Expr.lam -> 'a t
  | Skip_while : 'a t * ('a, bool) Expr.lam -> 'a t
  | Select_many : 'a t * 'a Expr.var * 'b t -> 'b t
  | Select_many_result :
      'a t * 'a Expr.var * 'b t * ('a, 'b, 'c) Expr.lam2
      -> 'c t
  | Join :
      'a t * 'b t * ('a, 'k) Expr.lam * ('b, 'k) Expr.lam
      * ('a, 'b, 'c) Expr.lam2
      -> 'c t
  | Group_by : 'a t * ('a, 'k) Expr.lam -> ('k * 'a array) t
  | Group_by_elem :
      'a t * ('a, 'k) Expr.lam * ('a, 'e) Expr.lam
      -> ('k * 'e array) t
  | Group_by_agg :
      'a t * ('a, 'k) Expr.lam * 's Expr.t * ('s, 'a, 's) Expr.lam2
      -> ('k * 's) t
  | Order_by : 'a t * ('a, 'k) Expr.lam * order -> 'a t
  | Distinct : 'a t -> 'a t
  | Rev : 'a t -> 'a t
  | Materialize : 'a t -> 'a t

and _ sq =
  | Aggregate : 'a t * 's Expr.t * ('s, 'a, 's) Expr.lam2 -> 's sq
  | Aggregate_full :
      'a t * 's Expr.t * ('s, 'a, 's) Expr.lam2 * ('s, 'r) Expr.lam
      -> 'r sq
  | Aggregate_combinable :
      'a t * 's Expr.t * ('s, 'a, 's) Expr.lam2 * ('s -> 's -> 's)
      -> 's sq
  | Sum_int : int t -> int sq
  | Sum_float : float t -> float sq
  | Count : 'a t -> int sq
  | Average : float t -> float sq
  | Min : 'a t -> 'a sq
  | Max : 'a t -> 'a sq
  | Min_by : 'a t * ('a, 'k) Expr.lam -> 'a sq
  | Max_by : 'a t * ('a, 'k) Expr.lam -> 'a sq
  | First : 'a t -> 'a sq
  | Last : 'a t -> 'a sq
  | Element_at : 'a t * int Expr.t -> 'a sq
  | Any : 'a t -> bool sq
  | Exists : 'a t * ('a, bool) Expr.lam -> bool sq
  | For_all : 'a t * ('a, bool) Expr.lam -> bool sq
  | Contains : 'a t * 'a Expr.t -> bool sq
  | Map_scalar : 's sq * ('s, 'r) Expr.lam -> 'r sq

type _ root = Rows : 'a t -> 'a array root | Scalar : 's sq -> 's root

let rec elem_ty : type a. a t -> a Ty.t = function
  | Of_array (ty, _) -> ty
  | Range (_, _) -> Ty.Int
  | Repeat (ty, _, _) -> ty
  | Select (_, lam) -> Expr.ty_of lam.Expr.body
  | Select_i (_, lam2) -> Expr.ty_of lam2.Expr.body2
  | Select_q (_, _, sq) -> scalar_ty sq
  | Where (q, _) -> elem_ty q
  | Where_i (q, _) -> elem_ty q
  | Where_q (q, _, _) -> elem_ty q
  | Take (q, _) -> elem_ty q
  | Skip (q, _) -> elem_ty q
  | Take_while (q, _) -> elem_ty q
  | Skip_while (q, _) -> elem_ty q
  | Select_many (_, _, inner) -> elem_ty inner
  | Select_many_result (_, _, _, lam2) -> Expr.ty_of lam2.Expr.body2
  | Join (_, _, _, _, lam2) -> Expr.ty_of lam2.Expr.body2
  | Group_by (q, key) ->
    Ty.Pair (Expr.ty_of key.Expr.body, Ty.Array (elem_ty q))
  | Group_by_elem (_, key, elem) ->
    Ty.Pair (Expr.ty_of key.Expr.body, Ty.Array (Expr.ty_of elem.Expr.body))
  | Group_by_agg (_, key, seed, _) ->
    Ty.Pair (Expr.ty_of key.Expr.body, Expr.ty_of seed)
  | Order_by (q, _, _) -> elem_ty q
  | Distinct q -> elem_ty q
  | Rev q -> elem_ty q
  | Materialize q -> elem_ty q

and scalar_ty : type s. s sq -> s Ty.t = function
  | Aggregate (_, seed, _) -> Expr.ty_of seed
  | Aggregate_full (_, _, _, result) -> Expr.ty_of result.Expr.body
  | Aggregate_combinable (_, seed, _, _) -> Expr.ty_of seed
  | Sum_int _ -> Ty.Int
  | Sum_float _ -> Ty.Float
  | Count _ -> Ty.Int
  | Average _ -> Ty.Float
  | Min q -> elem_ty q
  | Max q -> elem_ty q
  | Min_by (q, _) -> elem_ty q
  | Max_by (q, _) -> elem_ty q
  | First q -> elem_ty q
  | Last q -> elem_ty q
  | Element_at (q, _) -> elem_ty q
  | Any _ -> Ty.Bool
  | Exists (_, _) -> Ty.Bool
  | For_all (_, _) -> Ty.Bool
  | Contains (_, _) -> Ty.Bool
  | Map_scalar (_, lam) -> Expr.ty_of lam.Expr.body

(* Combinators. *)

let of_array ty arr = Of_array (ty, Expr.capture (Ty.Array ty) arr)

let range ~start ~count = Range (Expr.int start, Expr.int count)

let repeat ty v ~count = Repeat (ty, Expr.capture ty v, Expr.int count)

let mk_lam name q f = Expr.lam name (elem_ty q) f

let select f q = Select (q, mk_lam "x" q f)

let select_i f q = Select_i (q, Expr.lam2 "i" Ty.Int "x" (elem_ty q) f)

let where p q = Where (q, mk_lam "x" q p)

let where_i p q = Where_i (q, Expr.lam2 "i" Ty.Int "x" (elem_ty q) p)

let take n q = Take (q, Expr.int n)

let skip n q = Skip (q, Expr.int n)

let take_while p q = Take_while (q, mk_lam "x" q p)

let skip_while p q = Skip_while (q, mk_lam "x" q p)

let select_many f q =
  let v = Expr.fresh_var "x" (elem_ty q) in
  Select_many (q, v, f (Expr.Var v))

let select_many_result f result q =
  let v = Expr.fresh_var "x" (elem_ty q) in
  let inner = f (Expr.Var v) in
  let lam2 =
    Expr.lam2 "x" (elem_ty q) "y" (elem_ty inner) (fun _ y ->
        result (Expr.Var v) y)
  in
  (* The result selector must mention the same outer variable as the inner
     query, so rebuild it with [v] as its first parameter. *)
  let lam2 = { lam2 with Expr.param1 = v } in
  Select_many_result (q, v, inner, lam2)

let select_sq f q =
  let v = Expr.fresh_var "x" (elem_ty q) in
  Select_q (q, v, f (Expr.Var v))

let where_sq f q =
  let v = Expr.fresh_var "x" (elem_ty q) in
  Where_q (q, v, f (Expr.Var v))

let join ~inner ~outer_key ~inner_key ~result outer =
  let ok = mk_lam "o" outer outer_key in
  let ik = mk_lam "i" inner inner_key in
  let res =
    Expr.lam2 "o" (elem_ty outer) "i" (elem_ty inner) result
  in
  Join (outer, inner, ok, ik, res)

let group_by key q = Group_by (q, mk_lam "x" q key)

let group_by_elem ~key ~elem q =
  Group_by_elem (q, mk_lam "x" q key, mk_lam "x" q elem)

let group_by_agg ~key ~seed ~step q =
  let step_lam =
    Expr.lam2 "acc" (Expr.ty_of seed) "x" (elem_ty q) step
  in
  Group_by_agg (q, mk_lam "x" q key, seed, step_lam)

let order_by ?(order = Ascending) key q = Order_by (q, mk_lam "x" q key, order)

let distinct q = Distinct q

let rev q = Rev q

let materialize q = Materialize q

let aggregate ?combine ~seed ~step q =
  let step_lam = Expr.lam2 "acc" (Expr.ty_of seed) "x" (elem_ty q) step in
  match combine with
  | None -> Aggregate (q, seed, step_lam)
  | Some c -> Aggregate_combinable (q, seed, step_lam, c)

let aggregate_full ~seed ~step ~result q =
  let step_lam = Expr.lam2 "acc" (Expr.ty_of seed) "x" (elem_ty q) step in
  let result_lam = Expr.lam "acc" (Expr.ty_of seed) result in
  Aggregate_full (q, seed, step_lam, result_lam)

let sum_int q = Sum_int q
let sum_float q = Sum_float q
let count q = Count q
let average q = Average q
let min_elt q = Min q
let max_elt q = Max q
let min_by key q = Min_by (q, mk_lam "x" q key)
let max_by key q = Max_by (q, mk_lam "x" q key)
let first q = First q
let last q = Last q
let element_at n q = Element_at (q, Expr.int n)
let any q = Any q
let exists p q = Exists (q, mk_lam "x" q p)
let for_all p q = For_all (q, mk_lam "x" q p)
let contains v q = Contains (q, v)

let map_scalar f sq =
  Map_scalar (sq, Expr.lam "r" (scalar_ty sq) f)

let sum_by_int f q = sum_int (select f q)
let sum_by_float f q = sum_float (select f q)
let average_by f q = average (select f q)
let count_where p q = count (where p q)

(* Structure. *)

let rec operator_count : type a. a t -> int = function
  | Of_array _ | Range _ | Repeat _ -> 1
  | Select (q, _) -> 1 + operator_count q
  | Select_i (q, _) -> 1 + operator_count q
  | Select_q (q, _, sq) -> 1 + operator_count q + sq_operator_count sq
  | Where (q, _) -> 1 + operator_count q
  | Where_i (q, _) -> 1 + operator_count q
  | Where_q (q, _, sq) -> 1 + operator_count q + sq_operator_count sq
  | Take (q, _) -> 1 + operator_count q
  | Skip (q, _) -> 1 + operator_count q
  | Take_while (q, _) -> 1 + operator_count q
  | Skip_while (q, _) -> 1 + operator_count q
  | Select_many (q, _, inner) -> 1 + operator_count q + operator_count inner
  | Select_many_result (q, _, inner, _) ->
    1 + operator_count q + operator_count inner
  | Join (outer, inner, _, _, _) ->
    1 + operator_count outer + operator_count inner
  | Group_by (q, _) -> 1 + operator_count q
  | Group_by_elem (q, _, _) -> 1 + operator_count q
  | Group_by_agg (q, _, _, _) -> 1 + operator_count q
  | Order_by (q, _, _) -> 1 + operator_count q
  | Distinct q -> 1 + operator_count q
  | Rev q -> 1 + operator_count q
  | Materialize q -> 1 + operator_count q

and sq_operator_count : type s. s sq -> int = function
  | Aggregate (q, _, _) -> 1 + operator_count q
  | Aggregate_full (q, _, _, _) -> 1 + operator_count q
  | Aggregate_combinable (q, _, _, _) -> 1 + operator_count q
  | Sum_int q -> 1 + operator_count q
  | Sum_float q -> 1 + operator_count q
  | Count q -> 1 + operator_count q
  | Average q -> 1 + operator_count q
  | Min q -> 1 + operator_count q
  | Max q -> 1 + operator_count q
  | Min_by (q, _) -> 1 + operator_count q
  | Max_by (q, _) -> 1 + operator_count q
  | First q -> 1 + operator_count q
  | Last q -> 1 + operator_count q
  | Element_at (q, _) -> 1 + operator_count q
  | Any q -> 1 + operator_count q
  | Exists (q, _) -> 1 + operator_count q
  | For_all (q, _) -> 1 + operator_count q
  | Contains (q, _) -> 1 + operator_count q
  | Map_scalar (sq, _) -> sq_operator_count sq

let rec depth : type a. a t -> int = function
  | Of_array _ | Range _ | Repeat _ -> 1
  | Select (q, _) -> depth q
  | Select_i (q, _) -> depth q
  | Select_q (q, _, sq) -> max (depth q) (1 + sq_depth sq)
  | Where (q, _) -> depth q
  | Where_i (q, _) -> depth q
  | Where_q (q, _, sq) -> max (depth q) (1 + sq_depth sq)
  | Take (q, _) -> depth q
  | Skip (q, _) -> depth q
  | Take_while (q, _) -> depth q
  | Skip_while (q, _) -> depth q
  | Select_many (q, _, inner) -> max (depth q) (1 + depth inner)
  | Select_many_result (q, _, inner, _) -> max (depth q) (1 + depth inner)
  | Join (outer, inner, _, _, _) -> max (depth outer) (1 + depth inner)
  | Group_by (q, _) -> depth q
  | Group_by_elem (q, _, _) -> depth q
  | Group_by_agg (q, _, _, _) -> depth q
  | Order_by (q, _, _) -> depth q
  | Distinct q -> depth q
  | Rev q -> depth q
  | Materialize q -> depth q

and sq_depth : type s. s sq -> int = function
  | Aggregate (q, _, _) -> depth q
  | Aggregate_full (q, _, _, _) -> depth q
  | Aggregate_combinable (q, _, _, _) -> depth q
  | Sum_int q -> depth q
  | Sum_float q -> depth q
  | Count q -> depth q
  | Average q -> depth q
  | Min q -> depth q
  | Max q -> depth q
  | Min_by (q, _) -> depth q
  | Max_by (q, _) -> depth q
  | First q -> depth q
  | Last q -> depth q
  | Element_at (q, _) -> depth q
  | Any q -> depth q
  | Exists (q, _) -> depth q
  | For_all (q, _) -> depth q
  | Contains (q, _) -> depth q
  | Map_scalar (sq, _) -> sq_depth sq

(* Printing: linearize each chain source-first. *)

let rec chain : type a. a t -> string list = function
  | Of_array (ty, _) -> [ Printf.sprintf "Src<%s>" (Ty.to_string ty) ]
  | Range (_, _) -> [ "Src:Range" ]
  | Repeat (_, _, _) -> [ "Src:Repeat" ]
  | Select (q, _) -> chain q @ [ "Select" ]
  | Select_i (q, _) -> chain q @ [ "Select+index" ]
  | Select_q (q, _, sq) ->
    chain q @ [ Printf.sprintf "Select[%s]" (String.concat " -> " (sq_chain sq)) ]
  | Where (q, _) -> chain q @ [ "Where" ]
  | Where_i (q, _) -> chain q @ [ "Where+index" ]
  | Where_q (q, _, sq) ->
    chain q @ [ Printf.sprintf "Where[%s]" (String.concat " -> " (sq_chain sq)) ]
  | Take (q, _) -> chain q @ [ "Take" ]
  | Skip (q, _) -> chain q @ [ "Skip" ]
  | Take_while (q, _) -> chain q @ [ "TakeWhile" ]
  | Skip_while (q, _) -> chain q @ [ "SkipWhile" ]
  | Select_many (q, _, inner) ->
    chain q
    @ [ Printf.sprintf "SelectMany[%s]" (String.concat " -> " (chain inner)) ]
  | Select_many_result (q, _, inner, _) ->
    chain q
    @ [ Printf.sprintf "SelectMany[%s]+result"
          (String.concat " -> " (chain inner))
      ]
  | Join (outer, inner, _, _, _) ->
    chain outer
    @ [ Printf.sprintf "Join[%s]" (String.concat " -> " (chain inner)) ]
  | Group_by (q, _) -> chain q @ [ "GroupBy" ]
  | Group_by_elem (q, _, _) -> chain q @ [ "GroupBy+elem" ]
  | Group_by_agg (q, _, _, _) -> chain q @ [ "GroupByAggregate" ]
  | Order_by (q, _, Ascending) -> chain q @ [ "OrderBy" ]
  | Order_by (q, _, Descending) -> chain q @ [ "OrderByDescending" ]
  | Distinct q -> chain q @ [ "Distinct" ]
  | Rev q -> chain q @ [ "Reverse" ]
  | Materialize q -> chain q @ [ "ToArray" ]

and sq_chain : type s. s sq -> string list = function
  | Aggregate (q, _, _) -> chain q @ [ "Aggregate" ]
  | Aggregate_full (q, _, _, _) -> chain q @ [ "Aggregate+result" ]
  | Aggregate_combinable (q, _, _, _) -> chain q @ [ "Aggregate+combine" ]
  | Sum_int q -> chain q @ [ "Sum" ]
  | Sum_float q -> chain q @ [ "Sum" ]
  | Count q -> chain q @ [ "Count" ]
  | Average q -> chain q @ [ "Average" ]
  | Min q -> chain q @ [ "Min" ]
  | Max q -> chain q @ [ "Max" ]
  | Min_by (q, _) -> chain q @ [ "MinBy" ]
  | Max_by (q, _) -> chain q @ [ "MaxBy" ]
  | First q -> chain q @ [ "First" ]
  | Last q -> chain q @ [ "Last" ]
  | Element_at (q, _) -> chain q @ [ "ElementAt" ]
  | Any q -> chain q @ [ "Any" ]
  | Exists (q, _) -> chain q @ [ "Any+pred" ]
  | For_all (q, _) -> chain q @ [ "All" ]
  | Contains (q, _) -> chain q @ [ "Contains" ]
  | Map_scalar (sq, _) -> sq_chain sq @ [ "MapResult" ]

let pp fmt q =
  Format.pp_print_string fmt (String.concat " -> " (chain q @ [ "Ret" ]))

let pp_sq fmt sq =
  Format.pp_print_string fmt (String.concat " -> " (sq_chain sq @ [ "Ret" ]))

(* The pipeline vocabulary: one module to open at a query construction
   site.  Everything here is an alias of (or a one-liner over) the
   combinators above, which are themselves thin wrappers over the GADT
   constructors — no new semantics, just the names a [|>] chain reads
   best with, plus the common source shorthands. *)
module Pipe = struct
  let of_array = of_array
  let of_list ty xs = of_array ty (Array.of_list xs)
  let ints xs = of_array Ty.Int xs
  let floats xs = of_array Ty.Float xs
  let range = range
  let repeat = repeat

  let where = where
  let where_i = where_i
  let select = select
  let select_i = select_i
  let select_many = select_many
  let take = take
  let skip = skip
  let take_while = take_while
  let skip_while = skip_while
  let join = join
  let group_by = group_by
  let group_by_agg = group_by_agg
  let order_by = order_by
  let distinct = distinct
  let rev = rev

  let to_array_q q = materialize q

  let sum_int = sum_int
  let sum_float = sum_float
  let sum_by_int = sum_by_int
  let sum_by_float = sum_by_float
  let count = count
  let count_where = count_where
  let average = average
  let average_by = average_by
  let min_elt = min_elt
  let max_elt = max_elt
  let min_by = min_by
  let max_by = max_by
  let first = first
  let last = last
  let any = any
  let exists = exists
  let for_all = for_all
  let contains = contains
end
