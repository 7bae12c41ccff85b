(** The declarative query AST.

    A ['a t] is a query producing a collection of ['a]; a ['s sq] is a
    query producing the scalar ['s] (it ends in an aggregating operator).
    The two are mutually recursive because a nested query can substitute
    for the transformation or predicate function of an element-wise
    operator (section 5 of the paper): [Select_q]/[Where_q] embed a scalar
    query parameterized by the outer element, and [Select_many] embeds a
    collection query.

    Queries are built with the combinators below (the analog of writing a
    LINQ expression); they are data, and are executed by one of the
    backends: LINQ-style iterator interpretation ({!Linq}), in-process
    closure fusion ([Fused]), or Steno native code generation. *)

type order =
  | Ascending
  | Descending

type _ t =
  | Of_array : 'a Ty.t * 'a array Expr.t -> 'a t
  | Range : int Expr.t * int Expr.t -> int t  (** start, count *)
  | Repeat : 'a Ty.t * 'a Expr.t * int Expr.t -> 'a t  (** value, count *)
  | Select : 'a t * ('a, 'b) Expr.lam -> 'b t
  | Select_i : 'a t * (int, 'a, 'b) Expr.lam2 -> 'b t
      (** Select with the element's position as first argument. *)
  | Select_q : 'a t * 'a Expr.var * 'b sq -> 'b t
      (** Nested select: the transformation is a scalar subquery that may
          mention the outer element variable. *)
  | Where : 'a t * ('a, bool) Expr.lam -> 'a t
  | Where_i : 'a t * (int, 'a, bool) Expr.lam2 -> 'a t
  | Where_q : 'a t * 'a Expr.var * bool sq -> 'a t
      (** Nested predicate (e.g. an [exists] subquery per element). *)
  | Take : 'a t * int Expr.t -> 'a t
  | Skip : 'a t * int Expr.t -> 'a t
  | Take_while : 'a t * ('a, bool) Expr.lam -> 'a t
  | Skip_while : 'a t * ('a, bool) Expr.lam -> 'a t
  | Select_many : 'a t * 'a Expr.var * 'b t -> 'b t
      (** Flattening nested query; the inner query may mention the outer
          element variable. *)
  | Select_many_result :
      'a t * 'a Expr.var * 'b t * ('a, 'b, 'c) Expr.lam2
      -> 'c t
  | Join :
      'a t * 'b t * ('a, 'k) Expr.lam * ('b, 'k) Expr.lam
      * ('a, 'b, 'c) Expr.lam2
      -> 'c t  (** Equi-join: outer, inner, keys, result selector. *)
  | Group_by : 'a t * ('a, 'k) Expr.lam -> ('k * 'a array) t
  | Group_by_elem :
      'a t * ('a, 'k) Expr.lam * ('a, 'e) Expr.lam
      -> ('k * 'e array) t
  | Group_by_agg :
      'a t * ('a, 'k) Expr.lam * 's Expr.t * ('s, 'a, 's) Expr.lam2
      -> ('k * 's) t
      (** The GroupByAggregate specialized sink (section 4.3): one partial
          aggregate per key instead of the bag of values.  The seed
          expression must be pure: backends may evaluate it once or once
          per fresh key.  If the aggregate state is a mutable value (e.g.
          a captured array), the step function must not mutate it. *)
  | Order_by : 'a t * ('a, 'k) Expr.lam * order -> 'a t
  | Distinct : 'a t -> 'a t
  | Rev : 'a t -> 'a t
  | Materialize : 'a t -> 'a t
      (** The explicit ToArray sink (footnote 3 of the paper). *)

and _ sq =
  | Aggregate : 'a t * 's Expr.t * ('s, 'a, 's) Expr.lam2 -> 's sq
  | Aggregate_full :
      'a t * 's Expr.t * ('s, 'a, 's) Expr.lam2 * ('s, 'r) Expr.lam
      -> 'r sq  (** Aggregate with a result selector. *)
  | Aggregate_combinable :
      'a t * 's Expr.t * ('s, 'a, 's) Expr.lam2 * ('s -> 's -> 's)
      -> 's sq
      (** Aggregate carrying a user-declared associative combiner (the
          DryadLINQ-style annotation, section 6): sequential backends treat
          it exactly as [Aggregate]; the parallel layer folds each
          partition from [seed] with [step] and merges the per-partition
          partials left-to-right with the combiner.  Correctness requires
          the combiner to be associative with [seed] as identity, and
          [fold seed step (a @ b) = combine (fold seed step a) (fold seed
          step b)] — the usual monoid-homomorphism law; it is the user's
          promise and is not checked. *)
  | Sum_int : int t -> int sq
  | Sum_float : float t -> float sq
  | Count : 'a t -> int sq
  | Average : float t -> float sq
  | Min : 'a t -> 'a sq  (** Raises on empty input. *)
  | Max : 'a t -> 'a sq
  | Min_by : 'a t * ('a, 'k) Expr.lam -> 'a sq
  | Max_by : 'a t * ('a, 'k) Expr.lam -> 'a sq
  | First : 'a t -> 'a sq
  | Last : 'a t -> 'a sq
  | Element_at : 'a t * int Expr.t -> 'a sq
      (** Zero-based; raises like [First] when out of range. *)
  | Any : 'a t -> bool sq
  | Exists : 'a t * ('a, bool) Expr.lam -> bool sq
  | For_all : 'a t * ('a, bool) Expr.lam -> bool sq
  | Contains : 'a t * 'a Expr.t -> bool sq
  | Map_scalar : 's sq * ('s, 'r) Expr.lam -> 'r sq
      (** Apply a function to a scalar query's result (e.g. combine a
          subquery aggregate with the enclosing element). *)

(** A whole plan, indexed by what running it returns: a collection query
    yields its rows, a scalar query its value.  QUIL has one plan kind —
    a chain ends in [Ret] or [Agg Ret] and one automaton accepts both —
    and the engine's preparation pipeline is written once over this
    type. *)
type _ root = Rows : 'a t -> 'a array root | Scalar : 's sq -> 's root

val elem_ty : 'a t -> 'a Ty.t
(** The element type of a collection query, synthesized structurally. *)

val scalar_ty : 's sq -> 's Ty.t

(** {1 Combinators}

    Higher-order-abstract-syntax builders: lambdas are given as OCaml
    functions over expressions, and element types are threaded
    automatically. *)

val of_array : 'a Ty.t -> 'a array -> 'a t
(** Captures the array; a recompiled query can be re-run against a
    different array via the capture environment. *)

val range : start:int -> count:int -> int t
val repeat : 'a Ty.t -> 'a -> count:int -> 'a t
val select : ('a Expr.t -> 'b Expr.t) -> 'a t -> 'b t
val select_i : (int Expr.t -> 'a Expr.t -> 'b Expr.t) -> 'a t -> 'b t
val where : ('a Expr.t -> bool Expr.t) -> 'a t -> 'a t
val where_i : (int Expr.t -> 'a Expr.t -> bool Expr.t) -> 'a t -> 'a t
val take : int -> 'a t -> 'a t
val skip : int -> 'a t -> 'a t
val take_while : ('a Expr.t -> bool Expr.t) -> 'a t -> 'a t
val skip_while : ('a Expr.t -> bool Expr.t) -> 'a t -> 'a t

val select_many : ('a Expr.t -> 'b t) -> 'a t -> 'b t
val select_many_result :
  ('a Expr.t -> 'b t) -> ('a Expr.t -> 'b Expr.t -> 'c Expr.t) -> 'a t -> 'c t

val select_sq : ('a Expr.t -> 'b sq) -> 'a t -> 'b t
val where_sq : ('a Expr.t -> bool sq) -> 'a t -> 'a t

val join :
  inner:'b t ->
  outer_key:('a Expr.t -> 'k Expr.t) ->
  inner_key:('b Expr.t -> 'k Expr.t) ->
  result:('a Expr.t -> 'b Expr.t -> 'c Expr.t) ->
  'a t ->
  'c t

val group_by : ('a Expr.t -> 'k Expr.t) -> 'a t -> ('k * 'a array) t

val group_by_elem :
  key:('a Expr.t -> 'k Expr.t) ->
  elem:('a Expr.t -> 'e Expr.t) ->
  'a t ->
  ('k * 'e array) t

val group_by_agg :
  key:('a Expr.t -> 'k Expr.t) ->
  seed:'s Expr.t ->
  step:('s Expr.t -> 'a Expr.t -> 's Expr.t) ->
  'a t ->
  ('k * 's) t

val order_by : ?order:order -> ('a Expr.t -> 'k Expr.t) -> 'a t -> 'a t
val distinct : 'a t -> 'a t
val rev : 'a t -> 'a t
val materialize : 'a t -> 'a t

val aggregate :
  ?combine:('s -> 's -> 's) ->
  seed:'s Expr.t ->
  step:('s Expr.t -> 'a Expr.t -> 's Expr.t) ->
  'a t ->
  's sq
(** [?combine] declares an associative merge of two fold states, enabling
    parallel partial aggregation (see {!Aggregate_combinable}).  Without
    it the aggregate is opaque and executes sequentially. *)

val aggregate_full :
  seed:'s Expr.t ->
  step:('s Expr.t -> 'a Expr.t -> 's Expr.t) ->
  result:('s Expr.t -> 'r Expr.t) ->
  'a t ->
  'r sq

val sum_int : int t -> int sq
val sum_float : float t -> float sq
val count : 'a t -> int sq
val average : float t -> float sq
val min_elt : 'a t -> 'a sq
val max_elt : 'a t -> 'a sq
val min_by : ('a Expr.t -> 'k Expr.t) -> 'a t -> 'a sq
val max_by : ('a Expr.t -> 'k Expr.t) -> 'a t -> 'a sq
val first : 'a t -> 'a sq
val last : 'a t -> 'a sq
val element_at : int -> 'a t -> 'a sq
val any : 'a t -> bool sq
val exists : ('a Expr.t -> bool Expr.t) -> 'a t -> bool sq
val for_all : ('a Expr.t -> bool Expr.t) -> 'a t -> bool sq
val contains : 'a Expr.t -> 'a t -> bool sq
val map_scalar : ('s Expr.t -> 'r Expr.t) -> 's sq -> 'r sq

(** Convenience forms mirroring the LINQ surface. *)

val sum_by_int : ('a Expr.t -> int Expr.t) -> 'a t -> int sq
val sum_by_float : ('a Expr.t -> float Expr.t) -> 'a t -> float sq
val average_by : ('a Expr.t -> float Expr.t) -> 'a t -> float sq
val count_where : ('a Expr.t -> bool Expr.t) -> 'a t -> int sq

(** {1 Structure}

    The AST's shape, said once: walkers that only rebuild or recurse go
    through these instead of matching every constructor. *)

type mapper = { q : 'a. 'a t -> 'a t; sq : 's. 's sq -> 's sq }

val map : mapper -> 'a t -> 'a t
(** [map f q] replaces each immediate sub-plan of [q] with [f]'s result,
    the input first and then the nested plans ([Join]'s inner side,
    [Select_many]'s inner query, [Select_q]/[Where_q]'s subquery).  A
    source is returned as it is. *)

val map_sq : mapper -> 's sq -> 's sq

(** A sub-plan of either kind. *)
type plan = Plan : 'a t -> plan | Plan_sq : 's sq -> plan

val input : 'a t -> plan option
(** The node's spine predecessor (a [Join]'s outer side); [None] for a
    source.  The probed operators of a plan are its spine. *)

val nested : 'a t -> plan list
(** The node's nested plans, in [map]'s order. *)

val sq_input : 's sq -> plan
(** A scalar node's one plan: a collection, or the scalar plan a
    [Map_scalar] post-processes. *)

val label : 'a t -> string
(** The operator's name in probes, diagnostics, flow annotations and the
    homomorphism report, e.g. [select-sq] for [Select_q]. *)

val sq_label : 's sq -> string

val operator_count : 'a t -> int
(** Number of query operators, including nested subqueries. *)

val sq_operator_count : 's sq -> int

val pp : Format.formatter -> 'a t -> unit
(** Operator-chain dump, e.g. ["Src -> Where(p) -> Select(f) -> Ret"]. *)

val pp_sq : Format.formatter -> 's sq -> unit

(** {1 Pipeline builders}

    The query vocabulary packaged for [|>] chains: open (or
    locally-open) this module at a construction site and write

    {[
      Query.Pipe.(
        ints xs
        |> where (fun x -> Expr.Infix.(x mod Expr.int 2 = Expr.int 0))
        |> select (fun x -> Expr.Infix.(x * x))
        |> to_array_q)
    ]}

    Every function is an alias of — or a one-line convenience over — the
    toplevel combinators, which are themselves thin wrappers over the
    GADT constructors; the two styles build identical ASTs and may be
    mixed freely. *)
module Pipe : sig
  (** {2 Sources} *)

  val of_array : 'a Ty.t -> 'a array -> 'a t
  val of_list : 'a Ty.t -> 'a list -> 'a t
  val ints : int array -> int t
  (** [of_array Ty.Int]. *)

  val floats : float array -> float t
  val range : start:int -> count:int -> int t
  val repeat : 'a Ty.t -> 'a -> count:int -> 'a t

  (** {2 Operators} *)

  val where : ('a Expr.t -> bool Expr.t) -> 'a t -> 'a t
  val where_i : (int Expr.t -> 'a Expr.t -> bool Expr.t) -> 'a t -> 'a t
  val select : ('a Expr.t -> 'b Expr.t) -> 'a t -> 'b t
  val select_i : (int Expr.t -> 'a Expr.t -> 'b Expr.t) -> 'a t -> 'b t
  val select_many : ('a Expr.t -> 'b t) -> 'a t -> 'b t
  val take : int -> 'a t -> 'a t
  val skip : int -> 'a t -> 'a t
  val take_while : ('a Expr.t -> bool Expr.t) -> 'a t -> 'a t
  val skip_while : ('a Expr.t -> bool Expr.t) -> 'a t -> 'a t

  val join :
    inner:'b t ->
    outer_key:('a Expr.t -> 'k Expr.t) ->
    inner_key:('b Expr.t -> 'k Expr.t) ->
    result:('a Expr.t -> 'b Expr.t -> 'c Expr.t) ->
    'a t ->
    'c t

  val group_by : ('a Expr.t -> 'k Expr.t) -> 'a t -> ('k * 'a array) t

  val group_by_agg :
    key:('a Expr.t -> 'k Expr.t) ->
    seed:'s Expr.t ->
    step:('s Expr.t -> 'a Expr.t -> 's Expr.t) ->
    'a t ->
    ('k * 's) t

  val order_by : ?order:order -> ('a Expr.t -> 'k Expr.t) -> 'a t -> 'a t
  val distinct : 'a t -> 'a t
  val rev : 'a t -> 'a t

  val to_array_q : 'a t -> 'a t
  (** Force materialization at this point in the pipeline
      ({!materialize}): the terminal of a collection pipeline in the
      LINQ idiom. *)

  (** {2 Scalar terminals} *)

  val sum_int : int t -> int sq
  val sum_float : float t -> float sq
  val sum_by_int : ('a Expr.t -> int Expr.t) -> 'a t -> int sq
  val sum_by_float : ('a Expr.t -> float Expr.t) -> 'a t -> float sq
  val count : 'a t -> int sq
  val count_where : ('a Expr.t -> bool Expr.t) -> 'a t -> int sq
  val average : float t -> float sq
  val average_by : ('a Expr.t -> float Expr.t) -> 'a t -> float sq
  val min_elt : 'a t -> 'a sq
  val max_elt : 'a t -> 'a sq
  val min_by : ('a Expr.t -> 'k Expr.t) -> 'a t -> 'a sq
  val max_by : ('a Expr.t -> 'k Expr.t) -> 'a t -> 'a sq
  val first : 'a t -> 'a sq
  val last : 'a t -> 'a sq
  val any : 'a t -> bool sq
  val exists : ('a Expr.t -> bool Expr.t) -> 'a t -> bool sq
  val for_all : ('a Expr.t -> bool Expr.t) -> 'a t -> bool sq
  val contains : 'a Expr.t -> 'a t -> bool sq
end
