(** QUIL: the Query Intermediate Language (section 4.1 of the paper).

    QUIL reduces the large LINQ operator surface to six fundamental
    operator classes — [Src], [Trans], [Pred], [Sink], [Agg], [Ret] — plus
    nested sub-queries, which may substitute for the transformation or
    predicate of an element-wise operator (section 5).  A chain of QUIL
    operators is what the code-generating pushdown automaton consumes.

    Types are erased at this level, exactly as the paper's code generator
    works on an untyped C# AST: every lambda has become a {!render}
    closure that prints the (inlined) body as OCaml source once the code
    generator has chosen variable names. *)

type render = Expr.name_env -> Expr.Capture_table.t -> string
(** Renders an expression as self-delimiting OCaml source, given the
    names assigned to in-scope query variables and the table assigning
    capture slots. *)

type lam1 = {
  bind1 : string -> Expr.name_env -> Expr.name_env;
      (** Bind the parameter to a generated variable name. *)
  body1 : render;
}

type lam2 = {
  bind2 : string -> string -> Expr.name_env -> Expr.name_env;
  body2 : render;
}

(** The [Src] symbol, annotated with the source's run-time type so the
    code generator can produce type-specialized iteration code
    (section 4.2). *)
type src =
  | Src_array of { elem_ty : string; array : render }
      (** Indexed iteration over an array-valued expression; [elem_ty] is
          the printed OCaml element type. *)
  | Src_range of { start : render; count : render }
  | Src_repeat of { value : render; count : render }

(** Stateful predicate-class operators (Take, Skip, ...): classified as
    [Pred] by Table 1; they require a counter or flag in the loop
    prelude. *)
type stateful_pred =
  | Take_n of render
  | Skip_n of render
  | Take_while_p of lam1
  | Skip_while_p of lam1

(** Sinks that hash their input carry the printed OCaml type of the key
    ([key_ty]; the element type for [Distinct_sink]), as [Src_array]
    carries its element type, so the code generator can pick a table
    specialized to that type. *)
type sink =
  | Group_by_sink of { key : lam1; key_ty : string }
  | Group_by_elem_sink of { key : lam1; key_ty : string; elem : lam1 }
  | Group_by_agg_sink of {
      key : lam1;
      key_ty : string;
      seed : render;
      step : lam2;
    }
      (** The GroupByAggregate specialization (section 4.3). *)
  | Group_by_agg_sorted_sink of {
      key : lam1;
      key_default : string;  (** placeholder initializer for the key cell *)
      seed : render;
      step : lam2;
    }
      (** GroupByAggregate over input already sorted by the same key: one
          sequential pass with O(1) live keys and reduction variables (the
          memory optimization of section 4.3's final paragraph). *)
  | Order_by_sink of { key : lam1; descending : bool }
  | Distinct_sink of { elem_ty : string }
  | Reverse_sink
  | To_array_sink

(** Aggregation: a set of accumulators folded over the elements.
    [first_element] selects first-element-as-seed semantics (Min, Max,
    First, ...); [require_nonempty] makes the generated code raise on an
    empty input, matching LINQ. *)
type acc = {
  seed : render;
  step : accs:string list -> elem:string -> render;
      (** New value of this accumulator, given all accumulator variable
          names (dereferenced) and the current element name. *)
  first : (elem:string -> render) option;
      (** Value taken from the first element when [first_element]. *)
}

type agg = {
  accs : acc list;
  first_element : bool;
  require_nonempty : bool;
  early_exit : (accs:string list -> render) option;
      (** Condition on the accumulators under which no further element can
          change the result (Any, All, First, Contains, ...): the
          generated loop breaks out as soon as it holds. *)
  result : accs:string list -> render;
}

type op =
  | Trans of lam1
  | Trans_nested of nested_scalar
  | Pred of lam1
  | Pred_nested of nested_scalar
  | Pred_stateful of stateful_pred
  | Trans_idx of lam2
  | Pred_idx of lam2
  | Nested of nested  (** SelectMany *)
  | Hash_join of hash_join
      (** Specialized equi-join: build a hash index over the inner chain
          once (in the loop prelude), then probe it per outer element —
          replacing the quadratic nested-loop join the paper notes is
          inefficient for large inputs (section 5). *)
  | Sink of sink
  | Agg of agg

and hash_join = {
  join_inner : chain;  (** The build side; independent of the outer element. *)
  join_inner_key : lam1;
  join_outer_key : lam1;
  join_key_ty : string;  (** printed OCaml type of both keys *)
  join_result : lam2;  (** outer element, inner element -> output element *)
}

and nested = {
  bind_outer : string -> Expr.name_env -> Expr.name_env;
      (** Bind the outer element variable for the inner chain
          (section 5.2: occurrences of the outer element are rewritten to
          the current element name). *)
  inner : chain;
  result2 : lam2 option;  (** SelectMany result selector. *)
}

and nested_scalar = {
  bind_outer_s : string -> Expr.name_env -> Expr.name_env;
  inner_s : chain;  (** Must end in [Agg]. *)
}

and chain = {
  src : src;
  ops : op list;
}

val returns_scalar : chain -> bool
(** True iff the chain's last operator is an [Agg] (the query returns a
    scalar, so [Ret] follows an [Agg] symbol). *)

val symbol_string : chain -> string
(** Flat rendering of the QUIL sentence, nested chains bracketed, e.g.
    ["Src Trans [Src Trans Agg Ret] Agg Ret"].  Sink symbols carry their
    kind (["Sink:GroupBy"], ["Sink:GroupByAggregate"], ...) so operator
    specialization is visible in dumps. *)

val op_symbol : op -> string
(** The symbol of one operator, as it appears in {!symbol_string}
    (nested chains bracketed inline).  Used to label per-operator probe
    points in profiled native code. *)

val operator_count : chain -> int

val map_nested : (chain -> chain) -> op -> op
(** [map_nested f op] rebuilds [op] with [f] applied to every chain nested
    directly inside it (the sub-query of [Nested], [Trans_nested],
    [Pred_nested], and the build side of [Hash_join]); operators without a
    nested chain are returned unchanged.  Used by chain-level rewrite
    passes to recurse uniformly. *)
