(** Canonicalization: lower the typed query AST into a QUIL operator chain
    (section 3.1 — "Steno translates this AST into a chain of operators,
    by post-order traversing the tree, and yielding a canonical operator
    for each method-call expression").

    Responsibilities:
    - map each LINQ-level operator to its QUIL class per Table 1;
    - inline lambdas as render closures (after {!Expr.simplify});
    - desugar [Join] into the nested SelectMany-Where form the paper uses
      for equi-joins (section 5);
    - record the printed key type of every hashing sink (GroupBy,
      Distinct, hash join) so the code generator can pick a table
      specialized to it;
    - construct type-specialized aggregation plans (e.g. [Min] over floats
      seeds with [infinity]; generic element types fall back to
      first-element semantics with a type-derived placeholder seed). *)

exception Unsupported of string
(** Raised for queries outside the code-generatable fragment (e.g. a
    seedless aggregate over a type with no default literal). *)

val hash_join_enabled : bool ref
(** When true (default), [Join] lowers to the specialized hash join;
    when false, to the paper's nested SelectMany-Where loop. *)

val sorted_group_enabled : bool ref
(** When true (default), a [Group_by_agg] whose input is an [Order_by] on
    an alpha-equal key lowers to the one-pass sorted sink with O(1) live
    aggregation state (section 4.3). *)

val of_query : 'a Query.t -> Quil.chain

val of_scalar : 's Query.sq -> Quil.chain
(** The resulting chain always ends in [Agg]. *)

val of_specialized : 'a Query.t -> Quil.chain
(** Lower a query that has already been through {!Specialize.query} —
    for drivers that run (and account for) the specialization pass
    themselves. *)

val of_specialized_scalar : 's Query.sq -> Quil.chain

val default_literal : 'a Ty.t -> string option
(** OCaml source for a placeholder value of the type, used to initialize
    first-element accumulators; [None] when the type has no closed literal
    form (functions). *)
