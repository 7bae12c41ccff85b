(** Reference semantics: a deliberately naive, list-based evaluator used as
    the oracle in differential tests.

    Shares no operator code with the iterator pipeline ({!Linq}), the
    fused backend, or generated native code, so agreement between backends
    and this module is meaningful evidence of correctness.

    Key-based operators ([Join], the GroupBys, [Distinct]) equate keys
    by [compare], as LINQ's default equality does for doubles: [nan]
    matches [nan], [0.] matches [-0.], and the first-seen key is kept. *)

val eval : 'a Query.t -> Expr.Open.env -> 'a list
val eval_sq : 's Query.sq -> Expr.Open.env -> 's

val to_list : 'a Query.t -> 'a list
val scalar : 's Query.sq -> 's
