(** Algebraic plan optimization: rewrite rules over the declarative query
    AST, plus a second pass over the canonicalized QUIL chain.

    The paper's pipeline consumes the query AST as written, so a
    semantically redundant operator chain ([Where p] directly over
    [Where q], [Select f] over [Select g], stacked [Take]/[Skip]s, a
    constant predicate) pays a full operator's worth of iterator state,
    closure calls, generated code and cache-key entropy.  This module is
    the classic next step for a loop-based relational IR: a small
    algebraic rewrite engine that runs between query construction and
    specialization, under a fixpoint driver with a fuel bound.

    Every rule is semantics-preserving for the pure expression language of
    {!Expr} (predicate fusion short-circuits via [If], transformation
    fusion binds the intermediate value with [Let], so evaluation count
    and order are preserved even for captured host functions).  Rules
    that delete a per-element evaluation ([where-const-true],
    [take-while-const], [nonempty-any-true]) additionally require the
    deleted lambda to be pure.

    The optimizer is {e checked}, not trusted: every firing is logged as
    a {!Check_equiv.event} carrying the sub-terms that justified it, and
    the engine discharges the log against {!Check_equiv.laws} after the
    fixpoint.  {!plan}/{!chain} keep the plain rule-name log for
    display; the [_ev] variants expose the full events.

    {b AST rules} (applied by {!plan}, to row and scalar plans alike):
    - [where-fuse]: [Where p ∘ Where q] → one [Where] testing [p] then [q]
      (short-circuit preserved);
    - [select-fuse]: [Select f ∘ Select g] → one [Select] of the [Let]-bound
      composition;
    - [take-take]: [Take n ∘ Take m] → [Take (min n m)] (constants folded,
      otherwise a [min] expression);
    - [skip-skip]: [Skip n ∘ Skip m] → [Skip (n + m)] (constant counts,
      clamped at zero);
    - [skip-zero]: [Skip 0] dropped;
    - [take-zero]: [Take n], [n <= 0] → the empty source;
    - [where-const-true] / [where-const-false]: a pure predicate that
      constant folds to [true] is dropped; [false] short-circuits to the
      empty source;
    - [where-interval-true] / [where-interval-false]: a pure predicate
      decided by {!Check_purity.truth}'s interval analysis (e.g.
      [x mod 10 < 10]) is dropped / short-circuits to the empty source;
    - [take-interval-nonpos]: [Take n] where the interval analysis proves
      [n <= 0] becomes the empty source;
    - [take-while-const] / [skip-while-const]: likewise for the stateful
      predicates (pure only);
    - [distinct-distinct]: adjacent [Distinct]s collapse;
    - [distinct-on-distinct-free]: [Distinct] over an input
      {!Check_flow} proves duplicate-free is the identity;
    - [orderby-on-sorted]: [Order_by] over an input already sorted by an
      alpha-equivalent key in the same direction is the identity (sound
      because every backend sorts stably);
    - [rev-rev]: [Rev ∘ Rev] cancels at the AST level;
    - [nonempty-any-true]: [Any] over a provably non-empty pure pipeline
      is the constant [true];
    - [empty-collapse]: dead-operator elimination — any operator whose
      source is statically empty (after a collapsing rewrite) becomes the
      empty source of its element type;
    - [stats-where-reorder]: (adaptive pass only, see
      {!adaptive_ev}) pure conjuncts of a fused filter are re-sorted
      most-selective-first by measured selectivity.

    {b QUIL chain rules} (applied by {!chain} to the canonicalized form):
    - [quil-rev-rev]: adjacent [Sink:Reverse] pairs cancel;
    - [quil-drop-to-array]: a [Sink:ToArray] immediately followed by
      another sink or an aggregate is redundant (the downstream operator
      rebuffers or folds the whole input anyway). *)

val default_fuel : int
(** Bound on fixpoint passes (each pass may fire many rules); rewriting
    stops early as soon as a pass fires nothing. *)

type event = Check_equiv.event = {
  ev_rule : string;
  ev_facts : Check_equiv.fact list;
}

val plan : ?fuel:int -> 'r Query.root -> 'r Query.root * string list
(** [plan r] is the rewritten plan, of the same kind, together with the
    names of the rules applied, in application order (one entry per
    firing, so a rule fusing three stacked [Where]s appears twice). *)

val chain : ?fuel:int -> Quil.chain -> Quil.chain * string list
(** The string-level pass over the canonicalized QUIL chain, recursing
    into nested sub-chains. *)

val plan_ev : ?fuel:int -> 'r Query.root -> 'r Query.root * event list
(** As {!plan}, with the rewrite events the translation validator
    consumes. *)

val chain_ev : ?fuel:int -> Quil.chain -> Quil.chain * event list

val rule_names : string list
(** Every rule this engine can fire, AST rules first — the documentation
    table, the law table and the rule-coverage test enumerate it. *)

(** {1 Adaptive pass}

    A second, statistics-driven pass the engine runs after the syntactic
    fixpoint when [Config.with_adaptive] is set.  It never fires from
    {!plan}: the estimator is engine state (the [Steno.Cost]
    store plus static priors), so the pass is a separate entry point. *)

type estimator = { est : 'a. ('a, bool) Expr.lam -> float }
(** Selectivity oracle: expected pass fraction of a predicate, in
    [[0, 1]].  Supplied by the engine — observed statistics when the
    plan has run under profiling, static priors otherwise. *)

val adaptive_ev :
  estimator -> split:bool -> 'r Query.root -> 'r Query.root * event list
(** Reorder the pure conjuncts of every fused [Where] in the plan,
    cheapest (most selective) first, per the estimator.  Impure
    conjunct chains never move.  Each inverted pair is logged as a
    ["stats-where-reorder"] event with a [Stats_selectivity] fact for
    the validator.  [~split:true] additionally rebuilds multi-conjunct
    pure filters as stacked single-predicate [Where]s so a profiled run
    observes each conjunct's selectivity separately (semantically the
    inverse of [where-fuse]; no event is logged for the split itself). *)

(** {1 Test hook}

    A rewrite tried before every real rule.  It exists solely so the
    test suite can inject an {e unsound} rewrite (with a forged
    justification) and observe the translation validator reject it;
    production code never sets it. *)

type hook = { h : 'a. 'a Query.t -> ('a Query.t * event) option }

val set_test_hook : hook option -> unit
