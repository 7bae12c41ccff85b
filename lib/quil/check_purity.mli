(** Static analysis of {!Expr} trees: purity/opacity, a capture and
    free-variable census with a cost estimate, and a constant/interval
    analysis over integer expressions.

    The purity lattice has two points.  [Pure] expressions are built only
    from the closed expression vocabulary (constants, variables, captures,
    primitives, tuples, array reads): every backend can inline them, and
    the optimizer may duplicate, reorder or delete them.  [Opaque]
    expressions contain at least one {!Expr.Apply} of a captured host
    function — the analog of a non-expression-tree delegate in LINQ: the
    native code generator must emit an indirect call per element, and
    algebraic rewrites must treat the call as a black box.

    The interval analysis is a standard abstract interpretation over
    [{lo; hi}] with unbounded ends, deliberately conservative: captures
    are unknown (their values are rebindable per run), arithmetic widens
    to unbounded on any potential overflow, and only integer-typed
    comparisons refine the three-valued {!truth} verdict. *)

type purity =
  | Pure
  | Opaque

type census = {
  c_size : int;  (** AST nodes, as {!Expr.size}. *)
  c_captures : int;  (** [Capture] leaves. *)
  c_applies : int;  (** [Apply] nodes — zero iff the expression is pure. *)
  c_free_vars : int;  (** Distinct free variables. *)
  c_cost : int;
      (** Weighted per-evaluation cost estimate: primitives and array
          reads cost a little, host-function applications a lot. *)
}

val census : 'a Expr.t -> census

val purity : 'a Expr.t -> purity
(** [Opaque] iff the tree contains an [Apply]. *)

(** {1 Intervals} *)

type itv = {
  lo : int option;  (** [None] is unbounded below. *)
  hi : int option;  (** [None] is unbounded above. *)
}

val top : itv
val exactly : int -> itv

type env = (int * itv) list
(** Variable id to interval, for let-bound refinement. *)

val interval : ?env:env -> int Expr.t -> itv
(** A sound enclosure of every value the expression can take, for any
    values of its free variables, captures and opaque calls. *)

type truth =
  | True
  | False
  | Unknown

val truth : ?env:env -> bool Expr.t -> truth
(** Three-valued verdict on a boolean expression; [True]/[False] only
    when the interval analysis proves it for all variable values. *)

val always_nonpositive : int Expr.t -> bool
(** The expression's upper bound is proven [<= 0] — e.g. a [Take] count
    that can never admit an element. *)

val total : 'a Expr.t -> bool
(** Evaluating the expression cannot raise, for any values of its free
    variables and captures: it applies no host function, reads no array,
    divides (or takes a modulo) only by an expression whose interval
    excludes zero, and compares no values of a type that holds a
    function.  A total predicate may be evaluated on elements it would
    not have been asked about, as the branch-free filters do. *)

val zero_division_sites : 'a Expr.t -> int
(** Number of integer division/modulo nodes whose divisor is provably
    the constant zero: each such site raises [Division_by_zero] whenever
    evaluated. *)
