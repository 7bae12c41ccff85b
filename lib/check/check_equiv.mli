(** Translation validation of optimizer rewrites.

    [Opt] logs every rewrite as an {!event}: the rule name plus
    {!fact}s capturing the sub-terms whose static properties justified
    it (the dropped predicate, the statically-empty input, the
    sortedness witness, ...).  After the fixpoint the engine calls
    {!validate} with the plan before and after; each event is
    discharged against the {!laws} table, whose side conditions re-run
    the purity, interval and {!Check_flow} analyses on the captured
    terms — the optimizer is never trusted.
    Two whole-plan invariants ride along: no host-function application
    site may be duplicated, and the flow properties of the two plans
    must not contradict.

    A failed obligation makes the engine discard the optimized plan and
    fall back to the original (strict mode raises instead); the
    [steno_verify_total] metric counts both outcomes. *)

(** A sub-term captured at rewrite time, packaged with the claim the
    rule made about it. *)
type fact =
  | Pred_true : bool Expr.t -> fact
      (** the predicate holds for every element *)
  | Pred_false : bool Expr.t -> fact
  | Count_nonpos : int Expr.t -> fact
  | Input_empty : 'a Query.t -> fact
  | Input_distinct : 'a Query.t -> fact
  | Input_sorted : 'a Query.t * ('a, 'k) Expr.lam * Query.order -> fact
  | Input_nonempty_pure : 'a Query.t -> fact
  | Stats_selectivity :
      ('a, bool) Expr.lam * ('b, bool) Expr.lam * float * float -> fact
      (** the adaptive phase hoisted the first predicate above the
          second: both must re-derive as pure, and the recorded
          selectivities (hoisted, demoted) must be probabilities with
          hoisted <= demoted *)

type event = {
  ev_rule : string;  (** optimizer rule name, as in [Opt.rule_names] *)
  ev_facts : fact list;
}

type law = {
  l_rule : string;
  l_doc : string;  (** the algebraic identity, for display *)
  l_check : fact list -> (unit, string) result;
      (** machine-checked side condition *)
}

type obligation = {
  o_rule : string;
  o_ok : bool;
  o_detail : string;  (** law doc when ok, rejection reason when not *)
}

val laws : law list
(** One law per optimizer rule (AST and chain level).  Structural
    identities (fusion, [rev-rev], ...) have trivially-true side
    conditions; deletion rules re-prove the interval/purity facts;
    property-driven rules re-run {!Check_flow} on the captured input. *)

val validate :
  ?laws:law list ->
  before:'r Query.root ->
  after:'r Query.root ->
  event list ->
  obligation list
(** One obligation per event, in log order, followed by the
    no-effect-duplication and flow-compatibility plan invariants.
    [?laws] substitutes the law table (for tests). *)

val validate_chain :
  ?laws:law list ->
  before:Quil.chain ->
  after:Quil.chain ->
  event list ->
  obligation list
(** Chain-level events plus two invariants: the pass only removes
    operators, and the rewritten chain is accepted by the
    well-formedness PDA. *)

val accepted : obligation list -> bool
val failures : obligation list -> string list
(** The failed obligations as ["rule: reason"] lines. *)

val obligation_string : obligation -> string
(** One display line, e.g. ["ok       where-fuse  filter(p); ..."]. *)
