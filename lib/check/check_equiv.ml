(* Translation validation for the optimizer.

   The optimizer ([Opt]) is not trusted: every rewrite it performs is
   logged as an event carrying the rule name and the sub-terms whose
   static facts justified the rewrite.  After the fixpoint, the engine
   hands the event log together with the plans before and after to this
   module, which discharges one obligation per event against a table of
   algebraic laws — re-running the purity/interval/flow analyses on the
   captured terms rather than believing the optimizer — plus two cheap
   whole-plan invariants.  Any failed obligation rejects the optimized
   plan and the engine falls back to the plan it was given.

   The [?laws] override exists so tests can check that a deliberately
   broken law table rejects otherwise-sound plans. *)

type fact =
  | Pred_true : bool Expr.t -> fact
      (* claim: the predicate holds for every element *)
  | Pred_false : bool Expr.t -> fact
  | Count_nonpos : int Expr.t -> fact
      (* claim: the count expression is never positive *)
  | Input_empty : 'a Query.t -> fact
      (* claim: the input plan produces no elements *)
  | Input_distinct : 'a Query.t -> fact
      (* claim: the input plan is duplicate-free *)
  | Input_sorted : 'a Query.t * ('a, 'k) Expr.lam * Query.order -> fact
      (* claim: the input is already sorted by this key and direction *)
  | Input_nonempty_pure : 'a Query.t -> fact
      (* claim: the input provably yields an element, via pure operators *)
  | Stats_selectivity :
      ('a, bool) Expr.lam * ('b, bool) Expr.lam * float * float -> fact
      (* claim: both predicates are pure (hence commute), and the first
         (hoisted before the second by the adaptive phase) has observed
         selectivity fst <= snd *)

type event = {
  ev_rule : string;
  ev_facts : fact list;
}

type law = {
  l_rule : string;
  l_doc : string;
  l_check : fact list -> (unit, string) result;
}

type obligation = {
  o_rule : string;
  o_ok : bool;
  o_detail : string;
}

(* ------------------------------------------------------------------ *)
(* Side-condition checkers.  Each re-derives the claimed fact from
   scratch; a missing fact is a failure (the rule fired without
   recording its justification). *)

let ok = Ok ()

(* Structural identities need no recorded facts: the rewrite is an
   unconditional algebra law (fusion keeps short-circuiting, composed
   selectors are let-bound once, etc.). *)
let structural _facts = ok

let pred_verdict facts =
  let found =
    List.find_map
      (function
        | Pred_true p -> Some (`Always p)
        | Pred_false p -> Some (`Never p)
        | _ -> None)
      facts
  in
  match found with
  | None -> Error "no predicate fact recorded"
  | Some v -> Ok v

let check_pred expected facts =
  match pred_verdict facts with
  | Error _ as e -> e
  | Ok v -> (
    let p, want, label =
      match v, expected with
      | `Always p, `Always -> p, Check_purity.True, "always true"
      | `Never p, `Never -> p, Check_purity.False, "always false"
      | `Always p, `Either -> p, Check_purity.True, "always true"
      | `Never p, `Either -> p, Check_purity.False, "always false"
      | `Always _, `Never -> raise Exit
      | `Never _, `Always -> raise Exit
    in
    if Check_purity.truth (Expr.simplify p) <> want then
      Error (Printf.sprintf "predicate is not provably %s" label)
    else
      match Check_purity.purity p with
      | Check_purity.Pure -> ok
      | Check_purity.Opaque ->
        Error "predicate applies a host function; deleting it loses effects")

let check_pred expected facts =
  try check_pred expected facts
  with Exit -> Error "recorded predicate fact contradicts the rule"

let check_count_nonpos facts =
  match
    List.find_map
      (function
        | Count_nonpos n -> Some n
        | _ -> None)
      facts
  with
  | None -> Error "no count fact recorded"
  | Some n ->
    if Check_purity.always_nonpositive n then ok
    else Error "count is not provably non-positive"

let check_input_empty facts =
  match
    List.find_map
      (function
        | Input_empty q -> Some (Check_flow.statically_empty q)
        | _ -> None)
      facts
  with
  | None -> Error "no empty-input fact recorded"
  | Some true -> ok
  | Some false -> Error "input is not statically empty"

let check_input_distinct facts =
  match
    List.find_map
      (function
        | Input_distinct q ->
          Some ((Check_flow.props q).Check_flow.distinct = Check_flow.Yes)
        | _ -> None)
      facts
  with
  | None -> Error "no distinctness fact recorded"
  | Some true -> ok
  | Some false -> Error "input is not provably duplicate-free"

let check_input_sorted facts =
  match
    List.find_map
      (function
        | Input_sorted (q, k, dir) ->
          Some (Check_flow.sorted_matching q k dir)
        | _ -> None)
      facts
  with
  | None -> Error "no sortedness fact recorded"
  | Some true -> ok
  | Some false ->
    Error "input is not provably sorted by an alpha-equivalent key"

let check_input_nonempty_pure facts =
  match
    List.find_map
      (function
        | Input_nonempty_pure q -> Some (Check_flow.props q)
        | _ -> None)
      facts
  with
  | None -> Error "no nonemptiness fact recorded"
  | Some p ->
    if p.Check_flow.nonempty <> Check_flow.Yes then
      Error "input is not provably non-empty"
    else if not p.Check_flow.pure_prefix then
      Error "input has impure lambdas; skipping them loses effects"
    else ok

let check_stats_reorder facts =
  (* The statistics themselves cannot make an unsound rewrite sound:
     what licenses swapping two filters is purity alone, which we
     re-derive here on both captured predicates.  The selectivity pair
     is checked for plausibility (probabilities, hoisted no less
     selective) so a buggy cost model cannot log nonsense either. *)
  let found =
    List.find_map
      (function
        | Stats_selectivity (hoisted, demoted, s_h, s_d) ->
          Some
            (if Check_purity.purity hoisted.Expr.body <> Check_purity.Pure
             then
               Error
                 "hoisted predicate applies a host function; reordering \
                  changes effect order"
             else if
               Check_purity.purity demoted.Expr.body <> Check_purity.Pure
             then
               Error
                 "demoted predicate applies a host function; reordering \
                  changes effect order"
             else if
               not
                 (s_h >= 0. && s_h <= 1. && s_d >= 0. && s_d <= 1.
                 && s_h = s_h && s_d = s_d)
             then Error "recorded selectivities are not probabilities"
             else if s_h > s_d then
               Error
                 "hoisted predicate is less selective than the one it \
                  displaced"
             else ok)
        | _ -> None)
      facts
  in
  match found with
  | None -> Error "no selectivity fact recorded"
  | Some r -> r

(* ------------------------------------------------------------------ *)
(* The law table: one entry per optimizer rule. *)

let law rule doc check = { l_rule = rule; l_doc = doc; l_check = check }

let laws =
  [
    law "where-fuse"
      "filter(p); filter(q) = filter(p && q), short-circuit preserved"
      structural;
    law "select-fuse" "map(f); map(g) = map(g . f), f let-bound once"
      structural;
    law "take-take" "take(n); take(m) = take(min n m)" structural;
    law "skip-skip" "skip(n); skip(m) = skip(n+ + m+), clamped at zero"
      structural;
    law "skip-zero" "skip(n), n <= 0, is the identity"
      check_count_nonpos;
    law "take-zero" "take(n), n <= 0, is empty" check_count_nonpos;
    law "where-const-true"
      "a tautological pure filter can be deleted" (check_pred `Always);
    law "where-const-false"
      "an unsatisfiable pure filter yields the empty sequence"
      (check_pred `Never);
    law "where-interval-true"
      "interval analysis proves the pure filter tautological"
      (check_pred `Always);
    law "where-interval-false"
      "interval analysis proves the pure filter unsatisfiable"
      (check_pred `Never);
    law "take-interval-nonpos"
      "interval analysis proves the take count non-positive"
      check_count_nonpos;
    law "take-while-const"
      "a constant pure take-while keeps everything or nothing"
      (check_pred `Either);
    law "skip-while-const"
      "a constant pure skip-while skips nothing or everything"
      (check_pred `Either);
    law "distinct-distinct" "distinct is idempotent" structural;
    law "empty-collapse"
      "an operator fed only by a statically empty source is empty"
      check_input_empty;
    law "rev-rev" "rev is an involution" structural;
    law "distinct-on-distinct-free"
      "distinct over a provably duplicate-free input is the identity"
      check_input_distinct;
    law "orderby-on-sorted"
      "a stable sort of an input already sorted by the same key and \
       direction is the identity"
      check_input_sorted;
    law "nonempty-any-true"
      "Any over a provably non-empty pure input is the constant true"
      check_input_nonempty_pure;
    law "stats-where-reorder"
      "pure filters commute: filter(p); filter(q) = filter(q); filter(p)"
      check_stats_reorder;
    law "quil-rev-rev" "adjacent Reverse sinks cancel" structural;
    law "quil-drop-to-array"
      "a ToArray feeding a rebuffering sink or an aggregate is dead"
      structural;
  ]

let find_law table rule = List.find_opt (fun l -> l.l_rule = rule) table

let obligation_of table ev =
  match find_law table ev.ev_rule with
  | None ->
    {
      o_rule = ev.ev_rule;
      o_ok = false;
      o_detail = "no algebraic law registered for this rule";
    }
  | Some l -> (
    match l.l_check ev.ev_facts with
    | Ok () -> { o_rule = ev.ev_rule; o_ok = true; o_detail = l.l_doc }
    | Error reason -> { o_rule = ev.ev_rule; o_ok = false; o_detail = reason })

(* ------------------------------------------------------------------ *)
(* Whole-plan invariants. *)

let tri_contradicts a b =
  match a, b with
  | Check_flow.Yes, Check_flow.No | Check_flow.No, Check_flow.Yes -> true
  | _ -> false

let itv_disjoint (a : Check_purity.itv) (b : Check_purity.itv) =
  let above (x : Check_purity.itv) (y : Check_purity.itv) =
    match x.Check_purity.lo, y.Check_purity.hi with
    | Some l, Some h -> l > h
    | _ -> false
  in
  above a b || above b a

let flow_obligation (pb : Check_flow.props) (pa : Check_flow.props) =
  let fail detail = { o_rule = "plan:flow-compatible"; o_ok = false; o_detail = detail } in
  if itv_disjoint pb.Check_flow.card pa.Check_flow.card then
    fail
      (Printf.sprintf
         "cardinality bounds are disjoint across the rewrite: %s vs %s"
         (Check_flow.card_string pb.Check_flow.card)
         (Check_flow.card_string pa.Check_flow.card))
  else if tri_contradicts pb.Check_flow.nonempty pa.Check_flow.nonempty then
    fail "emptiness verdicts contradict across the rewrite"
  else if tri_contradicts pb.Check_flow.distinct pa.Check_flow.distinct then
    fail "distinctness verdicts contradict across the rewrite"
  else
    {
      o_rule = "plan:flow-compatible";
      o_ok = true;
      o_detail = "output properties of the optimized plan are consistent";
    }

let effects_obligation before after =
  if after <= before then
    {
      o_rule = "plan:no-new-effects";
      o_ok = true;
      o_detail = "no host-function application site was duplicated";
    }
  else
    {
      o_rule = "plan:no-new-effects";
      o_ok = false;
      o_detail =
        Printf.sprintf
          "optimized plan has %d host-function application sites, the \
           original %d: an effectful lambda was duplicated"
          after before;
    }

(* ------------------------------------------------------------------ *)
(* Entry points. *)

let applies : type r. r Query.root -> int = function
  | Query.Rows q -> Check_flow.applies q
  | Query.Scalar sq -> Check_flow.applies_sq sq

let props : type r. r Query.root -> Check_flow.props = function
  | Query.Rows q -> Check_flow.props q
  | Query.Scalar sq -> Check_flow.scalar_props sq

let validate ?(laws = laws) ~before ~after events =
  List.map (obligation_of laws) events
  @ [
      effects_obligation (applies before) (applies after);
      flow_obligation (props before) (props after);
    ]

let validate_chain ?(laws = laws) ~before ~after events =
  let per_event = List.map (obligation_of laws) events in
  let count_ops (c : Quil.chain) = List.length c.Quil.ops in
  let ops =
    if count_ops after <= count_ops before then
      {
        o_rule = "chain:op-count";
        o_ok = true;
        o_detail = "the chain pass only removes operators";
      }
    else
      {
        o_rule = "chain:op-count";
        o_ok = false;
        o_detail = "the chain pass added operators";
      }
  in
  let pda =
    match Check_pda.accepts after with
    | Ok _ ->
      {
        o_rule = "chain:well-formed";
        o_ok = true;
        o_detail = "the rewritten chain is accepted by the PDA";
      }
    | Error msg ->
      { o_rule = "chain:well-formed"; o_ok = false; o_detail = msg }
  in
  per_event @ [ ops; pda ]

let failures obs =
  List.filter_map
    (fun o ->
      if o.o_ok then None
      else Some (Printf.sprintf "%s: %s" o.o_rule o.o_detail))
    obs

let accepted obs = List.for_all (fun o -> o.o_ok) obs

let obligation_string o =
  Printf.sprintf "%s %-28s %s"
    (if o.o_ok then "ok      " else "REJECTED")
    o.o_rule o.o_detail
