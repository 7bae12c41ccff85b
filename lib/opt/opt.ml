(* Algebraic rewrites over the query AST and the canonicalized QUIL
   chain.  See opt.mli for the rule table.

   Every rewrite is logged as a [Check_equiv.event]: the rule name plus
   the sub-terms whose static facts justified it, captured before they
   are rewritten away.  The engine hands the event log to the
   translation validator after the fixpoint — the optimizer claims, the
   validator re-proves.

   Every rule strictly decreases the operator count (the one scalar
   rule replaces a plan with a two-operator constant), so the per-node
   rule loop and the fixpoint driver both terminate; the fuel bound is
   a belt-and-braces guard, not a load-bearing one. *)

let default_fuel = 32

let rule_names =
  [
    "where-fuse";
    "select-fuse";
    "take-take";
    "skip-skip";
    "skip-zero";
    "take-zero";
    "where-const-true";
    "where-const-false";
    "where-interval-true";
    "where-interval-false";
    "take-interval-nonpos";
    "take-while-const";
    "skip-while-const";
    "distinct-distinct";
    "distinct-on-distinct-free";
    "orderby-on-sorted";
    "rev-rev";
    "nonempty-any-true";
    "empty-collapse";
    "stats-where-reorder";
    "quil-rev-rev";
    "quil-drop-to-array";
  ]

type event = Check_equiv.event = {
  ev_rule : string;
  ev_facts : Check_equiv.fact list;
}

let ev rule facts = { ev_rule = rule; ev_facts = facts }

(* The canonical empty source for an element type.  Empty arrays share
   one runtime representation, so repeated collapses also share a capture
   slot. *)
let empty : type a. a Ty.t -> a Query.t =
 fun ty -> Query.Of_array (ty, Expr.capture (Ty.Array ty) [||])

let empty_like : type a. a Query.t -> a Query.t =
 fun q -> empty (Query.elem_ty q)

(* A source that is statically known to produce no elements. *)
let is_empty : type a. a Query.t -> bool = function
  | Query.Of_array (_, Expr.Capture (_, arr)) -> Array.length arr = 0
  | Query.Range (_, Expr.Const_int n) -> n <= 0
  | Query.Repeat (_, _, Expr.Const_int n) -> n <= 0
  | _ -> false

(* Dead-operator elimination: any operator fed only by an empty source
   produces no elements itself.  (A [Join] is empty as soon as either
   side is; a [Select_many] as soon as the outer or the element-independent
   inner is.) *)
let collapsible q =
  List.exists
    (function Query.Plan c -> is_empty c | Query.Plan_sq _ -> false)
    (Option.to_list (Query.input q) @ Query.nested q)

let pure e = Check_purity.purity e = Check_purity.Pure

(* Test-only rewrite injection: a hook tried before every real rule, so
   the test suite can exercise the translation validator with an
   unsound rewrite that no shipped rule performs. *)
type hook = { h : 'a. 'a Query.t -> ('a Query.t * event) option }

let test_hook : hook option ref = ref None
let set_test_hook h = test_hook := h

(* One rule application at the root of [q], or [None] when no rule
   matches.  Children are assumed already rewritten (the pass below is
   bottom-up). *)
let rewrite_top : type a. a Query.t -> (a Query.t * event) option =
 fun q ->
  match
    match !test_hook with
    | Some { h } -> h q
    | None -> None
  with
  | Some _ as injected -> injected
  | None ->
    if collapsible q then
      Some (empty_like q, ev "empty-collapse" [ Check_equiv.Input_empty q ])
    else (
      match q with
      | Query.Where (q0, p) -> (
        match Expr.simplify p.Expr.body with
        | Expr.Const_bool true when pure p.Expr.body ->
          Some (q0, ev "where-const-true" [ Check_equiv.Pred_true p.Expr.body ])
        | Expr.Const_bool false when pure p.Expr.body ->
          Some
            ( empty (Query.elem_ty q0),
              ev "where-const-false" [ Check_equiv.Pred_false p.Expr.body ] )
        | simplified -> (
        (* The interval analysis decides predicates [simplify] cannot
           normalize syntactically, e.g. [x mod 10 < 10].  Deleting a
           filter also deletes its per-element evaluation, so the
           predicate must be pure. *)
        match
          if pure p.Expr.body then Check_purity.truth simplified
          else Check_purity.Unknown
        with
        | Check_purity.True ->
          Some
            (q0, ev "where-interval-true" [ Check_equiv.Pred_true p.Expr.body ])
        | Check_purity.False ->
          Some
            ( empty (Query.elem_ty q0),
              ev "where-interval-false" [ Check_equiv.Pred_false p.Expr.body ]
            )
        | Check_purity.Unknown -> (
          match q0 with
          | Query.Where (q1, p1) ->
            (* Test p1 then p2 on the same element; [If] keeps the second
               predicate unevaluated when the first already rejected. *)
            let p2_body =
              Expr.subst p.Expr.param (Expr.Var p1.Expr.param) p.Expr.body
            in
            let fused =
              {
                p1 with
                Expr.body =
                  Expr.If (p1.Expr.body, p2_body, Expr.Const_bool false);
              }
            in
            Some (Query.Where (q1, fused), ev "where-fuse" [])
          | _ -> None)))
      | Query.Select (Query.Select (q0, f), g) ->
        (* Bind the intermediate element once, so a selector using its
           parameter twice does not duplicate the upstream computation. *)
        let composed =
          {
            Expr.param = f.Expr.param;
            body = Expr.Let (g.Expr.param, f.Expr.body, g.Expr.body);
          }
        in
        Some (Query.Select (q0, composed), ev "select-fuse" [])
      | Query.Take (q0, Expr.Const_int n) when n <= 0 ->
        Some
          ( empty (Query.elem_ty q0),
            ev "take-zero" [ Check_equiv.Count_nonpos (Expr.Const_int n) ] )
      | Query.Take (q0, n) when Check_purity.always_nonpositive n ->
        Some
          ( empty (Query.elem_ty q0),
            ev "take-interval-nonpos" [ Check_equiv.Count_nonpos n ] )
      | Query.Take (Query.Take (q0, n), m) ->
        let count =
          match n, m with
          | Expr.Const_int a, Expr.Const_int b -> Expr.Const_int (min a b)
          | n, m -> Expr.Prim2 (Prim.Min_int, n, m)
        in
        Some (Query.Take (q0, count), ev "take-take" [])
      | Query.Skip (q0, Expr.Const_int n) when n <= 0 ->
        Some
          (q0, ev "skip-zero" [ Check_equiv.Count_nonpos (Expr.Const_int n) ])
      | Query.Skip (Query.Skip (q0, Expr.Const_int a), Expr.Const_int b) ->
        Some
          ( Query.Skip (q0, Expr.Const_int (max 0 a + max 0 b)),
            ev "skip-skip" [] )
      | Query.Take_while (q0, p) when pure p.Expr.body -> (
        match Expr.simplify p.Expr.body with
        | Expr.Const_bool true ->
          Some (q0, ev "take-while-const" [ Check_equiv.Pred_true p.Expr.body ])
        | Expr.Const_bool false ->
          Some
            ( empty (Query.elem_ty q0),
              ev "take-while-const" [ Check_equiv.Pred_false p.Expr.body ] )
        | _ -> None)
      | Query.Skip_while (q0, p) when pure p.Expr.body -> (
        match Expr.simplify p.Expr.body with
        | Expr.Const_bool false ->
          Some (q0, ev "skip-while-const" [ Check_equiv.Pred_false p.Expr.body ])
        | Expr.Const_bool true ->
          Some
            ( empty (Query.elem_ty q0),
              ev "skip-while-const" [ Check_equiv.Pred_true p.Expr.body ] )
        | _ -> None)
      | Query.Distinct (Query.Distinct q0) ->
        Some (Query.Distinct q0, ev "distinct-distinct" [])
      | Query.Distinct q0
        when (Check_flow.props q0).Check_flow.distinct = Check_flow.Yes ->
        Some
          ( q0,
            ev "distinct-on-distinct-free" [ Check_equiv.Input_distinct q0 ] )
      | Query.Rev (Query.Rev q0) -> Some (q0, ev "rev-rev" [])
      | Query.Order_by (q0, k, dir) when Check_flow.sorted_matching q0 k dir ->
        (* Sound because every backend sorts stably: a stable sort of an
           input already ordered by the same key is the identity. *)
        Some
          (q0, ev "orderby-on-sorted" [ Check_equiv.Input_sorted (q0, k, dir) ])
      | _ -> None)

(* The one scalar-level rule: [Any] over a provably non-empty, pure
   pipeline is the constant [true] (realized as an aggregate over the
   empty source, since scalar queries have no literal constructor). *)
let rewrite_top_sq : type s. s Query.sq -> (s Query.sq * event) option =
 fun sq ->
  match sq with
  | Query.Any q ->
    let p = Check_flow.props q in
    if p.Check_flow.nonempty = Check_flow.Yes && p.Check_flow.pure_prefix then
      let ty = Query.elem_ty q in
      let const_true =
        Query.Aggregate
          ( empty ty,
            Expr.Const_bool true,
            Expr.lam2 "s" Ty.Bool "x" ty (fun s _ -> s) )
      in
      Some
        ( const_true,
          ev "nonempty-any-true" [ Check_equiv.Input_nonempty_pure q ] )
    else None
  | _ -> None

(* Apply rules at this node until none fires.  Terminates: every rule
   strictly decreases the operator count (or, for the scalar rule,
   rewrites to a normal form no rule matches). *)
let rec apply_rules : type a. a Query.t -> event list -> a Query.t * event list
    =
 fun q log ->
  match rewrite_top q with
  | Some (q', e) -> apply_rules q' (log @ [ e ])
  | None -> q, log

let rec apply_rules_sq :
    type s. s Query.sq -> event list -> s Query.sq * event list =
 fun sq log ->
  match rewrite_top_sq sq with
  | Some (sq', e) -> apply_rules_sq sq' (log @ [ e ])
  | None -> sq, log

(* A pass's recursion, one function per AST kind. *)
type rewriter = {
  rq : 'a. 'a Query.t -> 'a Query.t * event list;
  rsq : 's. 's Query.sq -> 's Query.sq * event list;
}

(* A [Query.mapper] rewriting each sub-plan with [r] and appending its
   log to [log], in [Query.map]'s order: the input's events first. *)
let logging log r =
  let sub f x =
    let x, l = f x in
    log := !log @ l;
    x
  in
  { Query.q = (fun q -> sub r.rq q); sq = (fun sq -> sub r.rsq sq) }

let rec pass : type a. a Query.t -> a Query.t * event list =
 fun q ->
  let log = ref [] in
  let q = Query.map (logging log { rq = pass; rsq = pass_sq }) q in
  apply_rules q !log

and pass_sq : type s. s Query.sq -> s Query.sq * event list =
 fun sq ->
  let log = ref [] in
  let sq = Query.map_sq (logging log { rq = pass; rsq = pass_sq }) sq in
  apply_rules_sq sq !log

let run_fix ~fuel step x =
  let rec loop n x acc =
    if n <= 0 then x, acc
    else
      let x', fired = step x in
      if fired = [] then x', acc else loop (n - 1) x' (acc @ fired)
  in
  loop fuel x []

let plan_ev : type r. ?fuel:int -> r Query.root -> r Query.root * event list
    =
 fun ?(fuel = default_fuel) -> function
  | Query.Rows q ->
    let q, evs = run_fix ~fuel pass q in
    Query.Rows q, evs
  | Query.Scalar sq ->
    let sq, evs = run_fix ~fuel pass_sq sq in
    Query.Scalar sq, evs

let names evs = List.map (fun e -> e.ev_rule) evs

let plan ?fuel r =
  let r, evs = plan_ev ?fuel r in
  r, names evs

(* ------------------------------------------------------------------ *)
(* The adaptive (statistics-driven) pass.

   Runs once, after the syntactic fixpoint, and only when the engine
   asks for it ([Config.with_adaptive]).  [where-fuse] has already
   collapsed adjacent filters into one [Where] whose body is a
   short-circuit conjunct chain [If (c1, If (c2, ..., false), false)];
   this pass decomposes the chain, asks the engine-supplied estimator
   for each conjunct's selectivity, and stably re-sorts the conjuncts
   most-selective-first.  Only provably pure conjuncts move — an impure
   chain is left exactly as written.  Every inverted pair is logged as a
   "stats-where-reorder" event carrying a [Stats_selectivity] fact, so
   the translation validator re-derives purity on both predicates and
   sanity-checks the claimed selectivities; statistics influence *which*
   sound plan we pick, never whether a plan is sound.

   With [~split:true] (profiled engines) the conjuncts are rebuilt as a
   stack of single-predicate [Where]s instead of one fused body: each
   gets its own probe point, which is the only way per-conjunct
   selectivities ever become observable.  The split itself changes no
   ordering or short-circuit behavior (it is [where-fuse] read right to
   left) and so carries no event; the whole-plan validator invariants
   still apply. *)

type estimator = { est : 'a. ('a, bool) Expr.lam -> float }

let conjuncts (body : bool Expr.t) : bool Expr.t list =
  let rec go acc = function
    | Expr.If (a, rest, Expr.Const_bool false) -> go (a :: acc) rest
    | last -> List.rev (last :: acc)
  in
  go [] body

let fuse_conjuncts (cs : bool Expr.t list) : bool Expr.t =
  match List.rev cs with
  | [] -> Expr.Const_bool true
  | last :: front ->
    List.fold_left
      (fun acc c -> Expr.If (c, acc, Expr.Const_bool false))
      last front

let reorder_where :
    type a.
    estimator ->
    split:bool ->
    a Query.t ->
    (a, bool) Expr.lam ->
    a Query.t * event list =
 fun e ~split q0 p ->
  let keep = Query.Where (q0, p), [] in
  let cs = conjuncts p.Expr.body in
  if List.length cs < 2 then keep
  else if not (List.for_all pure cs) then keep
  else
    let scored =
      List.mapi (fun i c -> i, c, e.est { p with Expr.body = c }) cs
    in
    let sorted =
      List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b) scored
    in
    let events =
      (* One event per inverted pair: conjunct [u] now runs before a
         conjunct [v] it used to follow. *)
      let arr = Array.of_list sorted in
      let acc = ref [] in
      Array.iteri
        (fun u (iu, cu, su) ->
          Array.iteri
            (fun v (iv, cv, sv) ->
              if u < v && iu > iv then
                acc :=
                  ev "stats-where-reorder"
                    [
                      Check_equiv.Stats_selectivity
                        ( { p with Expr.body = cu },
                          { p with Expr.body = cv },
                          su,
                          sv );
                    ]
                  :: !acc)
            arr)
        arr;
      List.rev !acc
    in
    if events = [] && not split then keep
    else
      let ordered = List.map (fun (_, c, _) -> c) sorted in
      if split then
        let ty = Query.elem_ty q0 in
        let name = p.Expr.param.Expr.name in
        ( List.fold_left
            (fun q c ->
              Query.Where
                (q, Expr.lam name ty (fun x -> Expr.subst p.Expr.param x c)))
            q0 ordered,
          events )
      else
        Query.Where (q0, { p with Expr.body = fuse_conjuncts ordered }), events

let rec adapt :
    type a. estimator -> split:bool -> a Query.t -> a Query.t * event list =
 fun e ~split q ->
  let log = ref [] in
  match Query.map (logging log (adapter e ~split)) q with
  | Query.Where (q0, p) ->
    let q', l = reorder_where e ~split q0 p in
    q', !log @ l
  | q -> q, !log

and adapt_sq :
    type s. estimator -> split:bool -> s Query.sq -> s Query.sq * event list =
 fun e ~split sq ->
  let log = ref [] in
  let sq = Query.map_sq (logging log (adapter e ~split)) sq in
  sq, !log

and adapter e ~split =
  { rq = (fun q -> adapt e ~split q); rsq = (fun sq -> adapt_sq e ~split sq) }

let adaptive_ev : type r.
    estimator -> split:bool -> r Query.root -> r Query.root * event list =
 fun e ~split -> function
  | Query.Rows q ->
    let q, evs = adapt e ~split q in
    Query.Rows q, evs
  | Query.Scalar sq ->
    let sq, evs = adapt_sq e ~split sq in
    Query.Scalar sq, evs

(* ------------------------------------------------------------------ *)
(* The string-level pass over the canonicalized QUIL chain. *)

let chain_ev ?(fuel = default_fuel) (c : Quil.chain) =
  let log = ref [] in
  let fire r = log := !log @ [ ev r [] ] in
  let rec once c =
    let ops = List.map (Quil.map_nested once) c.Quil.ops in
    let rec squash = function
      | Quil.Sink Quil.Reverse_sink :: Quil.Sink Quil.Reverse_sink :: rest ->
        fire "quil-rev-rev";
        squash rest
      | Quil.Sink Quil.To_array_sink
        :: ((Quil.Sink _ | Quil.Agg _) :: _ as rest) ->
        (* The downstream sink rebuffers (or the aggregate folds) the
           whole input anyway, so the intermediate array is dead. *)
        fire "quil-drop-to-array";
        squash rest
      | op :: rest -> op :: squash rest
      | [] -> []
    in
    { c with Quil.ops = squash ops }
  in
  let rec loop n c =
    if n <= 0 then c
    else
      let before = List.length !log in
      let c' = once c in
      if List.length !log = before then c' else loop (n - 1) c'
  in
  let c' = loop fuel c in
  c', !log

let chain ?fuel c =
  let c, evs = chain_ev ?fuel c in
  c, names evs
