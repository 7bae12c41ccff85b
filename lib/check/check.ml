module Pda = Check_pda
module Purity = Check_purity
module Homo = Check_homo
module Flow = Check_flow
module Equiv = Check_equiv

type severity =
  | Error
  | Warning
  | Hint

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

type diagnostic = {
  d_code : string;
  d_rule : string;
  d_severity : severity;
  d_index : int;
  d_op : string;
  d_message : string;
}

type rule = {
  r_code : string;
  r_name : string;
  r_severity : severity;
  r_doc : string;
}

let rules =
  [
    {
      r_code = "SC000";
      r_name = "malformed-chain";
      r_severity = Error;
      r_doc =
        "the lowered QUIL chain is rejected by the well-formedness PDA \
         (internal invariant; a builder bug)";
    };
    {
      r_code = "SC001";
      r_name = "opaque-lambda";
      r_severity = Warning;
      r_doc =
        "a lambda applies a captured host function, so no backend can \
         inline or rewrite through it";
    };
    {
      r_code = "SC002";
      r_name = "unsplittable-suffix";
      r_severity = Hint;
      r_doc =
        "the first operator that breaks the homomorphic prefix required \
         for partitioned execution (section 6)";
    };
    {
      r_code = "SC003";
      r_name = "redundant-sort-reverse";
      r_severity = Hint;
      r_doc =
        "Rev directly after OrderBy; flipping the sort direction saves a \
         sink";
    };
    {
      r_code = "SC004";
      r_name = "where-after-take-semantics";
      r_severity = Warning;
      r_doc =
        "a filter after Take/Skip applies to the truncated sequence — a \
         frequent intent bug";
    };
    {
      r_code = "SC005";
      r_name = "groupby-without-agg-specialization";
      r_severity = Hint;
      r_doc =
        "plain GroupBy materializes per-key bags; group_by_agg \
         specializes to GroupByAggregate (section 4.3)";
    };
    {
      r_code = "SC006";
      r_name = "const-division-by-zero";
      r_severity = Error;
      r_doc = "an integer division whose divisor is provably zero";
    };
    {
      r_code = "SC007";
      r_name = "aggregate-on-empty";
      r_severity = Error;
      r_doc =
        "an aggregate that requires a non-empty input over a statically \
         empty source";
    };
    {
      r_code = "SC008";
      r_name = "redundant-distinct";
      r_severity = Hint;
      r_doc =
        "Distinct over an input the flow analysis proves duplicate-free; \
         the operator is a no-op";
    };
    {
      r_code = "SC009";
      r_name = "sort-discarded-by-resort";
      r_severity = Warning;
      r_doc =
        "OrderBy directly over OrderBy: the earlier sort survives only as \
         a stable-sort tie-break — a frequent multi-key-ordering intent \
         bug";
    };
    {
      r_code = "SC010";
      r_name = "statically-empty-plan";
      r_severity = Warning;
      r_doc =
        "the cardinality analysis bounds the plan's output at zero \
         elements: every run produces nothing";
    };
    {
      r_code = "SC011";
      r_name = "impure-lambda-in-splittable-prefix";
      r_severity = Hint;
      r_doc =
        "an opaque lambda sits inside the homomorphic prefix: partitioned \
         execution would reorder or parallelize its host-function calls";
    };
    {
      r_code = "SC012";
      r_name = "rejected-rewrite";
      r_severity = Error;
      r_doc =
        "the translation validator could not discharge a proof obligation \
         for an optimizer rewrite; the optimized plan was rejected \
         (internal invariant; an optimizer bug)";
    };
  ]

let rule_of_code code = List.find (fun r -> r.r_code = code) rules

let diag code i op msg =
  let r = rule_of_code code in
  {
    d_code = code;
    d_rule = r.r_name;
    d_severity = r.r_severity;
    d_index = i;
    d_op = op;
    d_message = msg;
  }

let errors ds = List.filter (fun d -> d.d_severity = Error) ds

let to_string d =
  if d.d_index < 0 then
    Printf.sprintf "%s %s [chain] %s" d.d_code
      (severity_string d.d_severity)
      d.d_message
  else
    Printf.sprintf "%s %s [%d:%s] %s" d.d_code
      (severity_string d.d_severity)
      d.d_index d.d_op d.d_message

let render = function
  | [] -> "(none)\n"
  | ds -> String.concat "" (List.map (fun d -> to_string d ^ "\n") ds)

let sort_diagnostics ds =
  List.sort
    (fun a b ->
      match compare a.d_index b.d_index with
      | 0 -> (
        match compare a.d_code b.d_code with
        | 0 -> compare a.d_message b.d_message
        | c -> c)
      | c -> c)
    ds

(* Fixed message texts, so diagnostics are stable across runs and usable
   as goldens. *)

let sc001_msg n =
  Printf.sprintf
    "lambda contains %d host-function application%s: native codegen \
     cannot inline it (one indirect call per element) and rewrites must \
     treat it as opaque"
    n
    (if n = 1 then "" else "s")

let sc003_msg =
  "Rev directly after OrderBy: flip the sort direction instead and drop \
   the Rev sink"

let sc004_msg =
  "Where after Take/Skip filters the already-truncated sequence; reorder \
   the operators if the predicate is meant to apply first (the results \
   differ)"

let sc005_msg =
  "GroupBy materializes a bag of elements per key; when each group is \
   only aggregated, group_by_agg specializes to the GroupByAggregate \
   sink (section 4.3) with O(1) state per key"

let sc006_msg n =
  Printf.sprintf
    "%d division site%s with a provably zero divisor: evaluating this \
     expression raises Division_by_zero"
    n
    (if n = 1 then "" else "s")

let sc007_msg =
  "this aggregate requires a non-empty input, but its source is \
   statically empty: every run raises"

let sc008_msg =
  "Distinct over an input that is provably duplicate-free: the operator \
   pays a hash table per run and removes nothing (the optimizer drops \
   it)"

let sc009_msg =
  "OrderBy directly over OrderBy: the earlier sort survives only as a \
   stable-sort tie-break; sort once by a composite key if multi-key \
   ordering is intended"

let sc010_msg =
  "the plan is statically empty (cardinality upper bound is zero \
   elements): every run produces nothing"

let sc011_msg =
  "an opaque lambda inside the splittable prefix: partitioned execution \
   would reorder or parallelize its host-function calls"

(* A source that can be proven to yield no elements, transitively (all
   operators preserve emptiness; [Take] of a non-positive count creates
   it). *)
let rec provably_empty : type a. a Query.t -> bool = function
  | Query.Of_array (_, Expr.Capture (_, arr)) -> Array.length arr = 0
  | Query.Of_array (_, _) -> false
  | Query.Range (_, count) -> Check_purity.always_nonpositive count
  | Query.Repeat (_, _, count) -> Check_purity.always_nonpositive count
  | Query.Take (q, n) ->
    provably_empty q || Check_purity.always_nonpositive n
  | q ->
    List.exists
      (function Query.Plan c -> provably_empty c | Query.Plan_sq _ -> false)
      (Option.to_list (Query.input q) @ Query.nested q)

(* Expression-level checks, attached to the operator embedding the
   expression. *)
let check_expr : type b. (diagnostic -> unit) -> int -> string -> b Expr.t -> unit =
 fun emit i label e ->
  let c = Check_purity.census e in
  if c.Check_purity.c_applies > 0 then
    emit (diag "SC001" i label (sc001_msg c.Check_purity.c_applies));
  let z = Check_purity.zero_division_sites e in
  if z > 0 then emit (diag "SC006" i label (sc006_msg z))

let check_lam emit i label (l : (_, _) Expr.lam) =
  check_expr emit i label l.Expr.body

let check_lam2 emit i label (l : (_, _, _) Expr.lam2) =
  check_expr emit i label l.Expr.body2

(* The linter walk.  Returns the number of operators in the top-level
   spine; an operator's index is the count of operators upstream of it
   (0 = source), matching the profile points' convention.  Diagnostics
   from nested sub-queries are re-attached to the embedding operator's
   position with a marked message. *)
let rec collect_q : type a. (diagnostic -> unit) -> a Query.t -> int =
 fun emit q ->
  let label = Query.label q in
  let nested i lint =
    lint (fun d ->
        emit
          {
            d with
            d_index = i;
            d_op = label;
            d_message = "in nested sub-query: " ^ d.d_message;
          })
  in
  match q with
  | Query.Of_array (_, arr) ->
    check_expr emit 0 label arr;
    1
  | Query.Range (start, count) ->
    check_expr emit 0 label start;
    check_expr emit 0 label count;
    1
  | Query.Repeat (_, v, count) ->
    check_expr emit 0 label v;
    check_expr emit 0 label count;
    1
  | Query.Select (q0, f) ->
    let i = collect_q emit q0 in
    check_lam emit i label f;
    i + 1
  | Query.Select_i (q0, f) ->
    let i = collect_q emit q0 in
    check_lam2 emit i label f;
    i + 1
  | Query.Select_q (q0, _, sq) ->
    let i = collect_q emit q0 in
    nested i (fun em -> ignore (collect_sq em sq));
    i + 1
  | Query.Where (q0, p) ->
    let i = collect_q emit q0 in
    check_lam emit i label p;
    (match q0 with
    | Query.Take _ | Query.Skip _ | Query.Take_while _ | Query.Skip_while _
      ->
      emit (diag "SC004" i label sc004_msg)
    | _ -> ());
    i + 1
  | Query.Where_i (q0, p) ->
    let i = collect_q emit q0 in
    check_lam2 emit i label p;
    i + 1
  | Query.Where_q (q0, _, sq) ->
    let i = collect_q emit q0 in
    nested i (fun em -> ignore (collect_sq em sq));
    i + 1
  | Query.Take (q0, n) ->
    let i = collect_q emit q0 in
    check_expr emit i label n;
    i + 1
  | Query.Skip (q0, n) ->
    let i = collect_q emit q0 in
    check_expr emit i label n;
    i + 1
  | Query.Take_while (q0, p) ->
    let i = collect_q emit q0 in
    check_lam emit i label p;
    i + 1
  | Query.Skip_while (q0, p) ->
    let i = collect_q emit q0 in
    check_lam emit i label p;
    i + 1
  | Query.Select_many (q0, _, inner) ->
    let i = collect_q emit q0 in
    nested i (fun em -> ignore (collect_q em inner));
    i + 1
  | Query.Select_many_result (q0, _, inner, r) ->
    let i = collect_q emit q0 in
    nested i (fun em -> ignore (collect_q em inner));
    check_lam2 emit i label r;
    i + 1
  | Query.Join (outer, inner, ok, ik, res) ->
    let i = collect_q emit outer in
    nested i (fun em -> ignore (collect_q em inner));
    check_lam emit i label ok;
    check_lam emit i label ik;
    check_lam2 emit i label res;
    i + 1
  | Query.Group_by (q0, k) ->
    let i = collect_q emit q0 in
    check_lam emit i label k;
    emit (diag "SC005" i label sc005_msg);
    i + 1
  | Query.Group_by_elem (q0, k, e) ->
    let i = collect_q emit q0 in
    check_lam emit i label k;
    check_lam emit i label e;
    emit (diag "SC005" i label sc005_msg);
    i + 1
  | Query.Group_by_agg (q0, k, seed, step) ->
    let i = collect_q emit q0 in
    check_lam emit i label k;
    check_expr emit i label seed;
    check_lam2 emit i label step;
    i + 1
  | Query.Order_by (q0, k, _) ->
    let i = collect_q emit q0 in
    check_lam emit i label k;
    (match q0 with
    | Query.Order_by _ -> emit (diag "SC009" i label sc009_msg)
    | _ -> ());
    i + 1
  | Query.Distinct q0 ->
    let i = collect_q emit q0 in
    if (Check_flow.props q0).Check_flow.distinct = Check_flow.Yes then
      emit (diag "SC008" i label sc008_msg);
    i + 1
  | Query.Rev q0 ->
    let i = collect_q emit q0 in
    (match q0 with
    | Query.Order_by _ -> emit (diag "SC003" i label sc003_msg)
    | _ -> ());
    i + 1
  | Query.Materialize q0 -> collect_q emit q0 + 1

and collect_sq : type s. (diagnostic -> unit) -> s Query.sq -> int =
 fun emit sq ->
  let label = Query.sq_label sq in
  let nonempty_agg i q =
    if provably_empty q then emit (diag "SC007" i label sc007_msg)
  in
  match sq with
  | Query.Aggregate (q, seed, step) ->
    let i = collect_q emit q in
    check_expr emit i label seed;
    check_lam2 emit i label step;
    i + 1
  | Query.Aggregate_full (q, seed, step, res) ->
    let i = collect_q emit q in
    check_expr emit i label seed;
    check_lam2 emit i label step;
    check_lam emit i label res;
    i + 1
  | Query.Aggregate_combinable (q, seed, step, _) ->
    let i = collect_q emit q in
    check_expr emit i label seed;
    check_lam2 emit i label step;
    i + 1
  | Query.Sum_int q -> collect_q emit q + 1
  | Query.Sum_float q -> collect_q emit q + 1
  | Query.Count q -> collect_q emit q + 1
  | Query.Average q ->
    let i = collect_q emit q in
    nonempty_agg i q;
    i + 1
  | Query.Min q ->
    let i = collect_q emit q in
    nonempty_agg i q;
    i + 1
  | Query.Max q ->
    let i = collect_q emit q in
    nonempty_agg i q;
    i + 1
  | Query.Min_by (q, k) ->
    let i = collect_q emit q in
    check_lam emit i label k;
    nonempty_agg i q;
    i + 1
  | Query.Max_by (q, k) ->
    let i = collect_q emit q in
    check_lam emit i label k;
    nonempty_agg i q;
    i + 1
  | Query.First q ->
    let i = collect_q emit q in
    nonempty_agg i q;
    i + 1
  | Query.Last q ->
    let i = collect_q emit q in
    nonempty_agg i q;
    i + 1
  | Query.Element_at (q, n) ->
    let i = collect_q emit q in
    check_expr emit i label n;
    nonempty_agg i q;
    i + 1
  | Query.Any q -> collect_q emit q + 1
  | Query.Exists (q, p) ->
    let i = collect_q emit q in
    check_lam emit i label p;
    i + 1
  | Query.For_all (q, p) ->
    let i = collect_q emit q in
    check_lam emit i label p;
    i + 1
  | Query.Contains (q, v) ->
    let i = collect_q emit q in
    check_expr emit i label v;
    i + 1
  | Query.Map_scalar (inner, f) ->
    let i = collect_sq emit inner in
    check_lam emit i label f;
    i + 1

let sc002_of (report : Check_homo.report) =
  match report.Check_homo.r_blocker with
  | None -> []
  | Some b ->
    let reason =
      match b.Check_homo.o_verdict with
      | Check_homo.Blocking r -> r
      | Check_homo.Splittable -> "unknown"
    in
    [
      diag "SC002" b.Check_homo.o_index b.Check_homo.o_label
        (Printf.sprintf
           "the homomorphic prefix covers %d of %d operators; this \
            operator blocks partition splitting: %s"
           report.Check_homo.r_prefix
           (List.length report.Check_homo.r_ops)
           reason);
    ]

(* SC011 piggybacks on the SC001 walk: an opaque lambda is a parallelism
   hazard exactly when its operator sits inside the homomorphic prefix
   partitioned execution would split. *)
let sc011_of (report : Check_homo.report) ds =
  List.filter_map
    (fun d ->
      if d.d_code = "SC001" && d.d_index < report.Check_homo.r_prefix then
        Some (diag "SC011" d.d_index d.d_op sc011_msg)
      else None)
    ds

let query q =
  let acc = ref [] in
  ignore (collect_q (fun d -> acc := d :: !acc) q);
  let report = Check_homo.classify q in
  let whole_plan =
    if Check_flow.statically_empty q then
      let label =
        match Check_flow.annotate q with
        | (l, _) :: _ -> l
        | [] -> "source"
      in
      [ diag "SC010" 0 label sc010_msg ]
    else []
  in
  sort_diagnostics
    (sc002_of report @ sc011_of report !acc @ whole_plan @ !acc)

let scalar sq =
  let acc = ref [] in
  ignore (collect_sq (fun d -> acc := d :: !acc) sq);
  let report = Check_homo.classify_scalar sq in
  sort_diagnostics (sc002_of report @ sc011_of report !acc @ !acc)

(* {2 Chain well-formedness} *)

exception Malformed_chain of string

let verify chain =
  match Check_pda.accepts chain with
  | Ok _ -> Ok ()
  | Error _ as e -> e

let assert_well_formed chain =
  match Check_pda.accepts chain with
  | Ok _ -> ()
  | Error msg -> raise (Malformed_chain msg)

let malformed msg =
  diag "SC000" (-1) "chain"
    (Printf.sprintf "the lowered QUIL chain is malformed: %s" msg)

let rejected_rewrite detail =
  diag "SC012" (-1) "plan"
    (Printf.sprintf
       "translation validation rejected the optimized plan: %s" detail)
