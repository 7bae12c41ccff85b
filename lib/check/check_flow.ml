(* Forward abstract interpretation over the query AST.

   Each operator's output is summarized by a small property record —
   cardinality bounds, distinctness, sortedness, emptiness and lambda
   purity — seeded from source literals and the {!Check_purity} interval
   analysis and transferred through every operator.  The optimizer uses
   the properties as side conditions for property-driven rules, the
   translation validator ({!Check_equiv}) re-derives them to discharge
   obligations, and the linter turns them into SC008-SC011 diagnostics.

   Caveat shared with [Opt.is_empty]: a captured array's length is taken
   as a static fact, so the properties (like the rewrites they license)
   specialize the plan to the captured values. *)

type tri =
  | Yes
  | No
  | Maybe

let tri_string = function
  | Yes -> "yes"
  | No -> "no"
  | Maybe -> "maybe"

(* Sortedness is "the sequence is ordered by this key in this direction";
   keys are compared up to alpha-equivalence, so the element type is
   packed away. *)
type skey = Skey : ('a, 'k) Expr.lam * Query.order -> skey

type props = {
  card : Check_purity.itv;
  distinct : tri;
  sorted_by : skey option;
  nonempty : tri;
  pure_prefix : bool;
}

(* ------------------------------------------------------------------ *)
(* Interval helpers over the cardinality domain: intervals are kept in
   clamped form with [lo = Some l, l >= 0]; [hi = None] is unbounded. *)

let itv lo hi = { Check_purity.lo; hi }

let clamp (i : Check_purity.itv) =
  let lo =
    match i.Check_purity.lo with
    | Some l when l > 0 -> Some l
    | _ -> Some 0
  in
  let hi =
    match i.Check_purity.hi with
    | Some h when h < 0 -> Some 0
    | h -> h
  in
  itv lo hi

let lo_of (i : Check_purity.itv) =
  match i.Check_purity.lo with
  | Some l -> max 0 l
  | None -> 0

let hi_of (i : Check_purity.itv) = i.Check_purity.hi
let unknown_card = itv (Some 0) None

(* min of two upper bounds, None = unbounded. *)
let hi_min a b =
  match a, b with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

(* Widening multiplication, as in Check_purity: overflow loses the
   bound. *)
let mul_hi a b =
  match a, b with
  | Some 0, _ | _, Some 0 -> Some 0
  | None, _ | _, None -> None
  | Some a, Some b ->
    let p = a * b in
    if p / a <> b then None else Some p

(* [Take n]: elementwise min. *)
let card_take src n =
  itv (Some (min (lo_of src) (lo_of n))) (hi_min (hi_of src) (hi_of n))

(* [Skip n]: subtract the skip count. *)
let card_skip src n =
  let lo =
    match hi_of n with
    | None -> 0
    | Some h -> max 0 (lo_of src - max 0 h)
  in
  let hi =
    match hi_of src with
    | None -> None
    | Some h -> Some (max 0 (h - lo_of n))
  in
  itv (Some lo) hi

let card_mul a b =
  itv (Some (lo_of a * lo_of b)) (mul_hi (hi_of a) (hi_of b))

(* [Distinct] / [Group_by]: at least one element survives a non-empty
   input; the upper bound is unchanged. *)
let card_squash src = itv (Some (min 1 (lo_of src))) (hi_of src)

let nonempty_of card =
  if lo_of card >= 1 then Yes
  else
    match hi_of card with
    | Some 0 -> No
    | _ -> Maybe

let pure e = Check_purity.purity e = Check_purity.Pure
let pure_lam (l : (_, _) Expr.lam) = pure l.Expr.body
let pure_lam2 (l : (_, _, _) Expr.lam2) = pure l.Expr.body2

let flip = function
  | Query.Ascending -> Query.Descending
  | Query.Descending -> Query.Ascending

let identity_key ty = Skey (Expr.lam "x" ty (fun x -> x), Query.Ascending)

(* Subsequence-forming operators preserve a Yes distinctness verdict but
   can break a No one (the duplicate pair may be filtered out). *)
let distinct_subseq = function
  | Yes -> Yes
  | No | Maybe -> Maybe

let mk ?sorted ?(distinct = Maybe) card ~pure =
  let card = clamp card in
  {
    card;
    distinct;
    sorted_by = sorted;
    nonempty = nonempty_of card;
    pure_prefix = pure;
  }

(* ------------------------------------------------------------------ *)
(* Effectful-lambda census: total number of host-function application
   sites in every expression of the plan.  The translation validator's
   whole-plan invariant demands the optimized plan does not duplicate
   any. *)

let ap e = (Check_purity.census e).Check_purity.c_applies
let ap_lam (l : (_, _) Expr.lam) = ap l.Expr.body
let ap_lam2 (l : (_, _, _) Expr.lam2) = ap l.Expr.body2

let rec applies : type a. a Query.t -> int = function
  | Query.Of_array (_, arr) -> ap arr
  | Query.Range (start, count) -> ap start + ap count
  | Query.Repeat (_, v, count) -> ap v + ap count
  | Query.Select (q, f) -> applies q + ap_lam f
  | Query.Select_i (q, f) -> applies q + ap_lam2 f
  | Query.Select_q (q, _, sq) -> applies q + applies_sq sq
  | Query.Where (q, p) -> applies q + ap_lam p
  | Query.Where_i (q, p) -> applies q + ap_lam2 p
  | Query.Where_q (q, _, sq) -> applies q + applies_sq sq
  | Query.Take (q, n) -> applies q + ap n
  | Query.Skip (q, n) -> applies q + ap n
  | Query.Take_while (q, p) -> applies q + ap_lam p
  | Query.Skip_while (q, p) -> applies q + ap_lam p
  | Query.Select_many (q, _, inner) -> applies q + applies inner
  | Query.Select_many_result (q, _, inner, r) ->
    applies q + applies inner + ap_lam2 r
  | Query.Join (outer, inner, ok, ik, res) ->
    applies outer + applies inner + ap_lam ok + ap_lam ik + ap_lam2 res
  | Query.Group_by (q, k) -> applies q + ap_lam k
  | Query.Group_by_elem (q, k, e) -> applies q + ap_lam k + ap_lam e
  | Query.Group_by_agg (q, k, seed, step) ->
    applies q + ap_lam k + ap seed + ap_lam2 step
  | Query.Order_by (q, k, _) -> applies q + ap_lam k
  | Query.Distinct q -> applies q
  | Query.Rev q -> applies q
  | Query.Materialize q -> applies q

and applies_sq : type s. s Query.sq -> int = function
  | Query.Aggregate (q, seed, step) -> applies q + ap seed + ap_lam2 step
  | Query.Aggregate_full (q, seed, step, res) ->
    applies q + ap seed + ap_lam2 step + ap_lam res
  | Query.Aggregate_combinable (q, seed, step, _) ->
    applies q + ap seed + ap_lam2 step
  | Query.Sum_int q -> applies q
  | Query.Sum_float q -> applies q
  | Query.Count q -> applies q
  | Query.Average q -> applies q
  | Query.Min q -> applies q
  | Query.Max q -> applies q
  | Query.Min_by (q, k) -> applies q + ap_lam k
  | Query.Max_by (q, k) -> applies q + ap_lam k
  | Query.First q -> applies q
  | Query.Last q -> applies q
  | Query.Element_at (q, n) -> applies q + ap n
  | Query.Any q -> applies q
  | Query.Exists (q, p) -> applies q + ap_lam p
  | Query.For_all (q, p) -> applies q + ap_lam p
  | Query.Contains (q, v) -> applies q + ap v
  | Query.Map_scalar (sq, f) -> applies_sq sq + ap_lam f

(* ------------------------------------------------------------------ *)
(* The transfer functions.  [walk] returns the top-level spine
   annotations in source-to-sink order (labels match the linter's) plus
   the final property record; nested sub-queries contribute only their
   summary. *)

let rec walk : type a. a Query.t -> (string * props) list * props =
 fun q ->
  let label = Query.label q in
  let src p = [ label, p ], p in
  let step anns p = anns @ [ label, p ], p in
  match q with
  | Query.Of_array (_, Expr.Capture (_, arr)) ->
    let n = Array.length arr in
    src (mk (Check_purity.exactly n) ~pure:true)
  | Query.Of_array (_, arr) -> src (mk unknown_card ~pure:(pure arr))
  | Query.Range (start, count) ->
    src
      (mk
         (Check_purity.interval count)
         ~sorted:(identity_key Ty.Int) ~distinct:Yes
         ~pure:(pure start && pure count))
  | Query.Repeat (ty, v, count) ->
    let card = clamp (Check_purity.interval count) in
    let distinct =
      match lo_of card, hi_of card with
      | lo, _ when lo >= 2 -> No (* the same value at least twice *)
      | _, Some h when h <= 1 -> Yes
      | _ -> Maybe
    in
    (* A constant run is trivially non-decreasing under any key. *)
    src
      (mk card ~sorted:(identity_key ty) ~distinct ~pure:(pure v && pure count))
  | Query.Select (q0, f) ->
    let anns, s = walk q0 in
    step anns (mk s.card ~pure:(s.pure_prefix && pure_lam f))
  | Query.Select_i (q0, f) ->
    let anns, s = walk q0 in
    step anns (mk s.card ~pure:(s.pure_prefix && pure_lam2 f))
  | Query.Select_q (q0, _, sq) ->
    let anns, s = walk q0 in
    let sp = snd (walk_sq sq) in
    step anns (mk s.card ~pure:(s.pure_prefix && sp.pure_prefix))
  | Query.Where (q0, p) ->
    let anns, s = walk q0 in
    step anns
      (mk
         (itv (Some 0) (hi_of s.card))
         ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && pure_lam p))
  | Query.Where_i (q0, p) ->
    let anns, s = walk q0 in
    step anns
      (mk
         (itv (Some 0) (hi_of s.card))
         ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && pure_lam2 p))
  | Query.Where_q (q0, _, sq) ->
    let anns, s = walk q0 in
    let sp = snd (walk_sq sq) in
    step anns
      (mk
         (itv (Some 0) (hi_of s.card))
         ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && sp.pure_prefix))
  | Query.Take (q0, n) ->
    let anns, s = walk q0 in
    let ni = clamp (Check_purity.interval n) in
    step anns
      (mk (card_take s.card ni) ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && pure n))
  | Query.Skip (q0, n) ->
    let anns, s = walk q0 in
    let ni = clamp (Check_purity.interval n) in
    step anns
      (mk (card_skip s.card ni) ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && pure n))
  | Query.Take_while (q0, p) ->
    let anns, s = walk q0 in
    step anns
      (mk
         (itv (Some 0) (hi_of s.card))
         ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && pure_lam p))
  | Query.Skip_while (q0, p) ->
    let anns, s = walk q0 in
    step anns
      (mk
         (itv (Some 0) (hi_of s.card))
         ?sorted:s.sorted_by
         ~distinct:(distinct_subseq s.distinct)
         ~pure:(s.pure_prefix && pure_lam p))
  | Query.Select_many (q0, _, inner) ->
    let anns, s = walk q0 in
    let si = snd (walk inner) in
    let distinct =
      if s.nonempty = Yes && si.distinct = No then No else Maybe
    in
    step anns
      (mk (card_mul s.card si.card) ~distinct
         ~pure:(s.pure_prefix && si.pure_prefix))
  | Query.Select_many_result (q0, _, inner, r) ->
    let anns, s = walk q0 in
    let si = snd (walk inner) in
    step anns
      (mk (card_mul s.card si.card)
         ~pure:(s.pure_prefix && si.pure_prefix && pure_lam2 r))
  | Query.Join (outer, inner, ok, ik, res) ->
    let anns, so = walk outer in
    let si = snd (walk inner) in
    step anns
      (mk
         (itv (Some 0) (mul_hi (hi_of so.card) (hi_of si.card)))
         ~pure:
           (so.pure_prefix && si.pure_prefix && pure_lam ok && pure_lam ik
          && pure_lam2 res))
  | Query.Group_by (q0, k) ->
    let anns, s = walk q0 in
    step anns
      (mk (card_squash s.card) ~distinct:Yes
         ~pure:(s.pure_prefix && pure_lam k))
  | Query.Group_by_elem (q0, k, e) ->
    let anns, s = walk q0 in
    step anns
      (mk (card_squash s.card) ~distinct:Yes
         ~pure:(s.pure_prefix && pure_lam k && pure_lam e))
  | Query.Group_by_agg (q0, k, seed, step_lam) ->
    let anns, s = walk q0 in
    step anns
      (mk (card_squash s.card) ~distinct:Yes
         ~pure:
           (s.pure_prefix && pure_lam k && pure seed && pure_lam2 step_lam))
  | Query.Order_by (q0, k, dir) ->
    let anns, s = walk q0 in
    step anns
      (mk s.card ~sorted:(Skey (k, dir)) ~distinct:s.distinct
         ~pure:(s.pure_prefix && pure_lam k))
  | Query.Distinct q0 ->
    let anns, s = walk q0 in
    step anns
      (mk (card_squash s.card) ~distinct:Yes ?sorted:s.sorted_by
         ~pure:s.pure_prefix)
  | Query.Rev q0 ->
    let anns, s = walk q0 in
    let sorted =
      match s.sorted_by with
      | Some (Skey (k, dir)) -> Some (Skey (k, flip dir))
      | None -> None
    in
    step anns (mk s.card ?sorted ~distinct:s.distinct ~pure:s.pure_prefix)
  | Query.Materialize q0 ->
    let anns, s = walk q0 in
    step anns
      (mk s.card ?sorted:s.sorted_by ~distinct:s.distinct ~pure:s.pure_prefix)

(* Scalar queries produce exactly one value; the record mostly carries
   the purity verdict (the collection prefix plus the aggregate's own
   lambdas) for the validator and linter. *)
and walk_sq : type s. s Query.sq -> (string * props) list * props =
 fun sq ->
  let label = Query.sq_label sq in
  let one q extra_pure =
    let anns, s = walk q in
    let p =
      mk (Check_purity.exactly 1) ~distinct:Yes
        ~pure:(s.pure_prefix && extra_pure)
    in
    anns @ [ label, p ], p
  in
  match sq with
  | Query.Aggregate (q, seed, step) ->
    one q (pure seed && pure_lam2 step)
  | Query.Aggregate_full (q, seed, step, res) ->
    one q (pure seed && pure_lam2 step && pure_lam res)
  | Query.Aggregate_combinable (q, seed, step, _) ->
    one q (pure seed && pure_lam2 step)
  | Query.Sum_int q -> one q true
  | Query.Sum_float q -> one q true
  | Query.Count q -> one q true
  | Query.Average q -> one q true
  | Query.Min q -> one q true
  | Query.Max q -> one q true
  | Query.Min_by (q, k) -> one q (pure_lam k)
  | Query.Max_by (q, k) -> one q (pure_lam k)
  | Query.First q -> one q true
  | Query.Last q -> one q true
  | Query.Element_at (q, n) -> one q (pure n)
  | Query.Any q -> one q true
  | Query.Exists (q, p) -> one q (pure_lam p)
  | Query.For_all (q, p) -> one q (pure_lam p)
  | Query.Contains (q, v) -> one q (pure v)
  | Query.Map_scalar (sq0, f) ->
    let anns, s = walk_sq sq0 in
    let p =
      mk (Check_purity.exactly 1) ~distinct:Yes
        ~pure:(s.pure_prefix && pure_lam f)
    in
    anns @ [ label, p ], p

let props q = snd (walk q)
let scalar_props sq = snd (walk_sq sq)
let annotate q = fst (walk q)
let annotate_scalar sq = fst (walk_sq sq)

let statically_empty q =
  match hi_of (props q).card with
  | Some 0 -> true
  | _ -> false

(* [q] is provably sorted by [key]/[dir] (up to alpha-equivalence of the
   key selector). *)
let sorted_matching q (key : (_, _) Expr.lam) dir =
  match (props q).sorted_by with
  | Some (Skey (k, d)) -> d = dir && Expr.alpha_equal_lam k key
  | None -> false

(* ------------------------------------------------------------------ *)
(* Rendering, for explain output and the verify CLI. *)

let card_string (i : Check_purity.itv) =
  match i.Check_purity.lo, i.Check_purity.hi with
  | Some l, Some h when l = h -> string_of_int l
  | lo, hi ->
    let b = function
      | Some n -> string_of_int n
      | None -> "*"
    in
    Printf.sprintf "[%s,%s]" (b lo) (b hi)

let props_string p =
  let sorted =
    match p.sorted_by with
    | None -> "-"
    | Some (Skey (_, Query.Ascending)) -> "asc"
    | Some (Skey (_, Query.Descending)) -> "desc"
  in
  Printf.sprintf "card=%s distinct=%s sorted=%s nonempty=%s pure=%s"
    (card_string p.card) (tri_string p.distinct) sorted
    (tri_string p.nonempty)
    (if p.pure_prefix then "yes" else "no")
