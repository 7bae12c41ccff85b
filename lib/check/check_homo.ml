type verdict =
  | Splittable
  | Blocking of string

type op_info = {
  o_index : int;
  o_label : string;
  o_verdict : verdict;
}

type report = {
  r_ops : op_info list;
  r_prefix : int;
  r_blocker : op_info option;
}

(* Blocking reasons, one phrasing per operator class so diagnostics are
   stable. *)
let positional = "consumes the element's global position, which restarts at 0 in every partition"
let prefix_cut = "keeps a prefix or suffix of the whole sequence, not of each partition"
let stateful_cut = "its cut point depends on all preceding elements of the whole sequence"
let groups = "combines elements from the whole input into per-key groups"

let group_aggs =
  "folds per-key partials of the whole input; not naively splittable, \
   but the parallel layer's dedicated group-aggregate path merges \
   per-partition partial maps instead"
let sorts = "a global sort interleaves elements from every partition"
let dedups = "duplicates may span partition boundaries"
let reverses = "reverses the global order, not each partition's"

(* Whether a collection operator commutes with partitioning its input. *)
let verdict : type a. a Query.t -> verdict = function
  | Query.Select_i _ | Query.Where_i _ -> Blocking positional
  | Query.Take _ | Query.Skip _ -> Blocking prefix_cut
  | Query.Take_while _ | Query.Skip_while _ -> Blocking stateful_cut
  | Query.Group_by _ | Query.Group_by_elem _ -> Blocking groups
  | Query.Group_by_agg _ -> Blocking group_aggs
  | Query.Order_by _ -> Blocking sorts
  | Query.Distinct _ -> Blocking dedups
  | Query.Rev _ -> Blocking reverses
  | Query.Of_array _ | Query.Range _ | Query.Repeat _ | Query.Select _
  | Query.Select_q _ | Query.Where _ | Query.Where_q _ | Query.Select_many _
  | Query.Select_many_result _ | Query.Join _ | Query.Materialize _ ->
    Splittable

type combinability =
  | Combinable of string
  | Not_combinable of string

let rec aggregate_combinability : type s. s Query.sq -> combinability =
  function
  | Query.Sum_int _ -> Combinable "(+)"
  | Query.Sum_float _ -> Combinable "(+.)"
  | Query.Count _ -> Combinable "(+)"
  | Query.Min _ -> Combinable "min"
  | Query.Max _ -> Combinable "max"
  | Query.Min_by _ -> Combinable "min by key"
  | Query.Max_by _ -> Combinable "max by key"
  | Query.Any _ -> Combinable "(||)"
  | Query.Exists _ -> Combinable "(||)"
  | Query.For_all _ -> Combinable "(&&)"
  | Query.Contains _ -> Combinable "(||)"
  | Query.Aggregate _ | Query.Aggregate_full _ ->
    Not_combinable
      "a general fold carries no associativity annotation (section 6 \
       defers such knowledge to user declarations)"
  | Query.Aggregate_combinable _ -> Combinable "user-declared combiner"
  | Query.Average _ -> Combinable "(sum, count) pair"
  | Query.First _ -> Combinable "leftmost non-empty partial"
  | Query.Last _ -> Combinable "rightmost non-empty partial"
  | Query.Element_at _ -> Not_combinable "selects by global element position"
  | Query.Map_scalar (inner, _) ->
    (* The selector applies once, to the merged partial — splittable
       exactly when the underlying aggregate is. *)
    aggregate_combinability inner

(* The top-level operator spine, source first.  Only the outer side of
   joins and flattens is walked — the inner side is re-evaluated per
   outer element, so it does not constrain partitioning — mirroring
   [Par.is_homomorphic] exactly. *)
let rec ops_of : type a. a Query.t -> (string * verdict) list =
 fun q -> spine (Query.input q) @ [ Query.label q, verdict q ]

and scalar_ops : type s. s Query.sq -> (string * verdict) list =
 fun sq ->
  let v =
    match aggregate_combinability sq with
    | Combinable _ -> Splittable
    | Not_combinable reason -> Blocking reason
  in
  spine (Some (Query.sq_input sq)) @ [ Query.sq_label sq, v ]

and spine = function
  | None -> []
  | Some (Query.Plan q) -> ops_of q
  | Some (Query.Plan_sq sq) -> scalar_ops sq

let report_of ops =
  let ops =
    List.mapi
      (fun i (label, v) -> { o_index = i; o_label = label; o_verdict = v })
      ops
  in
  let rec prefix n = function
    | { o_verdict = Splittable; _ } :: rest -> prefix (n + 1) rest
    | _ -> n
  in
  let blocker =
    List.find_opt
      (fun o -> match o.o_verdict with Blocking _ -> true | Splittable -> false)
      ops
  in
  { r_ops = ops; r_prefix = prefix 0 ops; r_blocker = blocker }

let classify q = report_of (ops_of q)

let classify_scalar sq = report_of (scalar_ops sq)

let is_homomorphic q = (classify q).r_blocker = None
