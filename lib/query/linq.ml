module E = Enumerable
module Open = Expr.Open

(* A staging-time hook around every top-level operator's output: the
   engine's profile mode supplies a wrapper that allocates a probe point
   per operator (the [string] is the operator label, consumed once at
   staging) and decorates the staged enumerable.  [unprobed] is the
   identity, so the normal path pays nothing per element. *)
type wrapper = { wrap : 'x. string -> 'x E.t -> 'x E.t }

let unprobed = { wrap = (fun _ e -> e) }

(* Nested sub-queries (the inner side of SelectMany / Join and
   quantifier subqueries) open their own chains per outer element; their
   operators are not points of the top-level plan, so they stage
   unprobed and their cost shows up in the enclosing operator's row
   counts and time. *)
let rec stage_probed : type a. wrapper -> a Query.t -> Open.env -> a E.t =
 fun w node ->
  let label = Query.label node in
  match node with
  | Query.Of_array (_, arr) ->
    let farr = Open.compile arr in
    let wr = w.wrap label in
    fun env -> wr (E.of_array (farr env))
  | Query.Range (start, count) ->
    let fs = Open.compile start and fc = Open.compile count in
    let wr = w.wrap label in
    fun env -> wr (E.range (fs env) (fc env))
  | Query.Repeat (_, v, count) ->
    let fv = Open.compile v and fc = Open.compile count in
    let wr = w.wrap label in
    fun env -> wr (E.repeat (fv env) (fc env))
  | Query.Select (q, lam) ->
    let src = stage_probed w q and f = Open.compile_lam lam in
    let wr = w.wrap label in
    fun env -> wr (E.select (f env) (src env))
  | Query.Select_i (q, lam2) ->
    let src = stage_probed w q and f = Open.compile_lam2 lam2 in
    let wr = w.wrap label in
    fun env -> wr (E.select_i (f env) (src env))
  | Query.Select_q (q, v, sq) ->
    let src = stage_probed w q and fsq = stage_sq_probed unprobed sq in
    let wr = w.wrap label in
    fun env -> wr (E.select (fun x -> fsq (Open.bind v x env)) (src env))
  | Query.Where (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    let wr = w.wrap label in
    fun env -> wr (E.where (p env) (src env))
  | Query.Where_i (q, lam2) ->
    let src = stage_probed w q and p = Open.compile_lam2 lam2 in
    let wr = w.wrap label in
    fun env -> wr (E.where_i (p env) (src env))
  | Query.Where_q (q, v, sq) ->
    let src = stage_probed w q and fsq = stage_sq_probed unprobed sq in
    let wr = w.wrap label in
    fun env -> wr (E.where (fun x -> fsq (Open.bind v x env)) (src env))
  | Query.Take (q, n) ->
    let src = stage_probed w q and fn = Open.compile n in
    let wr = w.wrap label in
    fun env -> wr (E.take (fn env) (src env))
  | Query.Skip (q, n) ->
    let src = stage_probed w q and fn = Open.compile n in
    let wr = w.wrap label in
    fun env -> wr (E.skip (fn env) (src env))
  | Query.Take_while (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    let wr = w.wrap label in
    fun env -> wr (E.take_while (p env) (src env))
  | Query.Skip_while (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    let wr = w.wrap label in
    fun env -> wr (E.skip_while (p env) (src env))
  | Query.Select_many (q, v, inner) ->
    let src = stage_probed w q and finner = stage_probed unprobed inner in
    let wr = w.wrap label in
    fun env ->
      wr (E.select_many (fun x -> finner (Open.bind v x env)) (src env))
  | Query.Select_many_result (q, v, inner, lam2) ->
    let src = stage_probed w q
    and finner = stage_probed unprobed inner
    and fres = Open.compile_lam2 lam2 in
    let wr = w.wrap label in
    fun env ->
      wr
        (E.select_many_result
           (fun x -> finner (Open.bind v x env))
           (fres env) (src env))
  | Query.Join (outer, inner, ok, ik, res) ->
    let fouter = stage_probed w outer
    and finner = stage_probed unprobed inner
    and fok = Open.compile_lam ok
    and fik = Open.compile_lam ik
    and fres = Open.compile_lam2 res in
    let wr = w.wrap label in
    fun env ->
      wr (E.join (fok env) (fik env) (fres env) (fouter env) (finner env))
  | Query.Group_by (q, key) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    let wr = w.wrap label in
    fun env -> wr (E.group_by (fkey env) (src env))
  | Query.Group_by_elem (q, key, elem) ->
    let src = stage_probed w q
    and fkey = Open.compile_lam key
    and felem = Open.compile_lam elem in
    let wr = w.wrap label in
    fun env -> wr (E.group_by_elem (fkey env) (felem env) (src env))
  | Query.Group_by_agg (q, key, seed, step) ->
    let src = stage_probed w q
    and fkey = Open.compile_lam key
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step in
    let wr = w.wrap label in
    fun env ->
      wr
        (E.of_fun (fun () ->
             let seed = fseed env in
             let step = fstep env in
             let key = fkey env in
             let agg = Lookup.Agg.create ~seed () in
             E.iter
               (fun x -> Lookup.Agg.update agg (key x) (fun s -> step s x))
               (src env);
             Iterator.of_array (Lookup.Agg.entries agg)))
  | Query.Order_by (q, key, Query.Ascending) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    let wr = w.wrap label in
    fun env -> wr (E.order_by (fkey env) (src env))
  | Query.Order_by (q, key, Query.Descending) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    let wr = w.wrap label in
    fun env -> wr (E.order_by_descending (fkey env) (src env))
  | Query.Distinct q ->
    let src = stage_probed w q in
    let wr = w.wrap label in
    fun env -> wr (E.distinct (src env))
  | Query.Rev q ->
    let src = stage_probed w q in
    let wr = w.wrap label in
    fun env -> wr (E.reverse (src env))
  | Query.Materialize q ->
    let src = stage_probed w q in
    let wr = w.wrap label in
    fun env ->
      wr (E.of_fun (fun () -> Iterator.of_array (E.to_array (src env))))

and stage_sq_probed : type s. wrapper -> s Query.sq -> Open.env -> s =
 fun w -> function
  | Query.Aggregate (q, seed, step) ->
    let src = stage_probed w q
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step in
    fun env -> E.aggregate (fseed env) (fstep env) (src env)
  | Query.Aggregate_combinable (q, seed, step, _) ->
    (* Sequentially the combiner is unused: fold as a plain Aggregate. *)
    let src = stage_probed w q
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step in
    fun env -> E.aggregate (fseed env) (fstep env) (src env)
  | Query.Aggregate_full (q, seed, step, result) ->
    let src = stage_probed w q
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step
    and fres = Open.compile_lam result in
    fun env ->
      E.aggregate_result (fseed env) (fstep env) (fres env) (src env)
  | Query.Sum_int q ->
    let src = stage_probed w q in
    fun env -> E.sum_int (src env)
  | Query.Sum_float q ->
    let src = stage_probed w q in
    fun env -> E.sum_float (src env)
  | Query.Count q ->
    let src = stage_probed w q in
    fun env -> E.count (src env)
  | Query.Average q ->
    let src = stage_probed w q in
    fun env -> E.average (src env)
  | Query.Min q ->
    let src = stage_probed w q in
    fun env -> E.min_elt (src env)
  | Query.Max q ->
    let src = stage_probed w q in
    fun env -> E.max_elt (src env)
  | Query.Min_by (q, key) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    fun env -> E.min_by (fkey env) (src env)
  | Query.Max_by (q, key) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    fun env -> E.max_by (fkey env) (src env)
  | Query.First q ->
    let src = stage_probed w q in
    fun env -> E.first (src env)
  | Query.Last q ->
    let src = stage_probed w q in
    fun env -> E.last (src env)
  | Query.Element_at (q, n) ->
    let src = stage_probed w q and fn = Open.compile n in
    fun env -> E.element_at (fn env) (src env)
  | Query.Any q ->
    let src = stage_probed w q in
    fun env -> E.any (src env)
  | Query.Exists (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    fun env -> E.exists (p env) (src env)
  | Query.For_all (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    fun env -> E.for_all (p env) (src env)
  | Query.Contains (q, v) ->
    let src = stage_probed w q and fv = Open.compile v in
    fun env -> E.contains (fv env) (src env)
  | Query.Map_scalar (sq, lam) ->
    let fsq = stage_sq_probed w sq and f = Open.compile_lam lam in
    fun env -> f env (fsq env)

let stage q = stage_probed unprobed q

let stage_sq sq = stage_sq_probed unprobed sq

let run q = stage q Open.empty

let run_sq sq = stage_sq sq Open.empty

let to_array q = E.to_array (run q)

let to_list q = E.to_list (run q)
