type 'a partitioned = 'a array array

let partition ~parts arr =
  if parts <= 0 then invalid_arg "Par.partition: parts must be positive";
  let n = Array.length arr in
  (* Never emit more partitions than rows: an empty trailing partition
     costs a full engine run and a spurious empty partial.  An empty
     input still yields one (empty) partition. *)
  let parts = max 1 (min parts n) in
  Array.init parts (fun p ->
      let lo = p * n / parts in
      let hi = (p + 1) * n / parts in
      Array.sub arr lo (hi - lo))

let concat parts = Array.concat (Array.to_list parts)

let engine_of = function
  | Some e -> e
  | None -> Steno.default_engine ()

(* Upper bounds suited to partition row counts rather than the
   millisecond-scale default buckets. *)
let row_buckets = Metrics.log_buckets ~base:4.0 ~lo:1.0 ~hi:1e9 ()

(* One vertex per partition, each under a "partition" span so per-domain
   timings reach the caller's trace, and recorded in the engine's metrics
   registry: rows fed to each partition, the wait between job submission
   and a worker picking the partition up, and the partition's wall
   time. *)
let traced_task ~eng f parts =
  let m = Steno.Engine.metrics eng in
  let rows_h =
    Metrics.histogram m "steno_partition_rows"
      ~help:"Input rows per partition" ~buckets:row_buckets
  in
  let wait_h =
    Metrics.histogram m "steno_partition_queue_wait_ms"
      ~help:"Delay between partition submission and a worker starting it"
  in
  let time_h =
    Metrics.histogram m "steno_partition_ms"
      ~help:"Wall time of one partition's execution (milliseconds)"
  in
  let submit_ms = Telemetry.now_ms () in
  fun i ->
    let start_ms = Telemetry.now_ms () in
    Metrics.observe rows_h (float_of_int (Array.length parts.(i)));
    Metrics.observe wait_h (max 0.0 (start_ms -. submit_ms));
    let r =
      Trace.with_span (Steno.Engine.tracer eng) "partition"
        ~attrs:[ "index", string_of_int i ]
        (fun () -> f parts.(i))
    in
    Metrics.observe time_h (max 0.0 (Telemetry.now_ms () -. start_ms));
    r

(* The caller's trace context travels with the tasks, so the partitions
   that worker domains run land in the same trace. *)
let map_partitions_traced ~eng ~workers f parts =
  Domain_pool.run ?ctx:(Trace.current ()) ~workers ~tasks:(Array.length parts)
    (traced_task ~eng f parts)

let map_partitions_until ~eng ~workers ~stop f parts =
  Domain_pool.run_until ?ctx:(Trace.current ()) ~workers
    ~tasks:(Array.length parts) ~stop
    (traced_task ~eng f parts)

(* The trailing Agg* of Fig. 12, timed: an "agg-merge" span in the trace
   and a [steno_agg_merge_ms] observation on the metrics side. *)
let merge_partials ~eng ~count merge =
  let m = Steno.Engine.metrics eng in
  let merge_h =
    Metrics.histogram m "steno_agg_merge_ms"
      ~help:"Wall time of the Agg* combining step (milliseconds)"
  in
  let t0 = Telemetry.now_ms () in
  let r =
    Trace.with_span (Steno.Engine.tracer eng) "agg-merge"
      ~attrs:[ "partials", string_of_int count ]
      merge
  in
  Metrics.observe merge_h (max 0.0 (Telemetry.now_ms () -. t0));
  r

let homomorphic_apply ?engine ?backend ?workers _ty build parts =
  let eng = engine_of engine in
  let workers =
    Option.value workers ~default:(Domain_pool.recommended_workers ())
  in
  (* Compile once up front: every partition's query generates identical
     source, so the parallel runs below are cache hits. *)
  if Array.length parts > 0 then
    ignore (Steno.Engine.prepare ?backend eng (build parts.(0)));
  map_partitions_traced ~eng ~workers
    (fun part -> Steno.Engine.to_array ?backend eng (build part))
    parts

let scalar_per_partition ?engine ?backend ?workers build ~combine parts =
  let eng = engine_of engine in
  let workers =
    Option.value workers ~default:(Domain_pool.recommended_workers ())
  in
  if Array.length parts > 0 then
    ignore (Steno.Engine.prepare_scalar ?backend eng (build parts.(0)));
  let partials =
    map_partitions_traced ~eng ~workers
      (fun part ->
        match Steno.Engine.scalar ?backend eng (build part) with
        | s -> Some s
        | exception Iterator.No_such_element -> None)
      parts
  in
  let merged =
    merge_partials ~eng ~count:(Array.length partials) (fun () ->
        Array.fold_left
          (fun acc p ->
            match acc, p with
            | None, x | x, None -> x
            | Some a, Some b -> Some (combine a b))
          None partials)
  in
  match merged with
  | Some s -> s
  | None -> raise Iterator.No_such_element

(* Homomorphism check, delegated to the static classifier so the
   partitioned runner, the linter and [stenoc lint] agree on which
   operators split.  [Check_homo] also names the first blocker. *)
let is_homomorphic q = Check_homo.is_homomorphic q

(* Locate the root captured-array source of a homomorphic prefix and build
   a function that re-roots the query on a different array. *)
type 'b rerooted =
  | Rerooted : {
      ty : 'a Ty.t;
      arr : 'a array;
      rebuild : 'a array -> 'b Query.t;
    }
      -> 'b rerooted

let rec reroot : type b. b Query.t -> b rerooted option = function
  | Query.Of_array (ty, Expr.Capture (_, arr)) ->
    Some
      (Rerooted
         {
           ty;
           arr;
           rebuild = (fun a -> Query.Of_array (ty, Expr.capture (Ty.Array ty) a));
         })
  | Query.Of_array (_, _) | Query.Range _ | Query.Repeat _ -> None
  | Query.Select (q, lam) ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted
          { r with rebuild = (fun a -> Query.Select (r.rebuild a, lam)) })
      (reroot q)
  | Query.Select_q (q, v, sq) ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted
          { r with rebuild = (fun a -> Query.Select_q (r.rebuild a, v, sq)) })
      (reroot q)
  | Query.Where (q, lam) ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted { r with rebuild = (fun a -> Query.Where (r.rebuild a, lam)) })
      (reroot q)
  | Query.Where_q (q, v, sq) ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted
          { r with rebuild = (fun a -> Query.Where_q (r.rebuild a, v, sq)) })
      (reroot q)
  | Query.Select_many (q, v, inner) ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted
          {
            r with
            rebuild = (fun a -> Query.Select_many (r.rebuild a, v, inner));
          })
      (reroot q)
  | Query.Select_many_result (q, v, inner, lam2) ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted
          {
            r with
            rebuild =
              (fun a -> Query.Select_many_result (r.rebuild a, v, inner, lam2));
          })
      (reroot q)
  | Query.Take _ | Query.Skip _ | Query.Take_while _ | Query.Skip_while _
  | Query.Select_i _ | Query.Where_i _ | Query.Join _ | Query.Group_by _
  | Query.Group_by_elem _ | Query.Group_by_agg _ | Query.Order_by _
  | Query.Distinct _ | Query.Rev _ ->
    None
  | Query.Materialize q ->
    Option.map
      (fun (Rerooted r) ->
        Rerooted { r with rebuild = (fun a -> Query.Materialize (r.rebuild a)) })
      (reroot q)

(* ------------------------------------------------------------------ *)
(* Typed partial-aggregation descriptors (Fig. 12): a per-partition
   rewrite injecting the partial aggregate Agg_i, the associative Agg*
   combine over partial states, and a final projection from the merged
   partial to the query's result. *)

type ('row, 'partial, 'result) decomposition = {
  inject : 'row array -> 'partial Query.sq;
  combine : 'partial -> 'partial -> 'partial;
  project : 'partial option -> 'result;
  short_circuit : ('partial -> bool) option;
}

type 'r decomposed =
  | Decomposed : {
      source_ty : 'row Ty.t;
      source : 'row array;
      decomp : ('row, 'partial, 'r) decomposition;
    }
      -> 'r decomposed

let rec decompose : type r. r Query.sq -> r decomposed option =
 fun sq ->
  let mk : type a p.
      a Query.t ->
      (a Query.t -> p Query.sq) ->
      ?short_circuit:(p -> bool) ->
      (p -> p -> p) ->
      (p option -> r) ->
      r decomposed option =
   fun q wrap ?short_circuit combine project ->
    match reroot q with
    | None -> None
    | Some (Rerooted rt) ->
      Some
        (Decomposed
           {
             source_ty = rt.ty;
             source = rt.arr;
             decomp =
               {
                 inject = (fun part -> wrap (rt.rebuild part));
                 combine;
                 project;
                 short_circuit;
               };
           })
  in
  let required = function
    | Some s -> s
    | None -> raise Iterator.No_such_element
  in
  match sq with
  (* Same-typed partials: Agg_i and Agg* are the aggregate itself. *)
  | Query.Sum_int q ->
    mk q (fun q -> Query.Sum_int q) ( + ) (Option.value ~default:0)
  | Query.Sum_float q ->
    mk q (fun q -> Query.Sum_float q) ( +. ) (Option.value ~default:0.0)
  | Query.Count q ->
    mk q (fun q -> Query.Count q) ( + ) (Option.value ~default:0)
  | Query.Min q -> mk q (fun q -> Query.Min q) min required
  | Query.Max q -> mk q (fun q -> Query.Max q) max required
  | Query.Min_by (q, key) ->
    let k = Expr.stage key in
    mk q
      (fun q -> Query.Min_by (q, key))
      (* Strict comparison keeps the leftmost element on ties, matching
         the sequential fold. *)
      (fun a b -> if k b < k a then b else a)
      required
  | Query.Max_by (q, key) ->
    let k = Expr.stage key in
    mk q
      (fun q -> Query.Max_by (q, key))
      (fun a b -> if k b > k a then b else a)
      required
  (* Distinct partial state: Average folds a (sum, count) pair per
     partition (the paper's canonical Agg_i/Agg* example). *)
  | Query.Average q ->
    let seed = Expr.Pair (Expr.float 0.0, Expr.int 0) in
    let step =
      Expr.lam2 "acc" (Ty.Pair (Ty.Float, Ty.Int)) "x" Ty.Float (fun acc x ->
          Expr.Pair
            ( Expr.Prim2 (Prim.Add_float, Expr.Fst acc, x),
              Expr.Prim2 (Prim.Add_int, Expr.Snd acc, Expr.int 1) ))
    in
    mk q
      (fun q -> Query.Aggregate (q, seed, step))
      (fun (s1, n1) (s2, n2) -> s1 +. s2, n1 + n2)
      (function
        | Some (s, n) when n > 0 -> s /. float_of_int n
        | Some _ | None -> raise Iterator.No_such_element)
  (* First/Last: the partial is the partition's own first/last element
     (None for an empty partition); the merge keeps the leftmost /
     rightmost non-empty partial, which the left-to-right fold over
     partition-ordered partials realizes as plain projections. *)
  | Query.First q -> mk q (fun q -> Query.First q) (fun a _ -> a) required
  | Query.Last q -> mk q (fun q -> Query.Last q) (fun _ b -> b) required
  (* Boolean quantifiers short-circuit: one [true] partial decides [Any]
     and [Contains], one [false] decides [For_all], so remaining
     partitions are cancelled through the pool. *)
  | Query.Any q ->
    mk q
      (fun q -> Query.Any q)
      ~short_circuit:(fun b -> b)
      ( || )
      (Option.value ~default:false)
  | Query.Exists (q, lam) ->
    mk q
      (fun q -> Query.Exists (q, lam))
      ~short_circuit:(fun b -> b)
      ( || )
      (Option.value ~default:false)
  | Query.Contains (q, v) ->
    mk q
      (fun q -> Query.Contains (q, v))
      ~short_circuit:(fun b -> b)
      ( || )
      (Option.value ~default:false)
  | Query.For_all (q, lam) ->
    mk q
      (fun q -> Query.For_all (q, lam))
      ~short_circuit:(fun b -> not b)
      ( && )
      (Option.value ~default:true)
  (* The user-declared combiner (DryadLINQ-style annotation): each
     partition folds from [seed] with [step]; partials merge with the
     declared combiner.  Injected as a plain Aggregate so all partitions
     share one compiled plan. *)
  | Query.Aggregate_combinable (q, seed, step, c) ->
    mk q
      (fun q -> Query.Aggregate (q, seed, step))
      c
      (function Some s -> s | None -> Expr.eval seed)
  (* A result selector applies once, to the merged partial. *)
  | Query.Map_scalar (inner, lam) -> (
    match decompose inner with
    | None -> None
    | Some (Decomposed d) ->
      let f = Expr.stage lam in
      Some
        (Decomposed
           {
             source_ty = d.source_ty;
             source = d.source;
             decomp =
               {
                 inject = d.decomp.inject;
                 combine = d.decomp.combine;
                 short_circuit = d.decomp.short_circuit;
                 project = (fun p -> f (d.decomp.project p));
               };
           }))
  (* No associativity annotation / globally positional: sequential. *)
  | Query.Aggregate _ | Query.Aggregate_full _ | Query.Element_at _ -> None

let run_decomposed (type row p r) ?engine ?backend ?workers
    (d : (row, p, r) decomposition) (parts : row partitioned) : r =
  let eng = engine_of engine in
  let workers =
    Option.value workers ~default:(Domain_pool.recommended_workers ())
  in
  if Array.length parts > 0 then
    ignore (Steno.Engine.prepare_scalar ?backend eng (d.inject parts.(0)));
  let task part =
    match Steno.Engine.scalar ?backend eng (d.inject part) with
    | s -> Some s
    | exception Iterator.No_such_element -> None
  in
  let partials =
    match d.short_circuit with
    | None ->
      Array.map Option.some
        (map_partitions_traced ~eng ~workers task parts)
    | Some sc ->
      map_partitions_until ~eng ~workers
        ~stop:(function Some v -> sc v | None -> false)
        task parts
  in
  let merged =
    merge_partials ~eng ~count:(Array.length parts) (fun () ->
        Array.fold_left
          (fun acc po ->
            match acc, po with
            | x, None | x, Some None -> x
            | None, Some (Some b) -> Some b
            | Some a, Some (Some b) -> Some (d.combine a b))
          None partials)
  in
  d.project merged

(* Partition count for the auto helpers.  The historical default is one
   chunk per worker; an engine with adaptive optimization enabled sizes
   chunks from the input length instead ([Cost.partitions_for_rows]), so
   a small input is not shredded into chunks whose per-task dispatch
   costs more than the work they carry.  An explicit [?parts] always
   wins. *)
let auto_parts ~eng ~workers ~parts n =
  match parts with
  | Some p -> max 1 p
  | None ->
    if Steno.Engine.adaptive_config eng <> None then
      Steno.Cost.partitions_for_rows ~workers n
    else max 1 workers

let scalar_auto ?engine ?backend ?workers ?parts sq =
  let eng = engine_of engine in
  match decompose sq with
  | None -> Steno.Engine.scalar ?backend eng sq
  | Some (Decomposed { source; decomp; source_ty = _ }) ->
    let workers =
      Option.value workers ~default:(Domain_pool.recommended_workers ())
    in
    let parts = auto_parts ~eng ~workers ~parts (Array.length source) in
    if Array.length source = 0 then Steno.Engine.scalar ?backend eng sq
    else
      run_decomposed ~engine:eng ?backend ~workers decomp
        (partition ~parts source)

let to_array_auto ?engine ?backend ?workers ?parts (q : 'a Query.t) : 'a array =
  let eng = engine_of engine in
  match reroot q with
  | Some (Rerooted r) when is_homomorphic q ->
    let workers =
      Option.value workers ~default:(Domain_pool.recommended_workers ())
    in
    let parts = auto_parts ~eng ~workers ~parts (Array.length r.arr) in
    if Array.length r.arr = 0 then Steno.Engine.to_array ?backend eng q
    else
      let partitions = partition ~parts r.arr in
      concat
        (homomorphic_apply ~engine:eng ?backend ~workers r.ty
           (fun part -> r.rebuild part)
           partitions)
  | Some _ | None -> Steno.Engine.to_array ?backend eng q

(* Partitioned GroupBy-Aggregate (section 4.3 x section 6): each
   partition folds into its own per-key table of partial states; tables
   merge pairwise in rounds with the user's combiner, preserving global
   first-appearance key order. *)
let group_aggregate (type k s) ?engine ?backend ?workers ?parts
    ~(combine : s -> s -> s) (q : (k * s) Query.t) : (k * s) array =
  let eng = engine_of engine in
  let fallback () = Steno.Engine.to_array ?backend eng q in
  match q with
  | Query.Group_by_agg (src, key, seed, step) -> (
    match reroot src with
    | None -> fallback ()
    | Some (Rerooted rt) ->
      if Array.length rt.arr = 0 then fallback ()
      else begin
        let workers =
          Option.value workers ~default:(Domain_pool.recommended_workers ())
        in
        let nparts = auto_parts ~eng ~workers ~parts (Array.length rt.arr) in
        let partitions = partition ~parts:nparts rt.arr in
        let build part =
          Query.Group_by_agg (rt.rebuild part, key, seed, step)
        in
        ignore (Steno.Engine.prepare ?backend eng (build partitions.(0)));
        let seed_v = Expr.eval seed in
        let tables =
          map_partitions_traced ~eng ~workers
            (fun part ->
              let pairs = Steno.Engine.to_array ?backend eng (build part) in
              let t =
                Lookup.Agg.create ~initial_capacity:(Array.length pairs)
                  ~seed:seed_v ()
              in
              Array.iter (fun (k, s) -> Lookup.Agg.update t k (fun _ -> s)) pairs;
              t)
            partitions
        in
        let merged =
          merge_partials ~eng ~count:(Array.length tables) (fun () ->
              let rec rounds = function
                | [] -> Lookup.Agg.create ~seed:seed_v ()
                | [ t ] -> t
                | ts ->
                  let rec pair_up = function
                    | a :: b :: rest ->
                      Lookup.Agg.combine a b combine :: pair_up rest
                    | ([ _ ] | []) as rest -> rest
                  in
                  rounds (pair_up ts)
              in
              rounds (Array.to_list tables))
        in
        Lookup.Agg.entries merged
      end)
  | _ -> fallback ()
