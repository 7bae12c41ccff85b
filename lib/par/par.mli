(** Multiprocessor query execution (section 6 of the paper).

    A query over partitioned data executes in parallel when its operators
    are homomorphic (apply to each element independently): the
    homomorphic prefix runs on every partition as an independent subquery
    — compiled once by Steno and reused, since partitions only differ in
    the captured source array — and an associative trailing aggregation is
    split into per-partition partial aggregations [Agg_i] combined by a
    final [Agg*] (Fig. 12). *)

type 'a partitioned = 'a array array

val partition : parts:int -> 'a array -> 'a partitioned
(** Split into [parts] contiguous chunks of near-equal size (at most one
    element difference).  [parts] must be positive and is capped at the
    row count, so no empty chunk is ever produced (each would cost a
    full engine run); an empty input yields a single empty chunk. *)

val concat : 'a partitioned -> 'a array

(** {1 Explicit parallel operators}

    Every operator takes an optional [?engine]: the queries prepare and
    run through it (its backend, plugin cache and failure policy), and
    a traced call (under [Trace.with_trace] on its tracer) records one
    ["partition"] span per vertex — timed on the worker domain that ran
    it — plus an ["agg-merge"] span for the combining step.  Default: [Steno.default_engine ()].  [?backend]
    overrides the engine's backend per call. *)

val homomorphic_apply :
  ?engine:Steno.Engine.t ->
  ?backend:Steno.backend ->
  ?workers:int ->
  'a Ty.t ->
  ('a array -> 'b Query.t) ->
  'a partitioned ->
  'b partitioned
(** The paper's [HomomorphicApply] PLINQ operator: apply a compiled
    subquery to each partition in parallel, yielding a new set of
    partitions.  The query builder receives the partition's data; with the
    [Native] backend the generated plugin is compiled once and shared by
    all partitions (identical source, different capture environment). *)

val scalar_per_partition :
  ?engine:Steno.Engine.t ->
  ?backend:Steno.backend ->
  ?workers:int ->
  ('a array -> 's Query.sq) ->
  combine:('s -> 's -> 's) ->
  'a partitioned ->
  's
(** Per-partition partial aggregation plus an [Agg*] combining step.
    Raises [Iterator.No_such_element] if every partition is empty and the
    subquery requires a non-empty input. *)

(** {1 Automatic splitting} *)

val is_homomorphic : 'a Query.t -> bool
(** True when every operator applies to each element independently
    (Trans, Pred and nested operators — not sinks, not Take/Skip). *)

(** {2 Typed partial aggregation (Fig. 12)}

    A decomposition is the paper's [Agg_i]/[Agg*] split as a first-class
    value: [inject] rewrites a partition into the per-partition subquery
    ending in the partial aggregate [Agg_i]; [combine] is the
    associative [Agg*] merge over partial states; [project] maps the
    merged partial (or [None] when every partition was empty or
    cancelled) to the query's result.  [short_circuit] flags a partial
    that decides the whole query (e.g. a [true] for [Any]), cancelling
    the remaining partitions through {!Domain_pool.run_until}. *)
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

val decompose : 'r Query.sq -> 'r decomposed option
(** Analyze a scalar query: if it is a homomorphic prefix over a
    captured array source ending in a decomposable aggregate, return the
    partitioned execution plan.  Covers the same-typed aggregates
    ([Sum_int]/[Sum_float]/[Count]/[Min]/[Max]/[Min_by]/[Max_by]) plus
    [Average] (a [(sum, count)] pair partial),
    [First]/[Last] (leftmost/rightmost non-empty partial),
    short-circuiting [Any]/[Exists]/[Contains]/[For_all], user
    aggregates declared combinable with [Query.aggregate ?combine], and
    [Map_scalar] over any of these.  [None] when the query cannot be
    split (opaque aggregate, non-homomorphic operator, or a computed
    source); agrees with [Check_homo.aggregate_combinability]. *)

val run_decomposed :
  ?engine:Steno.Engine.t ->
  ?backend:Steno.backend ->
  ?workers:int ->
  ('row, 'partial, 'r) decomposition ->
  'row partitioned ->
  'r
(** Execute a decomposition: one [Agg_i] subquery per partition on the
    pool (compiled once, shared), then the [Agg*] merge — timed under an
    ["agg-merge"] span and the [steno_agg_merge_ms] histogram — and the
    final projection. *)

val scalar_auto :
  ?engine:Steno.Engine.t ->
  ?backend:Steno.backend ->
  ?workers:int ->
  ?parts:int ->
  's Query.sq ->
  's
(** Run a scalar query in parallel when {!decompose} finds a plan, and
    sequentially otherwise.  [?parts] defaults to one chunk per worker —
    unless the engine has adaptive optimization enabled
    ([Steno.Config.with_adaptive]), in which case the partition count is
    derived from the input length ([Steno.Cost.partitions_for_rows]), so
    tiny inputs run in one chunk.  The same default applies to
    {!to_array_auto} and {!group_aggregate}. *)

val to_array_auto :
  ?engine:Steno.Engine.t ->
  ?backend:Steno.backend ->
  ?workers:int ->
  ?parts:int ->
  'a Query.t ->
  'a array
(** Run a collection query in parallel when it is a homomorphic prefix
    over a captured array source (per-partition results concatenate in
    partition order, preserving the sequential result exactly);
    sequentially otherwise. *)

val group_aggregate :
  ?engine:Steno.Engine.t ->
  ?backend:Steno.backend ->
  ?workers:int ->
  ?parts:int ->
  combine:('s -> 's -> 's) ->
  ('k * 's) Query.t ->
  ('k * 's) array
(** Partitioned GroupBy-Aggregate (section 4.3 x section 6): when the
    query is a [Group_by_agg] over a reroutable homomorphic prefix, each
    partition folds into its own per-key [Lookup] of partial states and
    the tables merge pairwise in rounds with [combine] (which must be
    associative, with the per-key fold satisfying the usual homomorphism
    law), preserving global first-appearance key order.  Any other query
    shape — or an empty source — runs sequentially through the engine. *)
