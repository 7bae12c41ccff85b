(** A simulated Dryad/DryadLINQ execution engine (sections 6-7 of the
    paper).

    A job is a sequence of {e stages}; each stage runs one {e vertex} per
    input partition, in parallel on a pool of domains (standing in for
    cluster machines).  Vertex code is a sequential query over its
    partition — precisely the unit that Steno optimizes — so the engine
    accepts a query builder and executes it with a chosen backend:
    [Linq] reproduces unoptimized DryadLINQ vertices, [Native] reproduces
    Steno-optimized vertices (compiled once and shared across vertices,
    because partitions differ only in the captured source array).

    The paper's distributed-aggregation optimization (partial [Agg_i] per
    partition, combining [Agg*], ref. [33]) is provided by
    {!reduce_partials} and {!group_agg_exchange}. *)

type cluster

val create : ?workers:int -> ?engine:Steno.Engine.t -> unit -> cluster
(** A simulated cluster executing up to [workers] vertices concurrently
    (default: the machine's recommended domain count).  Vertex queries
    prepare and run through [engine] (default:
    [Steno.default_engine ()]); a traced call (under [Trace.with_trace]
    on its tracer) records one ["stage"] span per stage and one
    ["vertex"] span per vertex — the per-stage / per-vertex roll-up —
    plus ["dryad.exchanged"] / ["dryad.gathered"] events. *)

val workers : cluster -> int

val engine : cluster -> Steno.Engine.t

(** {1 Execution metrics} *)

type metrics = {
  mutable stages : int;  (** stages executed *)
  mutable vertices : int;  (** vertex executions *)
  mutable exchanged : int;  (** elements moved across partitions *)
  mutable gathered : int;  (** elements collected to the master *)
  mutable busy_ms : float;  (** summed wall time of all stages *)
}

val metrics : cluster -> metrics
val reset_metrics : cluster -> unit

(** {1 Stages} *)

val map_partitions : cluster -> ('a array -> 'b array) -> 'a Dataset.t -> 'b Dataset.t
(** One vertex per partition running arbitrary host code (an escape
    hatch; prefer {!apply_query} for measurable query vertices). *)

val apply_query :
  cluster ->
  ?backend:Steno.backend ->
  ('a array -> 'b Query.t) ->
  'a Dataset.t ->
  'b Dataset.t
(** The Steno-integrated vertex (the paper's [HomomorphicApply] extended
    to the cluster): each vertex evaluates the query built over its
    partition with the given backend. *)

val apply_query_checked :
  cluster ->
  ?backend:Steno.backend ->
  ('a array -> 'b Query.t) ->
  'a Dataset.t ->
  'b Dataset.t
(** {!apply_query} guarded by the {!Check.Homo} classifier: raises
    [Invalid_argument] naming the first blocking operator and why, when
    the per-partition evaluation would not equal the sequential one
    (e.g. a global sort or a positional cut in the spine). *)

val apply_scalar :
  cluster ->
  ?backend:Steno.backend ->
  ('a array -> 's Query.sq) ->
  'a Dataset.t ->
  's array
(** Per-partition partial aggregation: one scalar per partition (the
    [Agg_i] stage of Fig. 12). *)

val exchange :
  cluster -> parts:int -> key:('a -> int) -> 'a Dataset.t -> 'a Dataset.t
(** Hash-repartition: element [x] moves to partition
    [key x mod parts].  Counts every element into
    [metrics.exchanged]. *)

val gather : cluster -> 'a Dataset.t -> 'a array
(** Collect a (small) dataset to the master, counting
    [metrics.gathered]. *)

(** {1 Distributed sort}

    DryadLINQ "transforms an OrderBy Sink operator into a distributed
    sort, which samples the data to estimate an appropriate partitioning,
    range-partitions the data based on that estimate, and sorts each
    resulting partition in parallel" (section 6).  [sort_by] is that
    pipeline. *)

val sort_by :
  cluster ->
  ?sample_rate:int ->
  key:('a -> 'k) ->
  'a Dataset.t ->
  'a Dataset.t
(** Globally sort the dataset by key (ascending, polymorphic comparison):
    partition [i] holds keys no greater than partition [i+1]'s, and each
    partition is locally sorted, so {!Dataset.collect} yields a fully
    sorted array.  [sample_rate] controls how many elements per partition
    feed the boundary estimate (default: every 16th element, at least
    one). *)

(** {1 Distributed aggregation} *)

val reduce_partials :
  cluster ->
  combine:('s -> 's -> 's) ->
  ('k * 's) Dataset.t ->
  ('k * 's) array
(** The [Agg*] step: gather per-partition (key, partial) pairs to the
    master and merge partials per key.  Suitable when the key set is
    small (e.g. k-means cluster ids). *)

val group_agg_exchange :
  cluster ->
  parts:int ->
  combine:('s -> 's -> 's) ->
  ('k * 's) Dataset.t ->
  ('k * 's) Dataset.t
(** Scalable [Agg*]: hash-exchange partials by key, then merge within
    each partition — the pattern DryadLINQ uses when the key set is too
    large for one machine (section 4.3 / ref. [33]). *)
