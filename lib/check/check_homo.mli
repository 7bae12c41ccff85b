(** Parallelizability classification (section 6 of the paper), lifted
    from a boolean into a per-operator report.

    A query may be split across partitions when its operator spine is a
    homomorphism: each operator applies to elements independently, so
    per-partition results concatenate to the sequential result.  This
    module walks the top-level spine (the outer side of joins and
    flattens, matching {!Par.is_homomorphic}'s semantics exactly) and
    records, per operator, whether it splits and — when it does not —
    why.  [steno_par] and [steno_dryad] consult this classifier instead
    of private checks, and the plan linter turns the first blocker into
    an [SC002] diagnostic. *)

type verdict =
  | Splittable
  | Blocking of string  (** why this operator breaks the homomorphism *)

type op_info = {
  o_index : int;  (** position in source-to-sink order, [0] = source *)
  o_label : string;  (** combinator name, e.g. ["order-by"] *)
  o_verdict : verdict;
}

type report = {
  r_ops : op_info list;  (** the top-level spine, source first *)
  r_prefix : int;
      (** operators in the longest splittable prefix (source included) *)
  r_blocker : op_info option;  (** first blocking operator, if any *)
}

val classify : 'a Query.t -> report

val classify_scalar : 's Query.sq -> report
(** The spine of the aggregated collection plus one final row for the
    aggregate itself, [Splittable] iff the aggregate is associatively
    combinable (the [Agg*] merge of Fig. 12). *)

val is_homomorphic : 'a Query.t -> bool
(** [r_blocker = None] — the verdict {!Par.is_homomorphic} delegates
    to. *)

(** Whether a trailing aggregate admits an associative per-partition
    merge; [Combinable] carries the combining operator's description,
    [Not_combinable] the reason it has none. *)
type combinability =
  | Combinable of string
  | Not_combinable of string

val aggregate_combinability : 's Query.sq -> combinability
(** Agrees with {!Par.decompose}: exactly the [Combinable]
    aggregates can be split (given a reroutable source). *)
