(** Per-plan runtime statistics: the store that closes the
    profiler→optimizer loop.

    The profiler (PR 3) measures per-operator rows; the optimizer (PR 2)
    rewrites purely syntactically.  This module connects them: a small
    concurrent store keyed by a {e plan fingerprint} accumulates, per
    prepared plan, the observed source cardinality and the observed
    selectivity of every [Where] predicate, fed by the engine from
    [profile:true] probe snapshots after each run.  The engine's
    adaptive phase ([Config.with_adaptive]) reads the store back to
    reorder commuting predicates by measured selectivity, choose a
    backend from estimated input size, and derive partition counts for
    [Par].

    {b Keys.}  Plans are keyed by a structural fingerprint that
    canonicalizes variable identifiers (so the same pipeline built twice
    fingerprints identically) and encodes captured values as their type
    only (so one plan over different data shares statistics — matching
    the plugin-cache-key semantics).  The optimizer flag is part of the
    key, the profile flag deliberately is not: profiled runs must feed
    the statistics that unprofiled preparations consume.

    {b Epochs.}  Statistics carry an epoch.  When a prepared plan's
    fresh observations drift from its compile-time assumptions, the
    engine {!retire}s the entry — bumping the epoch and dropping every
    accumulated count — before seeding it with post-drift observations.
    Retiring rather than averaging is what keeps a selectivity flip from
    poisoning the re-optimized plan with stale history.

    {b Divisions.}  Every rows-out/rows-in ratio in this module is
    guarded: zero-row observations (an empty source, a predicate that
    never ran) yield [None], never a NaN or an exception. *)

type t
(** A statistics store.  Domain-safe: every operation takes an internal
    lock; all are O(plan size) or better. *)

val create : unit -> t

(** {1 Fingerprints} *)

val pred_digest : ('a, bool) Expr.lam -> string
(** Canonical fingerprint of a predicate lambda.  Variable ids are
    renamed in traversal order, so alpha-equivalent predicates (e.g. a
    conjunct before and after [where-fuse] re-parameterized it) digest
    identically; captured values render as their type only. *)

val pred_label : ('a, bool) Expr.lam -> string
(** A short human-readable sketch of the predicate body (a truncated
    rendering of the digest), for decision strings and [stenoc cost]
    output. *)

val plan_key : optimize:bool -> 'r Query.root -> string
(** Fingerprint of a plan: a compact, prefix-free binary encoding (one
    tag byte per node, length-prefixed names, binary integers, variables
    renumbered by first occurrence) led by the optimizer flag (an engine
    with [optimize = false] must not consume statistics observed under
    the rewritten plan, and vice versa) and the plan kind.  Captures
    encode as their type only.  Not for display: {!pred_label} is the
    readable rendering. *)

type shape = {
  key : string;
      (** The {!plan_key} encoding, led by the [optimize] and [strict]
          flags, in which every capture also carries its alias class
          and every captured source array ([Of_array (_, Capture a)])
          its length.  Those are the only facts about captured values
          that the checks, the optimizer and code generation read, so
          two roots with one [key] go through the front half alike. *)
  captures : Obj.t array;
      (** One value per alias class, in first-occurrence order.
          Captures are classed by physical identity, as
          [Expr.alpha_equal] compares them. *)
  sized : int list;  (** The classes whose length [key] holds. *)
}

val shape : optimize:bool -> strict:bool -> 'r Query.root -> shape
(** The plan-memo fingerprint of an unoptimized root, from the same walk
    as {!plan_key}. *)

(** {1 Recording} *)

type pred_delta = {
  pd_digest : string;
  pd_tested : int;  (** rows entering the predicate this run *)
  pd_passed : int;  (** rows leaving it this run *)
}

val record :
  t -> key:string -> source_rows:int -> pred_delta list -> unit
(** Fold one run's per-operator deltas into the entry for [key]
    (creating it at epoch 0 if absent).  Negative deltas are clamped to
    zero — a defensive measure against probe/plan mismatches, not an
    expected input. *)

val retire : t -> key:string -> unit
(** Drop every accumulated observation for [key] and advance its epoch.
    Called by the engine on drift, {e before} seeding the entry with the
    post-drift run: the new plan's statistics must not average in the
    old distribution. *)

(** {1 Reading} *)

val epoch : t -> key:string -> int
(** 0 for an entry never retired (or never seen). *)

val runs : t -> key:string -> int

val avg_source_rows : t -> key:string -> float option
(** Mean observed source cardinality per run; [None] with no recorded
    runs (the guard for the rows/runs division). *)

val selectivity : t -> key:string -> digest:string -> float option
(** Observed pass fraction of the predicate with this digest, in the
    current epoch; [None] when the predicate was never tested on a row
    (the guard for the passed/tested division). *)

val observed : t -> key:string -> digest:string -> (int * int) option
(** Raw [(tested, passed)] totals for the current epoch. *)

type pred_snapshot = {
  sn_digest : string;
  sn_tested : int;
  sn_passed : int;
}

type snapshot = {
  sn_epoch : int;
  sn_runs : int;
  sn_source_rows : int;
  sn_preds : pred_snapshot list;
}

val snapshot : t -> key:string -> snapshot option
(** The whole entry, for inspection ([stenoc cost], tests). *)

(** {1 Heuristics} *)

val partitions_for_rows : workers:int -> int -> int
(** Partition count for a parallel run over this many rows: about one
    partition per 4096-row chunk, clamped to [[1, workers]] — so tiny
    inputs stop paying per-partition staging for workers that would
    each see a handful of rows. *)
