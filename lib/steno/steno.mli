(** Steno: automatic optimization of declarative queries.

    The public entry point.  Build a query with the {!Query} combinators,
    then either run it directly through the unoptimized iterator pipeline
    ([Linq] backend), or optimize it:

    {[
      let q =
        Query.of_array Ty.Float xs
        |> Query.select (fun x -> Expr.Infix.(x *. x))
        |> Query.sum_float
      in
      let sum = Steno.scalar ~backend:Native q
    ]}

    The [Native] backend performs the full Steno pipeline of the paper:
    canonicalize to QUIL (section 3.1), generate fused loop code with the
    pushdown automaton (sections 4-5), compile it with the native
    compiler, load it, and bind captured values (section 3.3).  Compiled
    code is cached by generated source text, so a structurally identical
    query (e.g. the same query over a different captured array) reuses the
    compiled plugin and pays only environment re-extraction — the query
    caching the paper describes in section 7.1.

    All execution goes through an {!Engine}: an explicit value packaging
    the backend choice, the bounded plugin cache, the failure policy for
    the native compiler, and a request tracer.  Engines are safe to
    share across domains: the plugin cache takes sharded locks,
    concurrent identical prepares are collapsed onto one compile
    (single-flight), and the metrics write path is lock-free.  Clients
    of a shared engine speak through a {!Session}: a lightweight handle
    carrying per-client configuration overrides, tenant labels for
    metrics, and usage counters.  The free functions below are thin
    wrappers over a {!default_session} on a lazily-created
    {!default_engine}; servers hosting several tenants or configurations
    create their own engines and sessions (see [Steno_server] for a
    full admission-controlled front end). *)

type backend =
  | Linq  (** Unoptimized iterator pipeline (the baseline). *)
  | Fused  (** In-process closure fusion (no compiler invocation). *)
  | Native  (** Full Steno: generated, natively compiled loop code. *)

val backend_name : backend -> string
(** ["linq"], ["fused"] or ["native"]. *)

(** Why a [Native] preparation executed on the [Fused] backend instead
    (recorded in {!compile_info.fallback} and in the request's trace). *)
type fallback_reason =
  | Compiler_unavailable
  | Compile_timeout of int  (** the engine's [compile_timeout_ms] *)
  | Compile_error of string
  | Load_error of string

val fallback_reason_message : fallback_reason -> string

type compile_info = {
  backend : backend;  (** The backend that actually executes the query. *)
  requested : backend;
      (** The backend asked for; differs from [backend] only when the
          engine fell back. *)
  cache_hit : bool;
      (** Compiled plugin reused from the query cache.  Also [true] on a
          plan-memo hit (see {!Engine.memo_size}), which reuses the
          plugin without generating code. *)
  prepare_ms : float;
      (** Total preparation cost: specialization, canonicalization, code
          generation or staging, and — on a cache miss — compiler
          invocation and loading. *)
  codegen_ms : float;
      (** Of which QUIL lowering and code generation ([Native]), or
          specialization and staging ([Fused]/[Linq]) — so backend
          comparisons account for the work each backend really does at
          prepare time.  [0.] on a plan-memo hit. *)
  compile_ms : float;  (** Of which native compile + dynlink. *)
  fallback : fallback_reason option;
      (** Set when a [Native] request executed on [Fused]. *)
}

(** {1 Profiles}

    With [profile = true] in the engine configuration, every preparation
    carries one probe point per top-level query operator, fed during
    execution: rows flowing out of each operator edge (so selectivity is
    the ratio of consecutive points), the indirect or closure calls each
    element costs at that operator, and — on the pull backend — the time
    spent inside upstream [move_next].  The call counts measure the
    paper's core claim directly: [Linq] observes two indirect calls per
    element per operator, [Fused] one closure call, [Native] zero.

    With [profile = false] (the default) none of this exists: staging
    applies no wrappers and generated code contains no probe
    increments — the unprofiled paths are byte-identical to a build
    without this feature. *)

type op_profile = {
  op_label : string;
      (** Operator label: the staged combinator name (["where"],
          ["select"], ...) on [Linq]/[Fused], the QUIL symbol (["Pred"],
          ["Trans"], ...) on [Native]. *)
  op_index : int;  (** position in source-to-sink order, [0] = source *)
  op_rows : int;  (** rows that left this operator, over all runs *)
  op_calls : int;  (** indirect/closure calls observed, over all runs *)
  op_ns : int;
      (** cumulative nanoseconds; on [Linq] the upstream-inclusive
          [move_next] time at this point (exclusive time is the
          difference of consecutive points), [0] on [Fused]/[Native]
          where per-operator time is meaningless inside a fused loop *)
}

type profile_snapshot = {
  ps_backend : backend;  (** backend that executed (after fallback) *)
  ps_runs : int;
  ps_run_ms : float;  (** total wall time of profiled runs *)
  ps_ops : op_profile list;  (** source-to-sink order *)
}

exception Check_failed of Check.diagnostic list
(** Raised by a [strict] engine's prepare when the static checks report
    [Error]-level diagnostics; carries exactly those errors. *)

(** {1 Prepared queries}

    Separate optimization from execution to amortize or measure the
    one-off compilation cost.  Every [prepare] returns a {!Prepared.t},
    indexed by what a run returns: a collection query's preparation
    runs to an array of rows ({!type-prepared}), a scalar query's to its
    value ({!type-prepared_scalar}).  Both kinds go through the same
    preparation pipeline and share the accessors below. *)

module Prepared : sig
  type 'r t
  (** A preparation whose runs return ['r]. *)

  val run : 'r t -> 'r
  (** Execute.  Reusable: captured inputs are re-read on each run. *)

  val backend_used : 'r t -> backend
  (** The backend that executes {e now} — after any fallback, and, on a
      tiered engine, reflecting the live tier: [Fused] until the
      background promotion lands, [Native] after. *)

  val compile_info : 'r t -> compile_info

  val rewrite_log : 'r t -> string list
  (** Optimizer rules applied while preparing this query, in order (AST
      rules first, then QUIL chain rules — the latter only when this
      prepare compiled the chain on the Native path).
      Consecutive firings of one rule are compressed to ["name (xN)"].
      Empty when the engine was configured with [optimize = false]. *)

  val diagnostics : 'r t -> Check.diagnostic list
  (** The static-check findings recorded when this query was
      prepared. *)

  val profile : 'r t -> profile_snapshot option
  (** Per-operator counts accumulated over this preparation's runs so
      far; [None] unless the preparing engine had [profile = true]. *)

  val decisions : 'r t -> string list
  (** What the adaptive phase decided while preparing (predicate
      reorders, backend downgrades), as display lines; empty without
      [Config.with_adaptive]. *)
end

type 'a prepared = 'a array Prepared.t
(** A prepared collection query: its runs return the rows. *)

type 's prepared_scalar = 's Prepared.t
(** A prepared scalar query: its runs return the value. *)

module Prepared_scalar = Prepared
(** The historical name for the accessors on scalar preparations. *)

(** {1 Configuration}

    One value describes everything an engine does: start from
    {!Config.default} and pipe it through the [with_*] combinators.

    {[
      let cfg =
        Steno.Config.(
          default
          |> with_backend Native
          |> with_tiering ~threshold:4
          |> with_disk_cache ~dir:(Pcache.default_dir ()))
      in
      let engine = Steno.Engine.create cfg
    ]}

    [Config.t] and [Engine.config] are the same record type, so the
    historical [{ Engine.default_config with backend = ... }] update
    syntax still works; the combinators are the supported surface and
    the only one that will grow fields without breaking callers. *)

module Config : sig
  (** Tiered-execution policy (a JIT for queries): prepare instantly on
      [Fused], count runs, and once a preparation crosses [threshold]
      runs compile [Native] in the background and hot-swap.  See
      {!Engine.config.tiering}. *)
  type tiering = { threshold : int }

  (** Cost-based adaptive optimization policy.  See
      {!Engine.config.adaptive}. *)
  type adaptive = {
    drift : float;
        (** Absolute selectivity divergence (observed vs assumed at
            prepare time) past which a profiled run retires the plan's
            statistics and triggers a background re-preparation. *)
    fused_below : int;
        (** Estimated source rows at or below which an engine-level
            [Native] dispatch is downgraded to [Fused]. *)
  }

  (** Persistent on-disk plugin store configuration.  See
      {!Engine.config.disk_cache}. *)
  type disk_cache = { dir : string; max_bytes : int; max_entries : int }

  (** Request-scoped tracing configuration.  See
      {!Engine.config.tracing}. *)
  type tracing = { sample : float; ring : int; slow_ms : float option }

  (** The full engine configuration.  The fields are documented on the
      (equal) {!Engine.config} re-export; prefer building values with
      {!default} and the combinators below, which stay source-compatible
      as fields are added. *)
  type t = {
    backend : backend;
    fallback : bool;
    optimize : bool;
    compile_timeout_ms : int option;
    cache_capacity : int;
    profile : bool;
    metrics : Metrics.t;
    strict : bool;
    tiering : tiering option;
    adaptive : adaptive option;
    disk_cache : disk_cache option;
    tracing : tracing option;
  }

  val default : t
  (** [Native] when a compiler is available ([Fused] otherwise),
      [fallback = true], [optimize = true], no timeout, capacity 128,
      [profile = false], the process-wide metrics registry,
      [strict = false], no tiering, no disk cache, no tracing. *)

  val with_backend : backend -> t -> t
  val with_fallback : bool -> t -> t
  val with_optimize : bool -> t -> t
  val with_compile_timeout : int option -> t -> t
  val with_cache_capacity : int -> t -> t
  val with_profile : bool -> t -> t
  val with_metrics : Metrics.t -> t -> t
  val with_strict : bool -> t -> t

  val with_tiering : ?threshold:int -> t -> t
  (** Enable tiered execution with the given promotion threshold
      (default 8 runs; clamped to at least 1). *)

  val without_tiering : t -> t

  val with_adaptive : ?drift:float -> ?fused_below:int -> t -> t
  (** Enable cost-based adaptive optimization (defaults: [drift = 0.3],
      [fused_below = 64]).  See {!Engine.config.adaptive}; observations
      only flow when [profile] is also on. *)

  val without_adaptive : t -> t

  val with_disk_cache :
    dir:string -> ?max_bytes:int -> ?max_entries:int -> t -> t
  (** Enable the persistent plugin store rooted at [dir] (e.g.
      [Pcache.default_dir ()]).  Defaults: 256 MiB, 512 entries. *)

  val without_disk_cache : t -> t

  val with_tracing : ?sample:float -> ?ring:int -> ?slow_ms:float -> t -> t
  (** Enable request-scoped tracing: [sample] is the traced fraction of
      root requests (default [1.0], realised deterministically as
      1-in-k), [ring] the completed-trace ring capacity (default 256),
      [slow_ms] a latency threshold enabling the slow-query ring.  See
      {!Engine.config.tracing}. *)

  val without_tracing : t -> t
end

(** {1 Engines}

    An engine is the host-side runtime contract made explicit: which
    backend to use, how many compiled plugins to keep (bounded LRU),
    what to do when the native compiler fails or stalls, and whether
    requests are traced.  Engines are independent — each has its own
    cache and counters — and safe to share across domains. *)

module Engine : sig
  type t

  type config = Config.t = {
    backend : backend;  (** Default backend for this engine's queries. *)
    fallback : bool;
        (** When true, a [Native] preparation that cannot compile
            (compiler missing, compile/load error, or timeout) falls
            back to [Fused] and records the reason, instead of raising.
            When false, such failures raise
            [Dynload.Compilation_failed]. *)
    optimize : bool;
        (** When true (the default), every preparation first runs the
            {!Opt} algebraic rewrite engine over the query AST, and the
            Native path additionally runs the chain-level pass over the
            canonicalized QUIL.  The applied rules are recorded in the
            preparation ({!Prepared.rewrite_log}).  In a traced request
            each pass runs under an ["optimize"] span, and a pass that
            fired records an [optimize.rules_applied] event with its
            rule count and its ["level"] (["ast"], ["adaptive"] or
            ["quil"]); a pass that fired nothing records none.  The
            plugin cache key incorporates this flag, so optimized and
            unoptimized compilations never alias.  Set
            [false] to run plans exactly as written (the escape hatch
            for debugging a suspected rewrite). *)
    compile_timeout_ms : int option;
        (** Deadline for one plugin build; the compile worker running
            it is killed past it.  [None] waits indefinitely. *)
    cache_capacity : int;
        (** Bound on cached compiled plugins (per engine, LRU).  [0]
            disables caching. *)
    profile : bool;
        (** When true, preparations carry per-operator probe points (see
            {!type-op_profile}): staged backends wrap every operator,
            native code generation inserts row-count increments at each
            operator edge, and every run flushes per-run deltas into
            [metrics] ([steno_operator_rows_total],
            [steno_operator_calls_total], labelled by backend/op/index;
            runs themselves are counted by {!Session}).  Profiled native code has
            distinct cache keys, so it never aliases unprofiled plugins.
            When false (the default), execution is exactly the
            unprofiled code — no wrapper, no increment, no registry
            write. *)
    metrics : Metrics.t;
        (** Registry receiving the profile flush (and anything else the
            host records); defaults to {!Metrics.default}. *)
    strict : bool;
        (** When true, {!prepare} and {!prepare_scalar} raise
            {!Check_failed} when the static checks report any
            [Error]-level diagnostic (e.g. a provable division by zero,
            or an aggregate over a provably empty source), instead of
            preparing a query that is guaranteed to raise at run time.
            [Warning] and [Hint] diagnostics never block.  A strict
            engine also lowers every plan to QUIL before dispatch,
            whatever the backend, and refuses a rewrite the translation
            validator rejects ([SC012]) or a chain the PDA refuses
            ([SC000]).  When false
            (the default), diagnostics are only recorded
            ({!Prepared.diagnostics}, the [check_diagnostics_total]
            metric family) and never change behaviour. *)
    tiering : Config.tiering option;
        (** When set, a [Native] preparation on a non-profiling engine
            returns instantly on the [Fused] tier; each preparation
            counts its runs, and the run that reaches
            [threshold] triggers one background [Native] compile on the
            domain pool, after which the prepared handle is atomically
            hot-swapped (in-flight runs finish on the old tier, and
            concurrent promotions of the same query share one compile
            via the single-flight group).  {!Prepared.backend_used}
            tracks the live tier; promotions are counted in
            [steno_tier_promotions_total] by result.  A preparation
            whose promotion fails (e.g. no compiler) stays on [Fused]
            permanently — tiering never raises at prepare or run time.
            [None] (the default) keeps [Native] preparation
            synchronous. *)
    adaptive : Config.adaptive option;
        (** When set, every preparation runs a cost-based phase after
            the syntactic rewrite fixpoint, fed by the engine's per-plan
            statistics store ({!cost_store}; populated by profiled runs
            of the same plan, static priors otherwise):

            - pure conjuncts of fused filters are re-sorted
              most-selective-first — each reorder is logged as a
              ["stats-where-reorder"] rewrite and translation-validated
              like any other rule (statistics pick among provably
              equivalent plans, they are never trusted for soundness);
            - an engine-level [Native] dispatch whose estimated input is
              at most [fused_below] rows stays on [Fused] (an explicit
              per-call [?backend] always wins, and tiering supersedes
              this);
            - [Par]'s auto-partitioned helpers derive their partition
              count from estimated rows instead of one-chunk-per-worker.

            With [profile] also on, each run's per-operator row deltas
            feed the store, and a run whose observed selectivities
            diverge from the preparation's assumptions by more than
            [drift] retires the stale statistics and re-prepares in the
            background (hot-swapped atomically, like tier promotion).
            Decisions surface in {!Prepared.decisions} /
            {!type-analysis} and the [steno_adaptive_total{decision}]
            metric family.  [None] (the default) skips the phase
            entirely. *)
    disk_cache : Config.disk_cache option;
        (** When set, compiled plugins are also published to a
            content-addressed on-disk store ([Pcache]) keyed by the
            plugin cache key plus a compiler/ABI fingerprint, and
            looked up there before invoking the compiler — so a cold
            process pays roughly a [Dynlink] load (sub-millisecond)
            instead of a full compile (tens of milliseconds) for any
            query some earlier process compiled.  Lookups and evictions
            are counted in [steno_pcache_{hits,misses,evictions}_total].
            A compiled plugin is handed to the store's background
            publisher ([Pcache.submit]), so no prepare waits for its
            write; one the full queue drops is counted in
            [steno_pcache_store_dropped_total];
            corrupt or incompatible entries are dropped and recompiled,
            never surfaced as errors.  [None] (the default) keeps
            compiled code in-process only. *)
    tracing : Config.tracing option;
        (** When set, the engine carries an enabled {!Trace.t} (see
            {!tracer}), and every pipeline span (check, optimize, verify,
            specialize, canon, codegen, pcache.lookup, compile, dynlink,
            env-bind, run) and event (see {!event})
            recorded while a trace context is installed (e.g. under
            [Server.submit]) lands in that request's trace —
            including spans from other domains: background tier
            promotions and single-flight leaders re-root the context via
            [Domain_pool]'s [?ctx].  Completed traces land in a bounded
            ring ([ring] entries, head-drop counted in
            [steno_trace_dropped_total]); requests at or over [slow_ms]
            (when set) also land in the slow-query ring with the
            optimized plan, tier and cache outcomes attached.  [sample]
            traces 1-in-k requests, deterministically.  [None] (the
            default) records nothing and costs one branch per
            instrumentation point. *)
  }

  val default_config : config
  (** Alias of {!Config.default}. *)

  val create : config -> t
  (** The one construction path: [Engine.create cfg].  Build [cfg] with
      the {!Config} combinators (or record update on
      {!default_config}). *)

  val config : t -> config

  val tracer : t -> Trace.t
  (** The engine's request tracer: enabled iff the configuration set
      {!Config.with_tracing}, {!Trace.disabled} otherwise.  Wrap work in
      [Trace.with_trace (Engine.tracer e) "request" f] to trace it;
      [Server.submit] does this per request. *)

  val event : t -> ?n:int -> string -> unit
  (** [event e ~n name] reports an event the engine counts: an instant
      [name] with attribute ["n"] (default [1]) in the active trace, and
      [n] more on the registry counter the engine keeps for [name], if
      it keeps one.  The engine's own events are [cache.hit],
      [cache.miss] (with [steno_compile_total{result="ok"}]),
      [cache.eviction], [cache.release], [pcache.hit] (with
      [steno_pcache_hits_total]), [flight.join] (with
      [steno_prepare_dedup_total]), [tier.promote] (with
      [steno_tier_promotions_total{result="ok"}]), [engine.fallback],
      [optimize.rules_applied] (once per rewrite pass that fired, with
      the pass's ["level"]) and [check.diagnostics]. *)

  val metrics : t -> Metrics.t

  val adaptive_config : t -> Config.adaptive option
  (** The engine's adaptive policy ([cfg.adaptive]); [Par]'s
      auto-partitioned helpers read it to decide whether to derive their
      partition count from the statistics store. *)

  val cost_store : t -> Cost.t
  (** The engine's per-plan statistics store.  Always allocated (even
      with [adaptive = None]) and physically shared by derived views of
      the engine — sessions and [explain_analyze]'s forced-profile copy
      feed the same store. *)

  (** {2 Execution}

      Two entry points per query shape.  [try_prepare] reports every
      refusal as a value; [prepare] is the raising wrapper over it, kept
      for code that treats refusal as a bug. *)

  (** Why an engine refused to prepare a query. *)
  type error =
    | Check_error of Check.diagnostic list
        (** A [strict] engine found [Error]-level static diagnostics,
            rejected a rewrite ([SC012]) or lowered a malformed chain
            ([SC000]); carries exactly those errors.  ({!prepare} raises
            these as {!Check_failed}.) *)
    | Compile_failure of fallback_reason
        (** The [Native] backend could not compile and the engine has
            [fallback = false].  ({!prepare} raises this as
            [Dynload.Compilation_failed].) *)

  val error_message : error -> string

  val try_prepare :
    ?backend:backend -> t -> 'a Query.t -> ('a prepared, error) result
  (** [?backend] overrides the engine's configured backend for this
      query only.  Never raises for a refusal; a server loop can turn
      the [Error] into a client reply without exception plumbing. *)

  val try_prepare_scalar :
    ?backend:backend -> t -> 's Query.sq -> ('s prepared_scalar, error) result

  val prepare : ?backend:backend -> t -> 'a Query.t -> 'a prepared
  (** [try_prepare] with refusals raised: {!Check_failed} for
      [Check_error], [Dynload.Compilation_failed] for
      [Compile_failure]. *)

  val prepare_scalar : ?backend:backend -> t -> 's Query.sq -> 's prepared_scalar
  val to_array : ?backend:backend -> t -> 'a Query.t -> 'a array
  val to_list : ?backend:backend -> t -> 'a Query.t -> 'a list
  val scalar : ?backend:backend -> t -> 's Query.sq -> 's

  (** {2 Static checks}

      The {!Check} passes — plan linter, expression analysis,
      parallelizability classifier, and the QUIL well-formedness PDA on
      the lowered chain — run automatically inside {!prepare} (under a
      ["check"] span, counted into [check_diagnostics_total]
      by severity and rule).  [check] runs them alone, without
      preparing: diagnostics are sorted by plan position and carry
      stable rule codes (SC000–SC007, see {!Check.rules}).  On a
      [strict] engine these also raise {!Check_failed} on
      [Error]-level findings. *)

  val check : t -> 'a Query.t -> Check.diagnostic list
  val check_scalar : t -> 's Query.sq -> Check.diagnostic list

  (** {2 Plugin cache} *)

  type cache_stats = {
    capacity : int;
    entries : int;
    hits : int;
    misses : int;
    evictions : int;
  }

  val cache_stats : t -> cache_stats
  val cache_size : t -> int
  val clear_cache : t -> unit
  (** Counters are cumulative and survive {!clear_cache}.  These cover
      the in-process LRU only; the persistent store reports through
      {!pcache_stats}.  [clear_cache] also empties the plan memo. *)

  val memo_size : t -> int
  (** Entries in the plan memo.  A [Native] prepare (on an engine
      without tiering, adaptive optimization or profiling) whose
      unoptimized root matches an earlier one in everything the front
      half reads — structure, constants, capture types and aliasing,
      captured source lengths, the [optimize] and [strict] flags — skips
      checks, optimization, validation and code generation: it binds its
      own captures into the earlier plugin, provided the plugin cache
      still holds it.  Its {!compile_info} then has [cache_hit = true]
      and [codegen_ms = 0.], and its rewrite log and diagnostics are the
      earlier prepare's.  Bounded by [cache_capacity], sharded like the
      plugin cache; [steno_plan_memo_total{result="hit"|"miss"}] counts
      the eligible prepares. *)

  val pcache_stats : t -> Pcache.stats option
  (** Persistent-store figures; [None] unless the engine was configured
      with a [disk_cache]. *)

  val pcache_dir : t -> string option
  (** The fingerprint subdirectory this engine reads and writes. *)

  (** {2 Explain}

      The validated plan a Native prepare of the query compiles under
      this engine's configuration, without preparing or running it: the
      same rewrite, validation and lowering steps, run on a copy of the
      engine that counts into a registry of its own and traces nothing.
      A rewrite the validator rejects is not shown as applied: the plan
      stays as written and the rejection shows as an [SC012] diagnostic.
      With [optimize = false] the before and after plans are identical
      and [rules] is empty. *)

  type explanation = {
    quil_before : string;  (** QUIL sentence of the plan as written. *)
    quil_after : string;
        (** QUIL sentence of the chain a Native prepare compiles: after
            the accepted rewrite passes. *)
    operators_before : int;
    operators_after : int;
        (** {!Quil.operator_count} of each plan; rewriting never
            increases it. *)
    rules : string list;
        (** Accepted rules in order: AST rules, then (on an adaptive
            engine) statistics-driven reorders, then chain rules.
            Consecutive firings of the same rule are compressed into one
            ["name (xN)"] entry. *)
    properties : (string * string) list;
        (** Per-operator static properties of the {e optimized} plan,
            source first: operator label paired with the rendered
            {!Check.Flow} record (cardinality interval, distinctness,
            sortedness, emptiness, purity). *)
    diagnostics : Check.diagnostic list;
        (** An [SC012] per rejected rewrite pass, then the static-check
            findings for the query as written. *)
  }

  val explain : t -> 'a Query.t -> explanation
  val explain_scalar : t -> 's Query.sq -> explanation

  val explain_to_string : explanation -> string
  (** Multi-line rendering: plan before/after, operator counts, the
      applied-rule list and the per-operator property annotations — what
      [stenoc explain] prints. *)

  (** {2 Verify}

      The translation validator's view of a query under this engine's
      configuration: the proof obligations a prepare of the query
      discharges, read from the same steps as {!explain} (and, like it,
      counting nothing on the engine).  Each rewrite pass that fires
      owes one obligation per rewrite event plus its whole-plan
      invariants: the AST pass first, then the adaptive pass, then the
      QUIL chain pass when the plan lowers into the fragment.  [prepare]
      counts each validated pass into [steno_verify_total]; a rejected
      obligation there makes the engine go on with the plan the pass
      was given (strict engines refuse instead, with an [SC012]
      diagnostic).  A pass that fires nothing owes nothing, so with
      [optimize = false] the list is empty. *)

  val verify : t -> 'a Query.t -> Check.Equiv.obligation list
  val verify_scalar : t -> 's Query.sq -> Check.Equiv.obligation list

  (** {2 Explain analyze}

      {!explain} plus one instrumented execution: what the optimizer did
      to the plan, and what actually flowed through it. *)

  type analysis = {
    a_requested : backend;
    a_backend : backend;  (** backend that executed (after fallback) *)
    a_explanation : explanation;  (** the rewrite log, as in {!explain} *)
    a_profile : profile_snapshot;  (** actual rows/calls/time per operator *)
    a_result_rows : int option;
        (** rows in the result; [None] for scalar queries *)
    a_decisions : string list;
        (** what the adaptive phase decided for this preparation, e.g.
            ["reordered: p2 before p1, selectivity 0.03 vs 0.71"] or
            ["backend: fused (est. 40 rows)"]; empty without
            [Config.with_adaptive] *)
  }

  val explain_analyze : ?backend:backend -> t -> 'a Query.t -> analysis
  (** Prepare the query with profiling forced on (regardless of the
      engine's [profile] flag — the engine's plugin cache is shared),
      run it once under probes, and return the annotated result.  The
      run also flushes to the engine's metrics registry. *)

  val explain_analyze_scalar :
    ?backend:backend -> t -> 's Query.sq -> analysis

  val analysis_to_string : analysis -> string
  (** Multi-line rendering: the {!explain_to_string} block followed by a
      per-operator table of actual rows, calls, and (on [Linq])
      exclusive time, then the adaptive decisions when any — what
      [stenoc analyze] prints. *)
end

(** {1 Sessions}

    A session is a client's handle onto a shared engine — the unit of
    multi-tenancy in a query service.  Sessions are cheap (no cache, no
    compiled state of their own): the underlying engine's plugin cache
    and single-flight group are shared by every session on it, while
    each session carries its own configuration overrides, metric labels,
    and usage counters.

    {[
      let engine = Steno.Engine.create Steno.Engine.default_config in
      let alice = Steno.Session.create engine ~client_id:"alice" in
      let bob =
        Steno.Session.create engine ~client_id:"bob"
          ~config:Steno.Config.(with_strict true)
          ~labels:[ "tier", "free" ]
      in
      let xs = Steno.Session.to_array alice q in
      ...
    ]}

    Runs through a session are timed into the engine's metrics registry
    ([steno_run_ms], [steno_runs_total]) labelled with the session's
    [client_id] and extra labels, so one OpenMetrics scrape breaks load
    down by tenant.  A session handle is domain-safe: its counters are
    atomic and everything it touches on the engine already is. *)

module Session : sig
  type t

  val create :
    ?config:(Config.t -> Config.t) ->
    ?labels:(string * string) list ->
    Engine.t ->
    client_id:string ->
    t
  (** A session on [engine] for [client_id].  [config] transforms the
      engine's configuration for queries prepared through this session —
      compose the {!Config} combinators, e.g.
      [~config:Config.(with_strict true)] or
      [~config:(fun c -> Config.(c |> with_backend Fused))]; everything
      outside the configuration (cache, single-flight group, tracer,
      metrics registry) is the engine's.  Overriding [optimize] or
      [profile] is safe on a shared cache: both flags are part of the
      plugin cache key, so sessions never alias each other's compiled
      code.  [labels] are extra metric labels (e.g. tenant tier)
      attached alongside [client_id]. *)

  val engine : t -> Engine.t
  (** The session's view of its engine — configuration overrides
      applied, cache shared.  Useful for {!Engine.explain} and friends
      under the session's flags. *)

  val client_id : t -> string
  val labels : t -> (string * string) list

  (** {2 Execution}

      The {!Engine} entry points, scoped to this session: prepared runs
      are timed and counted under the session's labels, and the
      session's {!stats} advance. *)

  val try_prepare :
    ?backend:backend -> t -> 'a Query.t -> ('a prepared, Engine.error) result

  val try_prepare_scalar :
    ?backend:backend ->
    t ->
    's Query.sq ->
    ('s prepared_scalar, Engine.error) result

  val prepare : ?backend:backend -> t -> 'a Query.t -> 'a prepared
  val prepare_scalar : ?backend:backend -> t -> 's Query.sq -> 's prepared_scalar
  val to_array : ?backend:backend -> t -> 'a Query.t -> 'a array
  val to_list : ?backend:backend -> t -> 'a Query.t -> 'a list
  val scalar : ?backend:backend -> t -> 's Query.sq -> 's

  (** {2 Stats} *)

  type stats = {
    prepares : int;  (** Prepare calls through this session. *)
    runs : int;  (** Runs of preparations made through this session. *)
    run_ms : float;  (** Total wall time of those runs. *)
  }

  val stats : t -> stats

  (** {2 Cache}

      The plugin cache is {e engine}-scoped, not session-scoped: these
      report on and clear the cache shared by every session on this
      session's engine.  In particular [clear_cache] evicts other
      tenants' hot entries — it is an operator action, not a client
      one. *)

  val cache_stats : t -> Engine.cache_stats
  val cache_size : t -> int
  val clear_cache : t -> unit
end

val default_engine : unit -> Engine.t
(** The engine behind the free functions, created on first use from
    {!Engine.default_config}.  This is the only process-global engine
    state; code that needs different settings builds its own
    {!Engine.t}.  Safe to call from any domain. *)

val default_session : unit -> Session.t
(** The session behind the free functions: [client_id = "default"] on
    {!default_engine}.  The free functions [prepare], [to_array], etc.
    are exactly this session's operations. *)

(** {1 Running queries} *)

val to_array : ?backend:backend -> 'a Query.t -> 'a array
val to_list : ?backend:backend -> 'a Query.t -> 'a list
val scalar : ?backend:backend -> 's Query.sq -> 's

(** {1 Preparing on the default session}

    [prepare] returns a handle to interrogate through {!Prepared}. *)

val prepare : ?backend:backend -> 'a Query.t -> 'a prepared
val prepare_scalar : ?backend:backend -> 's Query.sq -> 's prepared_scalar

(** {1 Inspection} *)

val generated_source : 'a Query.t -> string
(** The OCaml module a Native prepare on the default engine compiles for
    this query: after its optimizer, specialization, canonicalization
    and chain pass. *)

val generated_source_scalar : 's Query.sq -> string

val quil : 'a Query.t -> string
(** The QUIL sentence of the chain {!generated_source} is generated
    from, e.g. ["Src Pred Trans Agg Ret"]. *)

val quil_scalar : 's Query.sq -> string

(** {1 Default-engine cache control}

    Compatibility wrappers over [default_engine ()]'s cache.  Sharp
    edge: the scope is the {e default engine}, process-wide — these see
    and clear the cache shared by every session on the default engine,
    and see nothing of any engine you created yourself.  Code holding a
    session or engine should use {!Session.clear_cache} /
    {!Engine.clear_cache}, which name their scope explicitly. *)

val cache_size : unit -> int
val clear_cache : unit -> unit

val native_available : unit -> bool

(** The per-plan statistics store behind {!Config.with_adaptive},
    re-exported: clients inspect an engine's observations via
    [Steno.Cost.snapshot (Engine.cost_store eng) ~key] without a direct
    dependency on the library. *)
module Cost = Cost
