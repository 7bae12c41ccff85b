type backend =
  | Linq
  | Fused
  | Native

let native_available = Dynload.is_available

let backend_name = function
  | Linq -> "linq"
  | Fused -> "fused"
  | Native -> "native"

type fallback_reason =
  | Compiler_unavailable
  | Compile_timeout of int
  | Compile_error of string
  | Load_error of string

let fallback_reason_message = function
  | Compiler_unavailable -> "native compiler unavailable"
  | Compile_timeout ms -> Printf.sprintf "compiler timed out after %d ms" ms
  | Compile_error msg -> "compiler failed: " ^ msg
  | Load_error msg -> "plugin load failed: " ^ msg

let fallback_reason_label = function
  | Compiler_unavailable -> "compiler-unavailable"
  | Compile_timeout _ -> "compile-timeout"
  | Compile_error _ -> "compile-error"
  | Load_error _ -> "load-error"

type compile_info = {
  backend : backend;
  requested : backend;
  cache_hit : bool;
  prepare_ms : float;
  codegen_ms : float;
  compile_ms : float;
  fallback : fallback_reason option;
}

(* {2 Profiling} *)

(* Per-preparation profile state ([profile:true] engines).  [prof_probe]
   holds one point per top-level operator; how the points are fed is
   backend-specific: Linq and Fused mutate them inline from staged
   wrappers, Native increments the [prof_native_rows] cells from
   generated code and the run wrapper folds the deltas into the points
   after each run. *)
type profile = {
  prof_backend : backend;
  prof_probe : Metrics.Probe.t;
  prof_native_rows : int array option;
      (* The capture-slot array bound into profiled native code; zeroed
         before each run so a run's counts are a delta. *)
  mutable prof_runs : int;
  mutable prof_run_ms : float;
}

type op_profile = {
  op_label : string;
  op_index : int;
  op_rows : int;
  op_calls : int;
  op_ns : int;
}

type profile_snapshot = {
  ps_backend : backend;
  ps_runs : int;
  ps_run_ms : float;
  ps_ops : op_profile list;
}

let profile_snapshot prof =
  {
    ps_backend = prof.prof_backend;
    ps_runs = prof.prof_runs;
    ps_run_ms = prof.prof_run_ms;
    ps_ops =
      List.map
        (fun (pt : Metrics.Probe.point) ->
          {
            op_label = pt.Metrics.Probe.pt_label;
            op_index = pt.Metrics.Probe.pt_index;
            op_rows = pt.Metrics.Probe.pt_rows;
            op_calls = pt.Metrics.Probe.pt_calls;
            op_ns = pt.Metrics.Probe.pt_ns;
          })
        (Metrics.Probe.points prof.prof_probe);
  }

(* Probe wrappers for the staged backends.  The point is allocated when
   the label is applied — once per operator, at staging — so the per-run
   cost is only the decorated iterator/folder. *)
let linq_probe_wrapper pr : Linq.wrapper =
  {
    Linq.wrap =
      (fun label ->
        let pt = Metrics.Probe.point pr label in
        fun e -> Enumerable.probe pt e);
  }

(* Only rows are counted per element: on the fused backend every row
   pushed downstream costs exactly one closure call, so the run wrapper
   reconciles [pt_calls <- pt_rows] once per run instead of paying a
   second increment on the hot path.

   Pure transforms push exactly what they receive, in the same push
   frame as their upstream — even a downstream early exit (take's stop
   exception) unwinds through transform and source together, so the
   counts cannot diverge.  Their points are marked [pt_derived] and not
   counted at all; the run wrapper copies the upstream point's rows once
   per run.  Barriers (order-by, rev, materialize) also preserve
   cardinality but decouple the push frames, so they stay counted.  The
   transforms' labels are read off one node of each. *)
let fused_preserves_rows =
  let src = Query.range ~start:0 ~count:0 in
  let transforms =
    List.map Query.label
      [
        Query.select Fun.id src;
        Query.select_i (fun _ x -> x) src;
        Query.select_sq (fun _ -> Query.count src) src;
      ]
  in
  fun label -> List.mem label transforms

let fused_probe_wrapper pr : Fused.wrapper =
  {
    Fused.fwrap =
      (fun label ->
        let pt = Metrics.Probe.point pr label in
        if fused_preserves_rows label && pt.Metrics.Probe.pt_index > 0 then (
          pt.Metrics.Probe.pt_derived <- true;
          fun f -> f)
        else
          fun f ->
            {
              Fused.fold =
                (fun g z ->
                  f.Fused.fold
                    (fun acc x ->
                      pt.Metrics.Probe.pt_rows <-
                        pt.Metrics.Probe.pt_rows + 1;
                      g acc x)
                    z);
            });
  }

(* One representation for every preparation, indexed by what a run
   returns: ['a prepared] is ['a array prep], ['s prepared_scalar] is
   ['s prep]. *)
type 'r prep = {
  run_fn : unit -> 'r;
  p_info : compile_info;
  p_rules : string list;
      (* Optimizer rewrite log for this preparation, AST rules first,
         then QUIL chain rules (the latter only when the preparation
         compiled the chain on the Native path). *)
  p_profile : profile option;
      (* Present iff the engine had [profile = true] at prepare time. *)
  p_diags : Check.diagnostic list;
      (* Static-check diagnostics for the query as written (computed
         before optimization). *)
  p_tier : backend Atomic.t;
      (* The backend currently executing this preparation.  Fixed for
         ordinary preparations; a tiered preparation starts at [Fused]
         and is atomically flipped to [Native] when the background
         promotion lands. *)
  p_decisions : string list;
      (* What the cost-based adaptive phase decided for this
         preparation, as display lines ("reordered: ...", "backend:
         fused (est. 40 rows)").  Empty without [Config.with_adaptive]. *)
}

exception Check_failed of Check.diagnostic list

type 'a prepared = 'a array prep
type 's prepared_scalar = 's prep

module Prepared = struct
  type 'r t = 'r prep

  let run p = p.run_fn ()
  let backend_used p = Atomic.get p.p_tier
  let compile_info p = p.p_info
  let rewrite_log p = p.p_rules
  let diagnostics p = p.p_diags
  let profile p = Option.map profile_snapshot p.p_profile
  let decisions p = p.p_decisions
end

module Prepared_scalar = Prepared

let now_ms = Telemetry.now_ms

(* Map the generated code's empty-sequence failure back to the exception
   the iterator pipeline raises, so backends agree observably.  Matched
   by prefix: the generated message may carry operator detail after it. *)
let translate_exn : exn -> exn = function
  | Failure msg
    when String.starts_with ~prefix:Codegen.empty_sequence_prefix msg ->
    Iterator.No_such_element
  | e -> e

(* One optimizer pass and its translation validation: the plan the
   prepare goes on with (the pass's output if accepted, its input if
   not), the accepted firings, the obligations discharged, and the
   [SC012] diagnostic of a rejection. *)
type 'x rewritten = {
  rw_out : 'x;
  rw_fired : Opt.event list;
  rw_obligations : Check.Equiv.obligation list;
  rw_rejected : Check.diagnostic option;
}

let unchanged rw_out =
  { rw_out; rw_fired = []; rw_obligations = []; rw_rejected = None }

let event_names events =
  List.map (fun (e : Opt.event) -> e.Opt.ev_rule) events

(* Compress runs of one rule firing repeatedly (e.g. [where-fuse]
   collapsing a long filter chain) into a single annotated entry, so
   rewrite logs stay readable.  Non-adjacent repeats are preserved:
   they record distinct phases of the rewrite. *)
let dedup_consecutive names =
  List.fold_left
    (fun runs x ->
      match runs with
      | (y, n) :: rest when String.equal x y -> (y, n + 1) :: rest
      | _ -> (x, 1) :: runs)
    [] names
  |> List.rev_map (fun (name, n) ->
         if n > 1 then Printf.sprintf "%s (x%d)" name n else name)

(* How each backend stages one plan, packaged so the engine's prepare
   logic (timing, caching, fallback, tracing) exists once.  The stagers
   take the probe a profiled prepare allocates.  [lower] builds the
   chain pass's outcome at most once, keeping what it raised (a root
   outside the QUIL fragment, a chain the PDA refuses) for the Native
   path to re-raise. *)
type 'r plan = {
  stage_linq : Metrics.Probe.t option -> unit -> 'r;
  stage_fused : Metrics.Probe.t option -> unit -> 'r;
  lower : unit -> (Quil.chain rewritten, exn) result;
}

let lowered_exn plan = match plan.lower () with Ok rw -> rw | Error e -> raise e

(* [f ()] computed at most once.  A domain forcing it while another one
   does waits for that result, where a bare [Lazy.force] would raise. *)
let once f =
  let mu = Mutex.create () and v = lazy (f ()) in
  fun () -> Mutex.protect mu (fun () -> Lazy.force v)

let linq_wrapper = function
  | None -> Linq.unprobed
  | Some pr -> linq_probe_wrapper pr

let fused_wrapper = function
  | None -> Fused.unprobed
  | Some pr -> fused_probe_wrapper pr

(* {2 Per-kind dispatch}

   The engine prepares, checks, explains and verifies a ['r Query.root]
   through one pipeline; everything that differs between a row plan and
   a scalar plan is one of the functions in this block.  The stage
   libraries they call recurse structurally over the two mutually
   recursive AST types, which is why each has one entry point per
   kind. *)

let canon_of : type r. r Query.root -> Quil.chain = function
  | Query.Rows q -> Canon.of_query q
  | Query.Scalar sq -> Canon.of_scalar sq

let lint : type r. r Query.root -> Check.diagnostic list = function
  | Query.Rows q -> Check.query q
  | Query.Scalar sq -> Check.scalar sq

let flow_annotations : type r.
    r Query.root -> (string * Check_flow.props) list = function
  | Query.Rows q -> Check_flow.annotate q
  | Query.Scalar sq -> Check_flow.annotate_scalar sq

(* The flow analysis's bound on a plan's output rows, the prior for the
   cost-based backend choice.  A scalar plan has none: the aggregate's
   own cardinality is one, so only observed source rows can justify
   skipping the native dispatch. *)
let static_rows : type r. r Query.root -> int option = function
  | Query.Rows q -> ((Check_flow.props q).Check_flow.card).Check_purity.hi
  | Query.Scalar _ -> None

let result_rows : type r. r Query.root -> r -> int option =
 fun r result ->
  match r with
  | Query.Rows _ -> Some (Array.length result)
  | Query.Scalar _ -> None

let specialize : type r. r Query.root -> r Query.root = function
  | Query.Rows q -> Query.Rows (Specialize.query q)
  | Query.Scalar sq -> Query.Scalar (Specialize.scalar sq)

let canon_of_specialized : type r. r Query.root -> Quil.chain = function
  | Query.Rows q -> Canon.of_specialized q
  | Query.Scalar sq -> Canon.of_specialized_scalar sq

(* Staging returns the plan's run function: rows are collected into an
   array, a scalar is the staged value itself. *)
let stage_linq : type r. Linq.wrapper -> r Query.root -> unit -> r =
 fun w -> function
  | Query.Rows q ->
    let staged = Linq.stage_probed w q in
    fun () -> Enumerable.to_array (staged Expr.Open.empty)
  | Query.Scalar sq ->
    let staged = Linq.stage_sq_probed w sq in
    fun () -> staged Expr.Open.empty

let stage_fused : type r. Fused.wrapper -> r Query.root -> unit -> r =
 fun w -> function
  | Query.Rows q ->
    let staged = Fused.stage_probed w q in
    fun () -> Fused.materialize (staged Expr.Open.empty)
  | Query.Scalar sq ->
    let staged = Fused.stage_sq_probed w sq in
    fun () -> staged Expr.Open.empty

(* The recording schema for adaptive statistics: the probed operator
   spine of the plan that will actually execute, in probe-point order
   (source first), with each [Where]'s digest and the measured
   selectivity this preparation assumed for it — [None] when the
   assumption was only the static prior, so drift detection never fires
   against a guess (a fresh query whose true selectivity is far from 0.5
   is the expected case, not a stale plan).  Nested sub-plans (join
   inner sides, subqueries) stage without probe points and are therefore
   not walked. *)
type rec_op = R_src of string | R_where of string * float option | R_other

(* Like [Opt.estimator] but honest about provenance: [None] when the
   store holds no observation for the predicate. *)
type sel_oracle = { sel : 'a. ('a, bool) Expr.lam -> float option }

(* A source records its label, the one its probe point carries. *)
let rec query_schema : type a. sel_oracle -> a Query.t -> rec_op list =
 fun est q ->
  let op =
    match q with
    | Query.Of_array _ | Query.Range _ | Query.Repeat _ ->
      R_src (Query.label q)
    | Query.Where (_, p) -> R_where (Cost.pred_digest p, est.sel p)
    | _ -> R_other
  in
  spine_schema est (Query.input q) @ [ op ]

(* A scalar query's probe points cover only its collection spine (the
   aggregate itself gets no point), so its schema is the spine's. *)
and sq_schema : type s. sel_oracle -> s Query.sq -> rec_op list =
 fun est sq -> spine_schema est (Some (Query.sq_input sq))

and spine_schema est = function
  | None -> []
  | Some (Query.Plan q) -> query_schema est q
  | Some (Query.Plan_sq sq) -> sq_schema est sq

let schema_of : type r. sel_oracle -> r Query.root -> rec_op list =
 fun est -> function
  | Query.Rows q -> query_schema est q
  | Query.Scalar sq -> sq_schema est sq

(* {2 The plan memo}

   A Native prepare whose unoptimized root has the [Cost.shape] key of
   an earlier one skips the checks, the optimizer, translation
   validation, specialization, canonicalization and code generation: it
   finds the earlier plugin in the plugin cache, binds this root's
   captures into its environment, and runs.  An entry holds what that
   takes, plus what the skipped stages reported ([Steno_memo]).  With a
   disk cache, the entry is also a [Pcache] record, so a restarted
   process skips the same stages. *)

type memo_slot = Steno_memo.slot = Class of int | Empty_array

type memo_entry = {
  m_plugin : Digest.t;  (* the MD5 of the plugin-cache key *)
  m_entry : Steno_memo.entry;
}

(* The name of a shape's disk record.  The generator digest makes a
   store written by another build of the front half and code generator
   miss: its plans, slot maps and logs need not be this build's. *)
let memo_record_name (sh : Cost.shape) = Steno_generator.digest ^ sh.Cost.key

(* The slot map of a fresh plugin, or [None] when a slot cannot be
   traced back to the root.  A slot holding a capture maps to its class,
   and an empty array held by no capture is the optimizer's.  An empty
   array that is also a capture is ambiguous (the capture table merges
   the two), unless the key holds that capture's length, so that every
   hit binds an empty array there too.  Any other value the root does not
   hold, such as one a future rewrite invents, keeps the plan out of the
   memo. *)
let memo_slots (sh : Cost.shape) entries =
  let exception Unmapped in
  let class_of r =
    let rec go i =
      if i >= Array.length sh.Cost.captures then None
      else if sh.Cost.captures.(i) == r then Some i
      else go (i + 1)
    in
    go 0
  in
  match
    Array.map
      (fun (Expr.Capture_table.Entry (_, v)) ->
        let r = Obj.repr v in
        let empty = Obj.is_block r && Obj.size r = 0 in
        match class_of r with
        | Some i when (not empty) || List.mem i sh.Cost.sized -> Class i
        | None when empty -> Empty_array
        | Some _ | None -> raise Unmapped)
      entries
  with
  | slots -> Some slots
  | exception Unmapped -> None

(* A slot map read from disk binds only classes this shape has. *)
let memo_slots_fit (sh : Cost.shape) slots =
  Array.for_all
    (function
      | Class i -> i >= 0 && i < Array.length sh.Cost.captures
      | Empty_array -> true)
    slots

let memo_env (sh : Cost.shape) slots () =
  Array.map
    (function
      | Class i -> sh.Cost.captures.(i) | Empty_array -> Obj.repr [||])
    slots

(* {1 Configuration} *)

module Config = struct
  type tiering = { threshold : int }

  type adaptive = { drift : float; fused_below : int }

  type disk_cache = { dir : string; max_bytes : int; max_entries : int }

  type tracing = { sample : float; ring : int; slow_ms : float option }

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

  let default =
    {
      backend = (if native_available () then Native else Fused);
      fallback = true;
      optimize = true;
      compile_timeout_ms = None;
      cache_capacity = 128;
      profile = false;
      metrics = Metrics.default ();
      strict = false;
      tiering = None;
      adaptive = None;
      disk_cache = None;
      tracing = None;
    }

  let with_backend backend t = { t with backend }
  let with_fallback fallback t = { t with fallback }
  let with_optimize optimize t = { t with optimize }
  let with_compile_timeout compile_timeout_ms t = { t with compile_timeout_ms }
  let with_cache_capacity cache_capacity t = { t with cache_capacity }
  let with_profile profile t = { t with profile }
  let with_metrics metrics t = { t with metrics }
  let with_strict strict t = { t with strict }
  let with_tiering ?(threshold = 8) t = { t with tiering = Some { threshold } }
  let without_tiering t = { t with tiering = None }

  let with_adaptive ?(drift = 0.3) ?(fused_below = 64) t =
    { t with adaptive = Some { drift; fused_below } }

  let without_adaptive t = { t with adaptive = None }

  let with_disk_cache ~dir ?(max_bytes = 256 * 1024 * 1024)
      ?(max_entries = 512) t =
    { t with disk_cache = Some { dir; max_bytes; max_entries } }

  let without_disk_cache t = { t with disk_cache = None }

  let with_tracing ?(sample = 1.0) ?(ring = 256) ?slow_ms t =
    { t with tracing = Some { sample; ring; slow_ms } }

  let without_tracing t = { t with tracing = None }
end

module String_map = Map.Make (String)

module Engine = struct
  (* Re-exported so existing [{ default_config with backend = ... }]
     record syntax keeps working; [Config.t] with its combinators is the
     primary construction surface. *)
  type config = Config.t = {
    backend : backend;
    fallback : bool;
    optimize : bool;
    compile_timeout_ms : int option;
    cache_capacity : int;
    profile : bool;
    metrics : Metrics.t;
    strict : bool;
    tiering : Config.tiering option;
    adaptive : Config.adaptive option;
    disk_cache : Config.disk_cache option;
    tracing : Config.tracing option;
  }

  type t = {
    cfg : config;
    tracer : Trace.t;
        (* Request-scoped tracing (see [Trace]); [Trace.disabled] unless
           the configuration asked for it.  Every stage span and event
           the engine reports is recorded here, in the trace of the
           request it served. *)
    cache : (string, Dynload.compiled) Steno_lru.t;
    flight :
      (string, (bool * Dynload.compiled, fallback_reason) result)
        Steno_flight.t;
        (* Single-flight group keyed by plugin cache key: concurrent
           identical prepares share one compile.  The flight value
           carries (cache_hit, plugin) on success so followers can
           report how the leader got the plugin. *)
    pcache : Pcache.t option;
        (* The persistent on-disk plugin store, when the configuration
           asked for one.  Consulted between the in-process LRU and the
           compiler. *)
    cost : Cost.t;
        (* Per-plan runtime statistics feeding the adaptive phase.
           Always allocated (it is a few words when unused) and shared
           by every derived engine copy — sessions and [force_profile]
           views feed the same store, which is exactly what lets a
           profiled run teach an unprofiled prepare. *)
    memo : (string, memo_entry) Steno_lru.t;
        (* The plan memo, keyed by [Cost.shape] and bounded and sharded
           like [cache].  Shared by derived engine copies: the key holds
           every configuration flag the front half reads. *)
    ins : instruments;
  }

  (* A counter registered on its first use and kept from then on.
     Registering only then keeps a scrape from listing a series nothing
     has counted into; two domains racing on the first use register the
     same series and store the same handle. *)
  and lazy_counter = {
    lc_make : unit -> Metrics.counter;
    lc_cell : Metrics.counter option Atomic.t;
  }

  (* The engine's counters on the prepare path, built once per registry
     so a prepare takes no registry lock and renders no labels. *)
  and instruments = {
    compile_ok : lazy_counter;
        (* Every actual plugin build counts: with the single-flight
           group, "N concurrent identical prepares run exactly one
           compile" is an invariant tests can assert on it. *)
    compile_error : lazy_counter;
    verify_accepted : lazy_counter;
        (* Once per validated plan (not per obligation), and only when
           the optimizer fired something. *)
    verify_rejected : lazy_counter;
    prepare_dedup : lazy_counter;
    pda_checks : lazy_counter;
    pcache_hits : lazy_counter;
    pcache_misses : lazy_counter;
    pcache_evictions : lazy_counter;
    pcache_dropped : lazy_counter;
    memo_hit : lazy_counter;
    memo_miss : lazy_counter;
    tier_ok : lazy_counter;
    tier_failed : lazy_counter;
    diagnostics : Metrics.counter String_map.t Atomic.t;
        (* [check_diagnostics] by severity and rule code, each
           registered on its first diagnostic. *)
  }

  let lazy_counter make = { lc_make = make; lc_cell = Atomic.make None }

  let counter lc =
    match Atomic.get lc.lc_cell with
    | Some c -> c
    | None ->
      let c = lc.lc_make () in
      Atomic.set lc.lc_cell (Some c);
      c

  let count lc = Metrics.inc (counter lc)

  (* The events the engine reports, by name.  Each is an instant in the
     active trace, with its count as ["n"]; the events the engine also
     counts in its registry name their counter here, so one [event] call
     records both. *)
  let event_counter ins = function
    | "cache.miss" -> Some ins.compile_ok
    | "pcache.hit" -> Some ins.pcache_hits
    | "flight.join" -> Some ins.prepare_dedup
    | "tier.promote" -> Some ins.tier_ok
    | _ -> None

  let record_event tracer ins ?(n = 1) ?(attrs = []) name =
    if Trace.active tracer then
      Trace.instant tracer name ~attrs:(("n", string_of_int n) :: attrs) ();
    match event_counter ins name with
    | Some lc -> Metrics.add (counter lc) n
    | None -> ()

  let event eng ?n name = record_event eng.tracer eng.ins ?n name

  let default_config = Config.default

  (* Handles for the optional subsystems' counters that are looked up
     rarely.  [Metrics.counter] is get-or-register on (name, labels), so
     these are safe from any domain. *)
  let adaptive_c eng decision =
    Metrics.counter eng.cfg.metrics "steno_adaptive"
      ~help:
        "Decisions taken by the cost-based adaptive optimization phase"
      ~labels:[ "decision", decision ]

  let instruments m =
    let c ?(labels = []) name help =
      lazy_counter (fun () -> Metrics.counter m name ~help ~labels)
    in
    let compile result =
      c "steno_compile"
        "External compiler invocations (cache hits and deduplicated \
         prepares do not count)"
        ~labels:[ "result", result ]
    in
    let verify result =
      c "steno_verify" "Translation-validation outcomes for optimizer rewrites"
        ~labels:[ "result", result ]
    in
    let tier result =
      c "steno_tier_promotions"
        "Background tier promotions of hot prepared queries (Fused -> \
         Native)"
        ~labels:[ "result", result ]
    in
    let plan_memo result =
      c "steno_plan_memo"
        "Native prepares eligible for the plan memo, by whether an earlier \
         prepare of the same root served them"
        ~labels:[ "result", result ]
    in
    {
      compile_ok = compile "ok";
      compile_error = compile "error";
      verify_accepted = verify "accepted";
      verify_rejected = verify "rejected";
      prepare_dedup =
        c "steno_prepare_dedup"
          "Prepares that joined another domain's in-flight compile instead \
           of invoking the compiler";
      pda_checks =
        c "steno_pda_checks" "Strict-mode PDA acceptance checks at prepare time";
      pcache_hits =
        c "steno_pcache_hits"
          "Plugin loads served from the persistent on-disk cache";
      pcache_misses =
        c "steno_pcache_misses"
          "Persistent-cache lookups that found no usable entry (including \
           corrupt artifacts dropped at load time)";
      pcache_evictions =
        c "steno_pcache_evictions"
          "Entries evicted from the persistent on-disk cache by its caps";
      pcache_dropped =
        c "steno_pcache_store_dropped"
          "Plugins and records not written to the persistent on-disk cache \
           because its publisher's queue was full";
      memo_hit = plan_memo "hit";
      memo_miss = plan_memo "miss";
      tier_ok = tier "ok";
      tier_failed = tier "failed";
      diagnostics = Atomic.make String_map.empty;
    }

  let create cfg =
    let tracer =
      match cfg.tracing with
      | None -> Trace.disabled
      | Some { Config.sample; ring; slow_ms } ->
        Trace.create ~sample ~ring ?slow_ms ~metrics:cfg.metrics ()
    in
    let ins = instruments cfg.metrics in
    (* Dynlink cannot unload plugin code, so a released handle is only
       dropped — but the release is now observable rather than silent. *)
    let on_evict _key (_ : Dynload.compiled) =
      record_event tracer ins "cache.release"
    in
    (* Shard the plugin-cache lock once the cache is large enough that
       shard-local LRU order is a good approximation of global order;
       tiny caches keep one shard and exact eviction order. *)
    let shards = if cfg.cache_capacity >= 32 then 8 else 1 in
    let pcache =
      match cfg.disk_cache with
      | None -> None
      | Some { Config.dir; max_bytes; max_entries } ->
        Some
          (Pcache.create ~max_bytes ~max_entries
             ~fingerprint:(Dynload.fingerprint ()) ~dir ())
    in
    let eng =
      {
        cfg;
        tracer;
        cache =
          Steno_lru.create ~on_evict ~shards ~capacity:cfg.cache_capacity ();
        flight = Steno_flight.create ();
        pcache;
        cost = Cost.create ();
        memo = Steno_lru.create ~shards ~capacity:cfg.cache_capacity ();
        ins;
      }
    in
    (* Register the memo and optional-feature families eagerly, so a
       scrape shows them at zero before the first memo lookup, disk lookup
       or promotion. *)
    ignore (counter ins.memo_hit);
    ignore (counter ins.memo_miss);
    if pcache <> None then begin
      ignore (counter ins.pcache_hits);
      ignore (counter ins.pcache_misses);
      ignore (counter ins.pcache_evictions);
      ignore (counter ins.pcache_dropped)
    end;
    if cfg.tiering <> None then ignore (counter ins.tier_ok);
    if cfg.adaptive <> None then begin
      ignore (adaptive_c eng "reorder");
      ignore (adaptive_c eng "backend-fused");
      ignore (adaptive_c eng "drift")
    end;
    eng

  let pcache_stats e = Option.map Pcache.stats e.pcache

  let pcache_dir e = Option.map Pcache.dir e.pcache

  let config e = e.cfg

  let adaptive_config e = e.cfg.adaptive

  let cost_store e = e.cost

  let tracer e = e.tracer

  let metrics e = e.cfg.metrics

  type cache_stats = {
    capacity : int;
    entries : int;
    hits : int;
    misses : int;
    evictions : int;
  }

  let cache_stats e =
    let s = Steno_lru.stats e.cache in
    {
      capacity = s.Steno_lru.capacity;
      entries = s.Steno_lru.entries;
      hits = s.Steno_lru.hits;
      misses = s.Steno_lru.misses;
      evictions = s.Steno_lru.evictions;
    }

  let cache_size e = Steno_lru.length e.cache

  let clear_cache e =
    Steno_lru.clear e.cache;
    Steno_lru.clear e.memo

  let memo_size e = Steno_lru.length e.memo

  let traced_run eng backend f =
    if not (Trace.enabled eng.tracer) then f
    else
      let attrs = [ "backend", backend_name backend ] in
      fun () -> Trace.with_span eng.tracer "run" ~attrs f

  (* Wrap a preparation's run function with the profile bookkeeping:
     accumulate wall time and native row deltas into the probe points,
     and flush per-run operator deltas into the engine's metrics
     registry.  The instrument handles are registered once here, at
     prepare time.  Runs themselves are counted by the session that
     runs the preparation ([Session.instrument]), once. *)
  let wrap_profiled eng (prof : profile) run =
    let m = eng.cfg.metrics in
    let bl = [ "backend", backend_name prof.prof_backend ] in
    let handles =
      List.map
        (fun (pt : Metrics.Probe.point) ->
          let labels =
            bl
            @ [
                "op", pt.Metrics.Probe.pt_label;
                "index", string_of_int pt.Metrics.Probe.pt_index;
              ]
          in
          ( pt,
            Metrics.counter m "steno_operator_rows"
              ~help:"Rows leaving each operator edge of profiled queries"
              ~labels,
            Metrics.counter m "steno_operator_calls"
              ~help:
                "Indirect or closure calls observed per operator (0 on the \
                 native backend: compiled loops make none)"
              ~labels,
            ref 0,
            ref 0 ))
        (Metrics.Probe.points prof.prof_probe)
    in
    fun () ->
      (match prof.prof_native_rows with
      | Some arr -> Array.fill arr 0 (Array.length arr) 0
      | None -> ());
      let t0 = now_ms () in
      let r = run () in
      let dt = now_ms () -. t0 in
      prof.prof_runs <- prof.prof_runs + 1;
      prof.prof_run_ms <- prof.prof_run_ms +. dt;
      (match prof.prof_native_rows with
      | Some arr ->
        List.iteri
          (fun i (pt : Metrics.Probe.point) ->
            if i < Array.length arr then
              pt.Metrics.Probe.pt_rows <-
                pt.Metrics.Probe.pt_rows + Array.unsafe_get arr i)
          (Metrics.Probe.points prof.prof_probe)
      | None -> ());
      (* The fused wrapper counts only rows per element; one row = one
         closure call, settled here once per run.  Derived points
         (cardinality-preserving transforms) take the upstream point's
         accumulated rows. *)
      if prof.prof_backend = Fused then (
        let prev = ref 0 in
        List.iter
          (fun (pt : Metrics.Probe.point) ->
            if pt.Metrics.Probe.pt_derived then
              pt.Metrics.Probe.pt_rows <- !prev;
            prev := pt.Metrics.Probe.pt_rows;
            pt.Metrics.Probe.pt_calls <- pt.Metrics.Probe.pt_rows)
          (Metrics.Probe.points prof.prof_probe));
      List.iter
        (fun ((pt : Metrics.Probe.point), rows_c, calls_c, last_r, last_c) ->
          Metrics.add rows_c (pt.Metrics.Probe.pt_rows - !last_r);
          last_r := pt.Metrics.Probe.pt_rows;
          Metrics.add calls_c (pt.Metrics.Probe.pt_calls - !last_c);
          last_c := pt.Metrics.Probe.pt_calls)
        handles;
      r

  let error_to_reason : Dynload.error -> fallback_reason = function
    | Dynload.Unavailable -> Compiler_unavailable
    | Dynload.Timeout { timeout_ms } -> Compile_timeout timeout_ms
    | Dynload.Compile_error msg -> Compile_error msg
    | Dynload.Load_error msg -> Load_error msg

  (* A preparation running [run] on [info.backend], profiled on
     [probe] (with the native row cells, on Native). *)
  let make_prep eng ?probe (p_info : compile_info) run =
    let p_profile =
      Option.map
        (fun (prof_probe, prof_native_rows) ->
          {
            prof_backend = p_info.backend;
            prof_probe;
            prof_native_rows;
            prof_runs = 0;
            prof_run_ms = 0.0;
          })
        probe
    in
    let run =
      match p_profile with None -> run | Some p -> wrap_profiled eng p run
    in
    {
      run_fn = traced_run eng p_info.backend run;
      p_info;
      p_rules = [];
      p_profile;
      p_diags = [];
      p_tier = Atomic.make p_info.backend;
      p_decisions = [];
    }

  (* The end of every Native preparation, whether it ran the pipeline
     ([compile_native]) or the plan memo replayed one ([memo_hit]): bind
     the environment, wrap the plugin's entry point, and account. *)
  let native_prep eng ~t0 ~t1 ~cache_hit ?native_probe ~env
      (plugin : Dynload.compiled) : 'r prep =
    let t2 = now_ms () in
    let env = Trace.with_span eng.tracer "env-bind" env in
    let raw_run () =
      try plugin.Dynload.run env with e -> raise (translate_exn e)
    in
    let probe =
      Option.map
        (fun np ->
          (* One point per generated edge, same order as the labels; the
             run wrapper folds the array's per-run deltas into them. *)
          let pr = Metrics.Probe.create () in
          Array.iter
            (fun lbl -> ignore (Metrics.Probe.point pr lbl))
            np.Codegen.probe_labels;
          pr, Some np.Codegen.probe_rows)
        native_probe
    in
    make_prep eng ?probe
      {
        backend = Native;
        requested = Native;
        cache_hit;
        prepare_ms = now_ms () -. t0;
        codegen_ms = t1 -. t0;
        compile_ms = (if cache_hit then 0.0 else t2 -. t1);
        fallback = None;
      }
      (fun () -> Obj.obj (raw_run ()))

  (* The in-memory copy of a memo entry keeps its plan text only where a
     hit can show it: sessions share the tracer, so one that is off now
     stays off for every hit. *)
  let memo_add eng (shape : Cost.shape) m_plugin (e : Steno_memo.entry) =
    let m_entry =
      if Trace.enabled eng.tracer then e else { e with Steno_memo.plan = "" }
    in
    ignore (Steno_lru.add eng.memo shape.Cost.key { m_plugin; m_entry })

  (* Load a stored plugin under a ["dynlink"] span.  A plugin that raises
     while loading is as unusable as one that fails to load. *)
  let load_stored eng path =
    Trace.with_span eng.tracer "dynlink" @@ fun () ->
    try Dynload.load_file ~path ()
    with _ -> Error (Dynload.Load_error "cached plugin raised")

  (* The full Native pipeline: the plan's chain, codegen, then the
     bounded plugin cache, then compile+load under the engine's timeout,
     then environment binding.  With [memo = (shape, rules, diags)], a
     prepare that gets a plugin records an entry for it under [shape]
     (its slot map, the front half's [rules] and then the chain pass's,
     [diags] and the plan): in the plan memo, and with a disk cache as a
     record, inside the published [.key] when this prepare compiled the
     plugin, in a file of its own when it did not.

     Cache lookup and compilation run inside a single-flight call keyed
     by the plugin cache key: when several domains prepare the same
     query concurrently, one of them (the leader) performs the lookup
     and — on a miss — the compile; the others block until it finishes
     and share its plugin (or its failure), instead of racing N compiler
     invocations for one cache slot. *)
  let compile_native ?memo eng (plan : 'r plan) ~t0 :
      ('r prep, fallback_reason) result =
    let chain_pass = lowered_exn plan in
    let chain = chain_pass.rw_out in
    let native_probe =
      if eng.cfg.profile then Some (Codegen.probe_of_chain chain) else None
    in
    let out =
      Trace.with_span eng.tracer "codegen" (fun () ->
          Codegen.generate ?probe:native_probe chain)
    in
    let t1 = now_ms () in
    (* The generated source already reflects any rewriting (and any probe
       increments), but the key still carries the optimizer and profile
       flags explicitly: a plugin compiled with optimization off must
       never satisfy an optimized lookup of a coincidentally identical
       source (and vice versa), e.g. across a config change on a shared
       engine. *)
    let cache_key =
      (if eng.cfg.profile then "P1:" else "P0:")
      ^ (if eng.cfg.optimize then "O1:" else "O0:")
      ^ out.Codegen.source
    in
    (* The plugin cache, the single-flight group and the memo key a
       plugin by the MD5 of [cache_key], which also names it in the disk
       cache; the disk cache compares [cache_key] itself. *)
    let digest = Digest.string cache_key in
    let entry =
      lazy
        (Option.bind memo (fun (shape, rules, diags) ->
             Option.map
               (fun slots ->
                 ( shape,
                   {
                     Steno_memo.slots;
                     rules =
                       dedup_consecutive
                         (rules @ event_names chain_pass.rw_fired);
                     diags;
                     plan =
                       (if eng.pcache <> None || Trace.enabled eng.tracer then
                          Quil.symbol_string chain
                        else "");
                   } ))
               (memo_slots shape
                  (Expr.Capture_table.entries out.Codegen.table))))
    in
    (* The leader registers its trace id as the flight note, so a
       follower from another request can record which trace actually
       paid for the compile it joined. *)
    let note = Option.map Trace.ctx_id (Trace.current ()) in
    let led, leader_note, looked_up =
      Steno_flight.run ?note eng.flight digest @@ fun () ->
      match Steno_lru.find eng.cache digest with
      | Some p ->
        event eng "cache.hit";
        Ok (true, p)
      | None -> (
        (* Between the in-process LRU and the compiler sits the
           persistent store: an artifact compiled by an earlier process
           (or another engine on the same directory) loads in ~the
           dynlink cost alone.  Anything wrong with a cached artifact —
           torn file, stale ABI that slipped past the fingerprint, a
           hostile edit — downgrades to a miss: drop the entry and let
           the compiler rebuild it. *)
        let from_disk =
          match eng.pcache with
          | None -> None
          | Some pc -> (
            match
              Trace.with_span eng.tracer "pcache.lookup" (fun () ->
                  Pcache.find pc ~key:cache_key)
            with
            | None ->
              count eng.ins.pcache_misses;
              None
            | Some path -> (
              match load_stored eng path with
              | Ok p ->
                event eng "pcache.hit";
                Some p
              | Error _ ->
                (* The store re-counts this lookup as a miss too. *)
                Pcache.reject pc ~key:cache_key;
                count eng.ins.pcache_misses;
                None))
        in
        match from_disk with
        | Some p ->
          if Steno_lru.add eng.cache digest p then event eng "cache.eviction";
          (* No compile happened: for this preparation's cost accounting
             a disk hit is a cache hit. *)
          Ok (true, p)
        | None -> (
          match
            Trace.with_span eng.tracer "compile" (fun () ->
                Dynload.compile_artifact
                  ?timeout_ms:eng.cfg.compile_timeout_ms
                  ~source:out.Codegen.source ())
          with
          | Error e ->
            count eng.ins.compile_error;
            Error (error_to_reason e)
          | Ok a -> (
            match
              Trace.with_span eng.tracer "dynlink" (fun () ->
                  try Dynload.load_file ~path:a.Dynload.a_cmxs ()
                  with e ->
                    Dynload.remove_artifact a;
                    raise e)
            with
            | Error e ->
              Dynload.remove_artifact a;
              count eng.ins.compile_error;
              Error (error_to_reason e)
            | Ok loaded ->
              let p =
                {
                  loaded with
                  Dynload.timings =
                    {
                      Dynload.write_ms = a.Dynload.a_write_ms;
                      compile_ms = a.Dynload.a_compile_ms;
                      load_ms = loaded.Dynload.timings.Dynload.load_ms;
                    };
                  source_path = a.Dynload.a_ml;
                }
              in
              (* Hand the plugin's bytes to the store's publisher before
                 the scratch artifact is deleted; the store is written
                 off this path. *)
              (match eng.pcache with
              | None -> ()
              | Some pc ->
                let record =
                  Option.map
                    (fun (shape, e) ->
                      memo_record_name shape, Steno_memo.encode e)
                    (Lazy.force entry)
                in
                if
                  not
                    (Pcache.submit ?record pc ~key:cache_key
                       ~cmxs:a.Dynload.a_cmxs ~evicted:(fun n ->
                         Metrics.add (counter eng.ins.pcache_evictions) n))
                then count eng.ins.pcache_dropped);
              Dynload.remove_artifact a;
              (* Counts [steno_compile_total{result="ok"}] too. *)
              event eng "cache.miss";
              if Steno_lru.add eng.cache digest p then
                event eng "cache.eviction";
              Ok (false, p))))
    in
    if not led then begin
      (* This prepare joined another domain's in-flight compile. *)
      event eng "flight.join";
      (* Link this trace to the one that ran the compile. *)
      Trace.instant eng.tracer "flight.follow"
        ~attrs:
          (match leader_note with
          | Some leader_trace -> [ "leader_trace", leader_trace ]
          | None -> [])
        ()
    end;
    match looked_up with
    | Error reason -> Error reason
    | Ok (leader_hit, plugin) ->
      (* A follower reuses the leader's plugin without compiling, which
         is a cache hit as far as this preparation's cost accounting is
         concerned. *)
      let cache_hit = leader_hit || not led in
      Trace.annotate eng.tracer
        [
          "cache", (if cache_hit then "hit" else "miss");
          "dedup", (if led then "leader" else "follower");
        ];
      (match Lazy.force entry with
      | None -> ()
      | Some (shape, e) -> (
        memo_add eng shape digest e;
        match eng.pcache with
        | Some pc when cache_hit ->
          if
            not
              (Pcache.submit_record pc
                 {
                   Pcache.plugin = digest;
                   name = memo_record_name shape;
                   payload = Steno_memo.encode e;
                 })
          then count eng.ins.pcache_dropped
        | Some _ | None -> ()));
      let p =
        native_prep eng ~t0 ~t1 ~cache_hit ?native_probe plugin ~env:(fun () ->
            Expr.Capture_table.to_env out.Codegen.table)
      in
      Ok { p with p_rules = event_names chain_pass.rw_fired }

  let prep_of_staged eng ~t0 ~requested ~actual ~fallback staged =
    let probe =
      if eng.cfg.profile then Some (Metrics.Probe.create ()) else None
    in
    let ts = now_ms () in
    let run = staged probe in
    let staging_ms = now_ms () -. ts in
    make_prep eng
      ?probe:(Option.map (fun pr -> pr, None) probe)
      {
        backend = actual;
        requested;
        cache_hit = false;
        prepare_ms = now_ms () -. t0;
        codegen_ms = staging_ms;
        compile_ms = 0.0;
        fallback;
      }
      run

  let prepare_plan_result (eng : t) ?backend ?memo (plan : 'r plan) :
      ('r prep, fallback_reason) result =
    let requested = Option.value backend ~default:eng.cfg.backend in
    let t0 = now_ms () in
    match requested with
    | Linq ->
      Ok
        (prep_of_staged eng ~t0 ~requested ~actual:Linq ~fallback:None
           plan.stage_linq)
    | Fused ->
      Ok
        (prep_of_staged eng ~t0 ~requested ~actual:Fused ~fallback:None
           plan.stage_fused)
    | Native when eng.cfg.tiering <> None && not eng.cfg.profile ->
      (* Tiered execution: return instantly on the staged Fused tier and
         let run-count probes trigger a background Native compile.  Not
         combined with [profile] — the probe points are allocated per
         tier at staging/codegen time, so a hot swap would silently
         split the profile across two point sets; profiled engines keep
         the synchronous path below. *)
      let threshold =
        match eng.cfg.tiering with
        | Some { Config.threshold } -> max 1 threshold
        | None -> assert false
      in
      let base =
        prep_of_staged eng ~t0 ~requested ~actual:Fused ~fallback:None
          plan.stage_fused
      in
      let cell = Atomic.make base.run_fn in
      let runs = Atomic.make 0 in
      let started = Atomic.make false in
      let promote () =
        (* Runs on a pool domain.  [compile_native] goes through the
           single-flight group and both plugin caches, so concurrent
           promotions of the same query (even from different prepared
           handles) cost one compile — and a pcache hit makes promotion
           nearly free. *)
        Trace.with_span eng.tracer "tier.promote" @@ fun () ->
        match compile_native eng plan ~t0:(now_ms ()) with
        | Ok p ->
          Atomic.set cell p.run_fn;
          Atomic.set base.p_tier Native;
          event eng "tier.promote"
        | Error _ -> count eng.ins.tier_failed
        | exception _ -> count eng.ins.tier_failed
      in
      let run_fn () =
        let n = 1 + Atomic.fetch_and_add runs 1 in
        if n >= threshold && Atomic.compare_and_set started false true then
          (* The promotion compile runs later on a pool domain; handing
             it the current context attributes its spans to the request
             that tripped the threshold. *)
          Domain_pool.async ?ctx:(Trace.current ()) promote;
        Trace.annotate eng.tracer
          [ "tier", backend_name (Atomic.get base.p_tier) ];
        (* In-flight runs that loaded the cell before the swap finish on
           the old tier; the publication itself is a single atomic. *)
        (Atomic.get cell) ()
      in
      Ok { base with run_fn }
    | Native -> (
      match compile_native ?memo eng plan ~t0 with
      | Ok p -> Ok p
      | Error reason when eng.cfg.fallback ->
        event eng "engine.fallback";
        Trace.instant eng.tracer "fallback"
          ~attrs:[ "reason", fallback_reason_label reason ]
          ();
        Ok
          (prep_of_staged eng ~t0 ~requested ~actual:Fused
             ~fallback:(Some reason) plan.stage_fused)
      | Error reason -> Error reason)

  (* {2 The front half}

     Between the checks and the backends, every prepare rewrites its
     plan, validates each rewrite and lowers the result to QUIL, here
     and only here.  [explain], [verify] and [native_chain] read the
     same steps on an inspection copy of the engine.

     The optimizer is not trusted: every firing carries the facts that
     justified it, and the validator re-derives them on the captured
     terms.  An undischarged obligation rejects the pass — the prepare
     goes on with the pass's input and an [SC012] diagnostic or, when
     [strict], refuses outright. *)

  (* One pass at [level] ("ast", "adaptive" or "quil") under an
     [optimize] span, then, when it fired, its rules event and the
     validation of its log under a [verify] span, counted once into
     [steno_verify_total]. *)
  let rewrite eng ~level ~pass ~validate x =
    let attrs = [ "level", level ] in
    let x', events =
      Trace.with_span eng.tracer "optimize" ~attrs (fun () -> pass x)
    in
    if events = [] then unchanged x'
    else begin
      record_event eng.tracer eng.ins ~n:(List.length events) ~attrs
        "optimize.rules_applied";
      let obligations =
        Trace.with_span eng.tracer "verify" ~attrs (fun () ->
            validate ~before:x ~after:x' events)
      in
      let accepted = Check.Equiv.accepted obligations in
      count
        (if accepted then eng.ins.verify_accepted else eng.ins.verify_rejected);
      if accepted then
        { (unchanged x') with rw_fired = events; rw_obligations = obligations }
      else
        let detail = String.concat "; " (Check.Equiv.failures obligations) in
        {
          (unchanged x) with
          rw_obligations = obligations;
          rw_rejected = Some (Check.rejected_rewrite detail);
        }
    end

  (* A root specialized, and its canonical chain (or what
     canonicalizing raised: [Canon.Unsupported] for a root outside the
     QUIL fragment), each computed at most once.  A full prepare builds
     it for the check's [SC000] lint; when no rewrite changes the root,
     its plan lowers the same chain instead of specializing and
     canonicalizing again. *)
  type 'r lowering = {
    l_spec : unit -> 'r Query.root;
    l_chain : unit -> (Quil.chain, exn) result;
  }

  let lowering eng (r : 'r Query.root) =
    let l_spec =
      once (fun () ->
          Trace.with_span eng.tracer "specialize" (fun () -> specialize r))
    in
    let canon spec =
      Trace.with_span eng.tracer "canon" (fun () -> canon_of_specialized spec)
    in
    let l_chain = once (fun () -> try Ok (canon (l_spec ())) with e -> Error e) in
    { l_spec; l_chain }

  (* The stagers of a validated root, and the one chain it lowers to:
     specialize, canonicalize ([l], built for [r] unless given), the
     chain pass, the PDA. *)
  let plan_of ?lowered eng (r : 'r Query.root) : 'r plan =
    let l = match lowered with Some l -> l | None -> lowering eng r in
    let specialized = l.l_spec in
    let lower () =
      let c = match l.l_chain () with Ok c -> c | Error e -> raise e in
      let rw =
        if not eng.cfg.optimize then unchanged c
        else
          rewrite eng ~level:"quil" ~pass:Opt.chain_ev
            ~validate:(Check.Equiv.validate_chain ?laws:None) c
      in
      Check.assert_well_formed rw.rw_out;
      rw
    in
    {
      stage_linq =
        (fun probe ->
          let w = linq_wrapper probe in
          Trace.with_span eng.tracer "stage" (fun () -> stage_linq w r));
      stage_fused =
        (fun probe ->
          let w = fused_wrapper probe in
          let spec = specialized () in
          Trace.with_span eng.tracer "stage" (fun () -> stage_fused w spec));
      lower = once (fun () -> try Ok (lower ()) with e -> Error e);
    }

  (* {2 Adaptive (cost-based) optimization}

     The phase that closes the profiler→optimizer loop, gated by
     [Config.with_adaptive] and running after the syntactic fixpoint:

     - an estimator answers "what fraction of rows passes this
       predicate?" from the engine's [Cost] store when the plan has run
       under profiling, falling back to a static prior
       ([Check_purity.truth]: provably-true 1.0, provably-false 0.0,
       otherwise 0.5);
     - [Opt.adaptive_ev] reorders fused pure conjuncts by those
       estimates, logging one "stats-where-reorder" event per inverted
       pair — validated like any other rewrite (statistics pick among
       sound plans; they cannot make an unsound one acceptable);
     - the same estimates drive a backend decision (tiny inputs skip
       Native dispatch) and, in [Par], the partition count;
     - profiled runs feed per-operator row deltas back into the store,
       and a run whose fresh observations drift beyond the configured
       threshold from the selectivities this preparation assumed retires
       the stale statistics and re-prepares in the background, hot-
       swapping the run function atomically (the tiering pattern). *)

  let static_selectivity (lam : (_, bool) Expr.lam) =
    match Check_purity.truth (Expr.simplify lam.Expr.body) with
    | Check_purity.True -> 1.0
    | Check_purity.False -> 0.0
    | Check_purity.Unknown -> 0.5

  let estimator_for eng ~key =
    {
      Opt.est =
        (fun lam ->
          match
            Cost.selectivity eng.cost ~key ~digest:(Cost.pred_digest lam)
          with
          | Some s -> s
          | None -> static_selectivity lam);
    }

  let oracle_for eng ~key =
    {
      sel =
        (fun lam ->
          Cost.selectivity eng.cost ~key ~digest:(Cost.pred_digest lam));
    }

  (* Positional compatibility between the schema and the probe labels
     the executing backend actually allocated.  The staged backends
     label spine operators one-to-one; the native chain may append
     sink points (e.g. the materialize), so the schema must be a label-
     compatible prefix.  Any mismatch disables recording for the
     preparation rather than feeding garbage into the store. *)
  let rec_op_matches op label =
    match op with
    | R_src src -> label = src || label = "Src"
    | R_where _ -> label = "where" || label = "Pred"
    | R_other -> true

  let reorder_decisions events =
    List.filter_map
      (fun (e : Opt.event) ->
        match e.Opt.ev_facts with
        | [ Check.Equiv.Stats_selectivity (h, d, sh, sd) ] ->
          Some
            (Printf.sprintf
               "reordered: %s before %s, selectivity %.2f vs %.2f"
               (Cost.pred_label h) (Cost.pred_label d) sh sd)
        | _ -> None)
      events

  (* What the front half made of a root: the AST pass and, on an
     adaptive engine, the adaptive pass with the plan key it read the
     statistics under; then the validated root and its plan. *)
  type 'r front = {
    f_passes : 'r Query.root rewritten list;
    f_adaptive : (Config.adaptive * string) option;
    f_root : 'r Query.root;
    f_plan : 'r plan;
  }

  let front_fired f = List.concat_map (fun rw -> rw.rw_fired) f.f_passes

  let front_rejected f = List.filter_map (fun rw -> rw.rw_rejected) f.f_passes

  (* A strict engine lowers before dispatch, whatever the backend: a
     rejected chain pass, or a chain the PDA refuses, makes the plan
     unpreparable.  A root outside the QUIL fragment has no chain to
     check. *)
  let strict_chain eng plan =
    match plan.lower () with
    | Error (Check.Malformed_chain msg) ->
      count eng.ins.pda_checks;
      Error [ Check.malformed msg ]
    | Error _ -> Ok ()
    | Ok rw -> (
      count eng.ins.pda_checks;
      match rw.rw_rejected with Some d -> Error [ d ] | None -> Ok ())

  (* The front half of a prepare: the validated AST pass, the validated
     adaptive pass, and the plan of the result.  Only a [strict] engine
     turns a rejected pass into [Error]; it also forces the chain here.
     A traced prepare forces it too, for the trace's [plan] attribute.
     Otherwise the Native path is the first to build the chain. *)
  let front ?lowered eng r =
    let ( let* ) = Result.bind in
    let settle rw =
      match rw.rw_rejected with
      | Some d when eng.cfg.strict -> Error [ d ]
      | Some _ | None -> Ok rw
    in
    let* ast =
      if not eng.cfg.optimize then Ok (unchanged r)
      else
        settle
          (rewrite eng ~level:"ast" ~pass:Opt.plan_ev
             ~validate:(Check.Equiv.validate ?laws:None) r)
    in
    (* The plan key is taken after the syntactic fixpoint but before the
       adaptive pass: the fixpoint is deterministic, so a drift
       re-preparation lands on the same key, while the key never depends
       on the statistics-driven ordering it feeds.  Profiled engines
       split fused conjuncts into stacked filters, one probe point
       each. *)
    let f_adaptive =
      Option.map
        (fun a -> a, Cost.plan_key ~optimize:eng.cfg.optimize ast.rw_out)
        eng.cfg.adaptive
    in
    let* f_passes, f_root =
      match f_adaptive with
      | None -> Ok ([ ast ], ast.rw_out)
      | Some (_, key) ->
        let rw =
          rewrite eng ~level:"adaptive"
            ~pass:
              (Opt.adaptive_ev (estimator_for eng ~key) ~split:eng.cfg.profile)
            ~validate:(Check.Equiv.validate ?laws:None) ast.rw_out
        in
        (match rw.rw_rejected with
        | None ->
          Metrics.add (adaptive_c eng "reorder") (List.length rw.rw_fired)
        | Some _ -> Metrics.inc (adaptive_c eng "rejected"));
        Result.map (fun rw -> [ ast; rw ], rw.rw_out) (settle rw)
    in
    (* An AST pass that fired nothing leaves the root as it was (only a
       fired rule changes it, and only then is the change validated);
       the adaptive pass may also split filters silently. *)
    let lowered =
      match lowered with
      | Some _ when ast.rw_fired = [] && f_adaptive = None -> lowered
      | Some _ | None -> None
    in
    let f_plan = plan_of ?lowered eng f_root in
    let* () = if eng.cfg.strict then strict_chain eng f_plan else Ok () in
    (if Trace.active eng.tracer then
       match f_plan.lower () with
       | Ok rw ->
         Trace.annotate eng.tracer [ "plan", Quil.symbol_string rw.rw_out ]
       | Error _ -> ());
    Ok { f_passes; f_adaptive; f_root; f_plan }

  (* Cost-based backend choice: when the engine would dispatch to
     Native, a plan whose estimated input is tiny stays on the staged
     Fused tier — the compiled loop cannot amortize even a plugin-cache
     hit over a handful of rows.  Only engine-level dispatch is
     overridden (an explicit per-call [?backend] wins), and tiering
     already solves this warm-up problem its own way. *)
  let backend_choice eng ~key r backend =
    match eng.cfg.adaptive, backend with
    | Some a, None
      when eng.cfg.backend = Native && eng.cfg.tiering = None -> (
      let est_rows =
        match Cost.avg_source_rows eng.cost ~key with
        | Some r -> Some (int_of_float (Float.round r))
        | None -> static_rows r
      in
      match est_rows with
      | Some n when n <= a.Config.fused_below ->
        Metrics.inc (adaptive_c eng "backend-fused");
        ( Some Fused,
          [ Printf.sprintf "backend: fused (est. %d rows)" n ] )
      | _ -> backend, [])
    | _ -> backend, []

  (* Minimum per-run rows a predicate must have been tested on before a
     drift verdict: a couple of elements can always contradict an
     assumed fraction. *)
  let drift_min_tested = 4

  (* Wrap a profiled preparation's run function with observation
     recording and drift detection.  After every run the per-operator
     row deltas are folded into the cost store; the first run whose
     observed selectivities diverge from this preparation's assumptions
     by more than the configured threshold retires the stale statistics
     (they must not be averaged into the new distribution), seeds the
     fresh epoch with the post-drift run, and re-prepares in the
     background through the ordinary prepare path (hence single-flight
     and both plugin caches), hot-swapping the run function atomically
     when it lands.  The replacement preparation carries its own
     recording wrapper, so this one steps aside after the swap. *)
  let wrap_adaptive eng (a : Config.adaptive) ~key ~schema
      ~(rebuild : unit -> ('r prep, 'e) result) (p : 'r prep) : 'r prep =
    match p.p_profile with
    | None -> p
    | Some prof ->
      let pts = Array.of_list (Metrics.Probe.points prof.prof_probe) in
      let schema = Array.of_list schema in
      let n = Array.length schema in
      let compatible =
        n > 0
        && Array.length pts >= n
        && (let ok = ref true in
            Array.iteri
              (fun i op ->
                if
                  i < n
                  && not (rec_op_matches op pts.(i).Metrics.Probe.pt_label)
                then ok := false)
              schema;
            !ok)
      in
      if not compatible then p
      else begin
        let assumptions_live =
          Array.exists
            (function R_where (_, Some _) -> true | _ -> false)
            schema
        in
        let last = Array.make n 0 in
        let swapped : (unit -> 'r) option Atomic.t = Atomic.make None in
        let reprep_started = Atomic.make false in
        let base = p.run_fn in
        let reprepare () =
          Trace.with_span eng.tracer "adaptive.reprepare" @@ fun () ->
          match rebuild () with
          | Ok p' ->
            Atomic.set swapped (Some p'.run_fn);
            Atomic.set p.p_tier (Atomic.get p'.p_tier);
            Metrics.inc (adaptive_c eng "reprepare-ok")
          | Error _ -> Metrics.inc (adaptive_c eng "reprepare-failed")
          | exception _ -> Metrics.inc (adaptive_c eng "reprepare-failed")
        in
        let observe () =
          let deltas =
            Array.init n (fun i ->
                let d = pts.(i).Metrics.Probe.pt_rows - last.(i) in
                last.(i) <- pts.(i).Metrics.Probe.pt_rows;
                max 0 d)
          in
          let drifted = ref false in
          if assumptions_live && not (Atomic.get reprep_started) then
            Array.iteri
              (fun i op ->
                match op with
                | R_where (_, Some assumed) when i > 0 ->
                  let tested = deltas.(i - 1) in
                  if tested >= drift_min_tested then begin
                    let obs =
                      float_of_int deltas.(i) /. float_of_int tested
                    in
                    if Float.abs (obs -. assumed) > a.Config.drift then
                      drifted := true
                  end
                | _ -> ())
              schema;
          if
            !drifted
            && Atomic.compare_and_set reprep_started false true
          then begin
            Metrics.inc (adaptive_c eng "drift");
            (* Retire before seeding: the flipped distribution must not
               blend with the history that misled this preparation. *)
            Cost.retire eng.cost ~key;
            (* The re-prepare compiles later on a pool domain, through
               the full prepare pipeline (checks, rewrite, validation,
               caches). *)
            Domain_pool.async ?ctx:(Trace.current ()) reprepare
          end;
          let pred_deltas =
            let acc = ref [] in
            Array.iteri
              (fun i op ->
                match op with
                | R_where (digest, _) when i > 0 ->
                  acc :=
                    {
                      Cost.pd_digest = digest;
                      pd_tested = deltas.(i - 1);
                      pd_passed = deltas.(i);
                    }
                    :: !acc
                | _ -> ())
              schema;
            List.rev !acc
          in
          Cost.record eng.cost ~key ~source_rows:deltas.(0) pred_deltas
        in
        let run_fn () =
          match Atomic.get swapped with
          | Some f -> f ()
          | None ->
            let r = base () in
            (try observe () with _ -> ());
            r
        in
        { p with run_fn }
      end

  (* {2 Static checks} *)

  (* Count every diagnostic into the metrics registry, by severity and
     rule, and report them as one event.  Recording never raises:
     strictness is the caller's policy decision, applied on the
     result. *)
  let diagnostic_counter eng (d : Check.diagnostic) =
    let severity = Check.severity_string d.Check.d_severity in
    let key = severity ^ "/" ^ d.Check.d_code in
    let cell = eng.ins.diagnostics in
    match String_map.find_opt key (Atomic.get cell) with
    | Some c -> c
    | None ->
      let c =
        Metrics.counter eng.cfg.metrics "check_diagnostics"
          ~help:"Diagnostics emitted by prepare-time static checks"
          ~labels:[ "severity", severity; "rule", d.Check.d_code ]
      in
      let rec publish () =
        let m = Atomic.get cell in
        if not (Atomic.compare_and_set cell m (String_map.add key c m)) then
          publish ()
      in
      publish ();
      c

  let record_diagnostics eng diags =
    List.iter (fun d -> Metrics.inc (diagnostic_counter eng d)) diags;
    if diags <> [] then event eng ~n:(List.length diags) "check.diagnostics"

  (* Lint under its own traced span, record, then apply strictness:
     on a [strict] engine, [Error]-level diagnostics make the query
     unpreparable ([Error errs]); otherwise every diagnostic is merely
     reported alongside the preparation ([Ok diags]). *)
  let run_checks_result eng lint =
    let diags = Trace.with_span eng.tracer "check" lint in
    record_diagnostics eng diags;
    if eng.cfg.strict then
      match Check.errors diags with
      | [] -> Ok diags
      | errs -> Error errs
    else Ok diags

  (* An [SC000] diagnostic when the lowered chain fails the PDA.  Queries
     outside the QUIL fragment have no chain to verify. *)
  let chain_diags l =
    match l.l_chain () with
    | Error (Canon.Unsupported _) -> []
    | Error e -> raise e
    | Ok chain -> (
      match Check.verify chain with
      | Ok () -> []
      | Error msg -> [ Check.malformed msg ])

  let lint_all l r () = chain_diags l @ lint r

  let check_root eng r =
    match run_checks_result eng (lint_all (lowering eng r) r) with
    | Ok diags -> diags
    | Error errs -> raise (Check_failed errs)

  let check eng q = check_root eng (Query.Rows q)

  let check_scalar eng sq = check_root eng (Query.Scalar sq)

  (* {2 Preparing} *)

  (* Every way a preparation can be refused, as one value.  The raising
     entry points ([prepare], [prepare_scalar]) are wrappers that map
     this back onto the historical exceptions. *)
  type error =
    | Check_error of Check.diagnostic list
    | Compile_failure of fallback_reason

  let error_message = function
    | Check_error errs ->
      "static checks failed: "
      ^ String.concat "; " (List.map Check.to_string errs)
    | Compile_failure reason -> fallback_reason_message reason

  (* A memo hit runs the plugin an entry names on this root's captures.
     It replays what the skipped stages reported (diagnostic counts, the
     rewrite log, the trace's plan) but runs no check, validation or
     compile, so their counters do not move. *)
  let memo_replay eng (shape : Cost.shape) ~t0 (e : Steno_memo.entry) plugin =
    record_diagnostics eng e.Steno_memo.diags;
    if Trace.active eng.tracer then
      Trace.annotate eng.tracer [ "plan", e.Steno_memo.plan; "cache", "hit" ];
    event eng "cache.hit";
    let p =
      native_prep eng ~t0 ~t1:t0 ~cache_hit:true plugin
        ~env:(memo_env shape e.Steno_memo.slots)
    in
    { p with p_rules = e.Steno_memo.rules; p_diags = e.Steno_memo.diags }

  (* An in-memory hit needs the plugin cache to still hold the plugin.
     The probe counts only a hit: after a miss, the disk record or the
     full pipeline looks the plugin up again. *)
  let memo_hit eng (shape : Cost.shape) ~t0 =
    match Steno_lru.find eng.memo shape.Cost.key with
    | None -> None
    | Some m ->
      Option.map
        (memo_replay eng shape ~t0 m.m_entry)
        (Steno_lru.probe eng.cache m.m_plugin)

  (* A disk record is the entry an earlier process, or another engine on
     the same store, made.  Its lookup reads one file and freshens the
     plugin; the plugin then comes from the plugin cache or is loaded,
     through the single-flight group as in a full prepare.  A hit also
     fills the memo.  A plugin that does not load is rejected with its
     record, and the prepare runs in full. *)
  let memo_disk_hit eng (shape : Cost.shape) ~t0 =
    match eng.pcache with
    | None -> None
    | Some pc -> (
      let found =
        Trace.with_span eng.tracer "pcache.lookup" @@ fun () ->
        Pcache.find_record pc ~name:(memo_record_name shape) (fun payload ->
            match Steno_memo.decode payload with
            | Some e when memo_slots_fit shape e.Steno_memo.slots -> Some e
            | Some _ | None -> None)
      in
      match found with
      | None -> None
      | Some (e, r, cmxs) -> (
        let digest = r.Pcache.plugin in
        let _, _, plugin =
          Steno_flight.run eng.flight digest @@ fun () ->
          match Steno_lru.find eng.cache digest with
          | Some p -> Ok (true, p)
          | None -> (
            match load_stored eng cmxs with
            | Ok p ->
              if Steno_lru.add eng.cache digest p then
                event eng "cache.eviction";
              Ok (true, p)
            | Error e -> Error (error_to_reason e))
        in
        match plugin with
        | Ok (_, plugin) ->
          event eng "pcache.hit";
          memo_add eng shape digest e;
          Some (memo_replay eng shape ~t0 e plugin)
        | Error _ ->
          Pcache.reject_record pc r;
          count eng.ins.pcache_misses;
          None))

  (* The one [prepare] span of a prepare, around the memo lookups, the
     checks, the front half and the backend. *)
  let prepare_span eng backend f =
    let requested = Option.value backend ~default:eng.cfg.backend in
    Trace.with_span eng.tracer "prepare"
      ~attrs:[ "backend", backend_name requested ]
      f

  (* The whole pipeline.  With a memo [shape], a Native preparation is
     recorded in the memo under it.

     [rec]: a drift re-preparation re-enters this function from a pool
     domain with the original query (and requested backend), so the
     replacement plan goes through the whole pipeline — checks, the
     syntactic fixpoint, a fresh adaptive pass over the post-drift
     statistics, validation, and both plugin caches. *)
  let rec prepare_full : 'r. ?backend:backend -> ?shape:Cost.shape -> t ->
      'r Query.root -> ('r prep, error) result =
   fun ?backend ?shape eng r ->
    let ( let* ) checked k =
      match checked with Error errs -> Error (Check_error errs) | Ok v -> k v
    in
    let lowered = lowering eng r in
    let* diags = run_checks_result eng (lint_all lowered r) in
    let* f = front ~lowered eng r in
    let rejected = front_rejected f in
    record_diagnostics eng rejected;
    let rules = event_names (front_fired f) in
    let p_diags = rejected @ diags in
    let backend', be_decisions =
      match f.f_adaptive with
      | Some (_, key) -> backend_choice eng ~key f.f_root backend
      | None -> backend, []
    in
    let memo = Option.map (fun sh -> sh, rules, p_diags) shape in
    match prepare_plan_result eng ?backend:backend' ?memo f.f_plan with
    | Error reason -> Error (Compile_failure reason)
    | Ok p -> (
      (* A Native compile's log holds its chain pass's rules. *)
      let p =
        {
          p with
          p_rules = dedup_consecutive (rules @ p.p_rules);
          p_diags;
          p_decisions = reorder_decisions (front_fired f) @ be_decisions;
        }
      in
      match f.f_adaptive with
      | Some (a, key) when eng.cfg.profile ->
        Ok
          (wrap_adaptive eng a ~key
             ~schema:(schema_of (oracle_for eng ~key) f.f_root)
             ~rebuild:(fun () ->
               prepare_span eng backend (fun () -> prepare_full ?backend eng r))
             p)
      | Some _ | None -> Ok p)

  (* The plan memo serves Native requests only, and not on engines that
     tier or adapt (they start on Fused, or record statistics per
     prepare) or profile ([explain_analyze] forces profiling). *)
  let memo_eligible eng backend =
    Option.value backend ~default:eng.cfg.backend = Native
    && eng.cfg.tiering = None && eng.cfg.adaptive = None
    && not eng.cfg.profile

  let try_prepare_root ?backend eng r =
    prepare_span eng backend @@ fun () ->
    if not (memo_eligible eng backend) then prepare_full ?backend eng r
    else begin
      let t0 = now_ms () in
      let shape =
        Cost.shape ~optimize:eng.cfg.optimize ~strict:eng.cfg.strict r
      in
      let hit =
        match memo_hit eng shape ~t0 with
        | Some _ as hit -> hit
        | None -> memo_disk_hit eng shape ~t0
      in
      match hit with
      | Some p ->
        count eng.ins.memo_hit;
        Ok p
      | None ->
        count eng.ins.memo_miss;
        prepare_full ?backend ~shape eng r
    end

  let raise_error = function
    | Check_error errs -> raise (Check_failed errs)
    | Compile_failure reason ->
      raise (Dynload.Compilation_failed (fallback_reason_message reason))

  let prepare_root ?backend eng r =
    match try_prepare_root ?backend eng r with
    | Ok p -> p
    | Error e -> raise_error e

  let try_prepare ?backend eng q = try_prepare_root ?backend eng (Query.Rows q)

  let try_prepare_scalar ?backend eng sq =
    try_prepare_root ?backend eng (Query.Scalar sq)

  let prepare ?backend eng q = prepare_root ?backend eng (Query.Rows q)

  let prepare_scalar ?backend eng sq =
    prepare_root ?backend eng (Query.Scalar sq)

  let to_array ?backend eng q = (prepare ?backend eng q).run_fn ()

  let to_list ?backend eng q = Array.to_list (to_array ?backend eng q)

  let scalar ?backend eng sq = (prepare_scalar ?backend eng sq).run_fn ()

  (* {2 Explain} *)

  type explanation = {
    quil_before : string;
    quil_after : string;
    operators_before : int;
    operators_after : int;
    rules : string list;
    properties : (string * string) list;
    diagnostics : Check.diagnostic list;
  }

  (* The front half of [r] and its chain, on a copy of the engine that
     counts into a registry of its own, traces nothing and is not strict
     (so it reports a rejected rewrite instead of refusing): what a
     prepare compiles and discharges, without the prepare. *)
  let inspect eng r =
    let m = Metrics.create () in
    let eng =
      {
        eng with
        tracer = Trace.disabled;
        ins = instruments m;
        cfg = { eng.cfg with metrics = m; strict = false };
      }
    in
    Result.get_ok (front eng r)

  let native_chain eng r = (lowered_exn (inspect eng r).f_plan).rw_out

  let explain_root eng r =
    let before = canon_of r in
    let f = inspect eng r in
    let chain_pass = lowered_exn f.f_plan in
    let after = chain_pass.rw_out in
    {
      quil_before = Quil.symbol_string before;
      quil_after = Quil.symbol_string after;
      operators_before = Quil.operator_count before;
      operators_after = Quil.operator_count after;
      rules =
        dedup_consecutive (event_names (front_fired f @ chain_pass.rw_fired));
      properties =
        List.map
          (fun (label, p) -> label, Check_flow.props_string p)
          (flow_annotations f.f_root);
      diagnostics =
        front_rejected f @ Option.to_list chain_pass.rw_rejected @ lint r;
    }

  let explain eng q = explain_root eng (Query.Rows q)

  let explain_scalar eng sq = explain_root eng (Query.Scalar sq)

  let explain_to_string ex =
    let b = Buffer.create 256 in
    Printf.bprintf b "plan before: %s\n" ex.quil_before;
    Printf.bprintf b "plan after:  %s\n" ex.quil_after;
    Printf.bprintf b "operators:   %d -> %d\n" ex.operators_before
      ex.operators_after;
    (match ex.rules with
    | [] -> Buffer.add_string b "rules applied: (none)\n"
    | rules ->
      Buffer.add_string b "rules applied:\n";
      List.iter (fun r -> Printf.bprintf b "  - %s\n" r) rules);
    (match ex.properties with
    | [] -> ()
    | ps ->
      Buffer.add_string b "properties:\n";
      List.iteri
        (fun i (label, s) ->
          Printf.bprintf b "  %d:%-12s %s\n" i label s)
        ps);
    (match ex.diagnostics with
    | [] -> ()
    | ds ->
      Buffer.add_string b "diagnostics:\n";
      List.iter (fun d -> Printf.bprintf b "  %s\n" (Check.to_string d)) ds);
    Buffer.contents b

  (* {2 Verify} *)

  (* The obligations a prepare of [r] discharges: its passes' logs in
     order, the chain pass's last (when the plan lowers into the QUIL
     fragment).  A pass that fired nothing owes nothing. *)
  let verify_root eng r =
    let f = inspect eng r in
    List.concat_map (fun rw -> rw.rw_obligations) f.f_passes
    @ match f.f_plan.lower () with Ok rw -> rw.rw_obligations | Error _ -> []

  let verify eng q = verify_root eng (Query.Rows q)

  let verify_scalar eng sq = verify_root eng (Query.Scalar sq)

  (* {2 Explain analyze} *)

  type analysis = {
    a_requested : backend;
    a_backend : backend;
    a_explanation : explanation;
    a_profile : profile_snapshot;
    a_result_rows : int option;
    a_decisions : string list;
  }

  (* A view of [eng] with profiling forced on; shares the plugin cache
     (profiled native code has distinct keys, so no aliasing). *)
  let force_profile eng =
    if eng.cfg.profile then eng
    else { eng with cfg = { eng.cfg with profile = true } }

  let explain_analyze_root ?backend eng r =
    let requested = Option.value backend ~default:eng.cfg.backend in
    let explanation = explain_root eng r in
    let p = prepare_root ?backend (force_profile eng) r in
    let result = p.run_fn () in
    {
      a_requested = requested;
      a_backend = p.p_info.backend;
      a_explanation = explanation;
      (* The preparation came from a profiling engine. *)
      a_profile = profile_snapshot (Option.get p.p_profile);
      a_result_rows = result_rows r result;
      a_decisions = p.p_decisions;
    }

  let explain_analyze ?backend eng q =
    explain_analyze_root ?backend eng (Query.Rows q)

  let explain_analyze_scalar ?backend eng sq =
    explain_analyze_root ?backend eng (Query.Scalar sq)

  let analysis_to_string a =
    let b = Buffer.create 512 in
    Printf.bprintf b "backend:     %s%s\n"
      (backend_name a.a_backend)
      (if a.a_backend <> a.a_requested then
         Printf.sprintf " (requested %s, fell back)"
           (backend_name a.a_requested)
       else "");
    Buffer.add_string b (explain_to_string a.a_explanation);
    (match a.a_result_rows with
    | Some n -> Printf.bprintf b "result rows: %d\n" n
    | None -> Buffer.add_string b "result:      scalar\n");
    Printf.bprintf b "runs: %d, run time: %.3f ms\n" a.a_profile.ps_runs
      a.a_profile.ps_run_ms;
    (match a.a_profile.ps_ops with
    | [] -> Buffer.add_string b "operators: (no probe points)\n"
    | ops ->
      Printf.bprintf b "%-4s %-28s %12s %12s %10s\n" "#" "operator" "rows"
        "calls" "time(ms)";
      (* Linq point times are upstream-inclusive move_next time, so the
         per-operator exclusive time is the difference of consecutive
         points; fused loops and native code have no meaningful
         per-operator clock. *)
      let prev_ns = ref 0 in
      List.iter
        (fun op ->
          let time_cell =
            if a.a_profile.ps_backend = Linq then begin
              let excl = max 0 (op.op_ns - !prev_ns) in
              prev_ns := op.op_ns;
              Printf.sprintf "%.3f" (float_of_int excl /. 1e6)
            end
            else "-"
          in
          Printf.bprintf b "%-4d %-28s %12d %12d %10s\n" op.op_index
            op.op_label op.op_rows op.op_calls time_cell)
        ops);
    (match a.a_decisions with
    | [] -> ()
    | ds ->
      Buffer.add_string b "adaptive decisions:\n";
      List.iter (fun d -> Printf.bprintf b "  %s\n" d) ds);
    Buffer.contents b
end

(* {1 Sessions} *)

module Session = struct
  type stats = {
    prepares : int;
    runs : int;
    run_ms : float;
  }

  (* A session is a client-facing view of an engine: the engine value
     inside is a derived copy whose [cfg] carries the session's
     overrides, while the plugin cache and the single-flight group are
     physically shared with the base engine (config flags that change
     generated code are part of the cache key, so sharing never
     aliases).  The counters are atomics: one session handle may be
     driven from several domains. *)
  type t = {
    s_engine : Engine.t;
    s_client : string;
    s_labels : (string * string) list;
    s_prepares : int Atomic.t;
    s_runs : int Atomic.t;
    s_run_ms : float Atomic.t;
    s_instruments : (Metrics.histogram * Metrics.counter) option Atomic.t array;
        (* The run instruments per backend ([backend_index]), looked up
           on the first prepare that runs there. *)
  }

  let backend_index = function Linq -> 0 | Fused -> 1 | Native -> 2

  (* Same boxed-float CAS spin as the metrics shards. *)
  let rec add_float cell x =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. x)) then add_float cell x

  let create ?config ?(labels = []) engine ~client_id =
    let cfg = Engine.config engine in
    let cfg = match config with None -> cfg | Some f -> f cfg in
    {
      s_engine =
        {
          engine with
          Engine.cfg;
          (* A session counting into its own registry needs handles
             there. *)
          ins =
            (if cfg.Engine.metrics == engine.Engine.cfg.Engine.metrics then
               engine.Engine.ins
             else Engine.instruments cfg.Engine.metrics);
        };
      s_client = client_id;
      s_labels = labels;
      s_prepares = Atomic.make 0;
      s_runs = Atomic.make 0;
      s_run_ms = Atomic.make 0.0;
      s_instruments = Array.init 3 (fun _ -> Atomic.make None);
    }

  let engine s = s.s_engine

  let client_id s = s.s_client

  let labels s = s.s_labels

  (* The session's run instruments for [backend].  Registering is
     idempotent, so two domains racing on a first lookup store the same
     handles. *)
  let run_instruments s backend =
    let cell = s.s_instruments.(backend_index backend) in
    match Atomic.get cell with
    | Some h -> h
    | None ->
      let m = Engine.metrics s.s_engine in
      let labels =
        ("backend", backend_name backend) :: ("client", s.s_client)
        :: s.s_labels
      in
      let h =
        ( Metrics.histogram m "steno_run_ms"
            ~help:"Wall time of query runs through a session (milliseconds)"
            ~labels,
          Metrics.counter m "steno_runs" ~help:"Query runs through a session"
            ~labels )
      in
      Atomic.set cell (Some h);
      h

  (* Wrap a preparation's run function with the session's accounting:
     wall time and run count flow into the engine's metrics registry
     under this session's client/tenant labels, and into the session's
     own counters. *)
  let instrument s (p : 'r prep) : 'r prep =
    let hist, runs_c = run_instruments s p.p_info.backend in
    let base = p.run_fn in
    let run_fn () =
      let t0 = now_ms () in
      let r = base () in
      let dt = now_ms () -. t0 in
      Metrics.observe hist dt;
      Metrics.inc runs_c;
      Atomic.incr s.s_runs;
      add_float s.s_run_ms dt;
      r
    in
    { p with run_fn }

  (* Stamp the active trace (if any) with this session's identity, so a
     trace started outside [Server.submit] still records who asked. *)
  let annotate_trace s =
    Trace.annotate (Engine.tracer s.s_engine) [ "client", s.s_client ]

  let try_prepare_root ?backend s r =
    Atomic.incr s.s_prepares;
    annotate_trace s;
    Result.map (instrument s) (Engine.try_prepare_root ?backend s.s_engine r)

  let prepare_root ?backend s r =
    match try_prepare_root ?backend s r with
    | Ok p -> p
    | Error e -> Engine.raise_error e

  let try_prepare ?backend s q = try_prepare_root ?backend s (Query.Rows q)

  let try_prepare_scalar ?backend s sq =
    try_prepare_root ?backend s (Query.Scalar sq)

  let prepare ?backend s q = prepare_root ?backend s (Query.Rows q)

  let prepare_scalar ?backend s sq = prepare_root ?backend s (Query.Scalar sq)

  let to_array ?backend s q = (prepare ?backend s q).run_fn ()

  let to_list ?backend s q = Array.to_list (to_array ?backend s q)

  let scalar ?backend s sq = (prepare_scalar ?backend s sq).run_fn ()

  let stats s =
    {
      prepares = Atomic.get s.s_prepares;
      runs = Atomic.get s.s_runs;
      run_ms = Atomic.get s.s_run_ms;
    }

  let cache_stats s = Engine.cache_stats s.s_engine

  let cache_size s = Engine.cache_size s.s_engine

  let clear_cache s = Engine.clear_cache s.s_engine
end

(* The compatibility default engine and session: the only process-global
   engine state, created on first use.  Published by CAS rather than
   [lazy]: forcing a lazy from two domains at once raises [RacyLazy],
   and the free functions below are documented as domain-safe. *)
let default_engine_v : Engine.t option Atomic.t = Atomic.make None

let rec default_engine () =
  match Atomic.get default_engine_v with
  | Some e -> e
  | None ->
    let e = Engine.create Engine.default_config in
    if Atomic.compare_and_set default_engine_v None (Some e) then e
    else default_engine ()

let default_session_v : Session.t option Atomic.t = Atomic.make None

let rec default_session () =
  match Atomic.get default_session_v with
  | Some s -> s
  | None ->
    let s = Session.create (default_engine ()) ~client_id:"default" in
    if Atomic.compare_and_set default_session_v None (Some s) then s
    else default_session ()

let prepare_root ?backend r =
  Session.prepare_root ?backend (default_session ()) r

let prepare ?backend q = prepare_root ?backend (Query.Rows q)

let prepare_scalar ?backend sq = prepare_root ?backend (Query.Scalar sq)

let to_array ?backend q = Prepared.run (prepare ?backend q)

let to_list ?backend q = Array.to_list (to_array ?backend q)

let scalar ?backend sq = Prepared.run (prepare_scalar ?backend sq)

let native_chain r = Engine.native_chain (default_engine ()) r

let generated_source_root r = (Codegen.generate (native_chain r)).Codegen.source

let generated_source q = generated_source_root (Query.Rows q)

let generated_source_scalar sq = generated_source_root (Query.Scalar sq)

let quil_root r = Quil.symbol_string (native_chain r)

let quil q = quil_root (Query.Rows q)

let quil_scalar sq = quil_root (Query.Scalar sq)

let cache_size () = Engine.cache_size (default_engine ())

let clear_cache () = Engine.clear_cache (default_engine ())

(* Re-export so clients can speak to an engine's statistics store
   ([Engine.cost_store]) without depending on the library directly. *)
module Cost = Cost
