(** Request-scoped tracing that survives domain hops: the one recorder
    of the engine's stage spans and events.

    One logical request may cross domains — [Server.submit] →
    single-flight compile leader → [Domain_pool.async] tier promotion.
    A {!ctx} is its identity made explicit: {!with_trace}
    creates it at the request root, installs it in domain-local storage,
    and {!with_ctx} re-roots it on any worker domain, so every span
    recorded while it is installed lands in the same per-trace
    accumulator regardless of where it ran.  A trace is thereby shredded
    into flat per-stage records (name, start, duration, domain, attrs);
    ordering and nesting are reconstructed from timestamps, never from
    stack shape — which is what lets a background compile report into
    the trace of the request that triggered it, even after that
    request's root span has completed.

    Completed traces land in a fixed-size lock-sharded ring buffer with
    head-drop overflow accounting ([steno_trace_dropped_total]);
    requests slower than a configurable threshold additionally land in a
    second, smaller slow-query ring.  Trace ids are random-free: an
    epoch string (pid + start second) plus an atomic sequence number,
    which also drives deterministic 1-in-k sampling. *)

type kind =
  | Interval  (** a timed stage *)
  | Instant  (** a point event, e.g. a cache hit *)

type span = {
  sp_name : string;
  sp_kind : kind;
  sp_start_ms : float;  (** {!Telemetry.now_ms} monotonic timestamp *)
  sp_duration_ms : float;  (** [0.] for instants *)
  sp_domain : int;  (** domain the span was recorded on *)
  sp_attrs : (string * string) list;
}

type ctx
(** A live trace: the mutable accumulator spans are recorded into.
    Capture it with {!current} before handing work to another domain,
    then re-install it there with {!with_ctx}. *)

type trace = ctx
(** A trace read back from a ring.  The same value — rings hold the
    accumulators themselves, so spans recorded after ring insertion
    (late background work) are still visible. *)

type t
(** A tracer: sampling policy, the trace and slow-query rings, and their
    overflow counters. *)

val disabled : t
(** Records nothing; every operation is a cheap no-op. *)

val create :
  ?sample:float ->
  ?ring:int ->
  ?slow_ms:float ->
  ?max_spans:int ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** [create ()] is an always-on tracer with a 256-trace ring and no slow
    log.  [sample] is the fraction of root requests traced (default
    [1.0]; realised as deterministic 1-in-[round (1/sample)] on the root
    sequence counter, no randomness).  [ring] bounds retained traces;
    overflow head-drops the oldest and bumps [steno_trace_dropped_total]
    in [metrics] (default {!Metrics.default}).  [slow_ms] enables the
    slow-query ring (capacity [max 16 (ring/4)]) for requests at or over
    the threshold.  [max_spans] caps spans retained per trace (excess is
    counted, not stored). *)

val enabled : t -> bool

(** {1 Context propagation} *)

val current : unit -> ctx option
(** The trace installed on the calling domain, if any. *)

val active : t -> bool
(** [t] is enabled and a trace is installed on the calling domain:
    annotations made now are kept. *)

val ctx_id : ctx -> string

val with_ctx : ctx option -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] installed on the calling
    domain, restoring the previous context afterwards.  This is the
    cross-domain hop: capture {!current} where work is scheduled, pass
    it to the worker, wrap the work in [with_ctx]. *)

val with_trace :
  t -> string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** [with_trace t name f] — the request root.  Subject to sampling,
    creates a fresh trace, installs it for the extent of [f], records
    [name] as the root span, and on completion pushes the trace to the
    ring (and the slow ring if over threshold).  If a trace is already
    installed, degrades to {!with_span} — nested roots do not fork a
    second identity.  Exceptions are recorded as an ["error"] attribute
    and re-raised. *)

(** {1 Recording}

    All recording is a no-op unless the tracer is enabled {e and} a
    context is installed on the calling domain. *)

val with_span :
  t -> string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** [with_span t name f] records [f]'s extent as an {!Interval}.  When
    not {!active} it is [f ()] and reads no clock.  If [f] raises, the
    span gets an ["error"] attribute and the exception is re-raised. *)

val instant : t -> string -> ?attrs:(string * string) list -> unit -> unit

val annotate : t -> (string * string) list -> unit
(** Attach attributes to the current trace itself (shown on the root
    span in exports): plan text, backend/tier used, cache outcomes. *)

(** {1 Reading} *)

val traces : t -> trace list
(** Ring contents, oldest first. *)

val slow : t -> trace list

val dropped : t -> int
(** Total head-dropped entries over both rings. *)

val id : trace -> string
val root : trace -> string
val start_ms : trace -> float
val duration_ms : trace -> float
(** [0.] while the root is still open. *)

val complete : trace -> bool
val attrs : trace -> (string * string) list

val spans : trace -> span list
(** In completion order. *)

val truncated : trace -> int
(** Spans refused past [max_spans]. *)

val find_span : trace -> string -> span option

(** {1 Export} *)

val export_chrome : t -> string
(** The trace ring as Chrome [trace_event] JSON (object form), loadable
    in chrome://tracing and Perfetto.  One process per trace
    (pid = trace sequence, named [trace <id> <root>]); spans are
    complete events on the domain they ran on, so cross-domain work
    appears on its own track and nesting is reconstructed from time
    containment. *)

val export_chrome_traces : trace list -> string
(** Export an explicit trace list (e.g. {!slow}). *)

val report : trace -> string
(** One trace as human-readable text: a header line (id, root, duration,
    request attributes) and one line per span in completion order
    (offset from the root's start, name, duration, domain, attrs). *)

val slow_report : t -> string
(** The slow-query ring as human-readable text: a threshold line, then
    each captured trace as {!report} renders it, worst first. *)
