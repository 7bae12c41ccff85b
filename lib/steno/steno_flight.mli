(** Single-flight execution groups: at most one in-flight computation
    per key.

    The serving problem this solves (ROADMAP "query service"): two
    clients preparing the same query race duplicate plugin builds —
    each pays the full ~25 ms compile and one result is
    thrown away.  A single-flight group collapses the race: the first
    caller for a key becomes the {e leader} and runs the computation;
    callers arriving while it is in flight become {e followers} and
    block until the leader finishes, then share its result.  A leader's
    exception is broadcast too: every follower re-raises it, so a failed
    compile sheds all its waiters at once instead of retrying N times.

    Once a call completes it is forgotten — a later caller for the same
    key leads a fresh computation.  Deduplication is therefore only of
    {e concurrent} calls; memoization across calls is the cache's job
    (the caller is expected to consult its cache inside the leader
    body, see [Steno.Engine]).

    Domain-safe: followers block on a per-call condition variable; the
    group's own lock is held only for the table lookup, never during the
    computation. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val run : ?note:string -> ('k, 'v) t -> 'k -> (unit -> 'v) -> bool * string option * 'v
(** [run t k f] returns [(led, leader_note, v)]: if no call for [k] is
    in flight, runs [f ()] as the leader ([led = true],
    [leader_note = None]); otherwise blocks until the in-flight leader
    for [k] finishes and returns its result ([led = false],
    [leader_note] = the [?note] the leader registered, if any).  The
    note lets a follower link to the leader's identity — e.g. record the
    trace id of the request whose compile it joined.  If the leader's
    [f] raises, the exception is re-raised in the leader {e and} in
    every follower. *)

val in_flight : ('k, 'v) t -> int
(** Number of keys currently being computed (for tests/diagnostics). *)
