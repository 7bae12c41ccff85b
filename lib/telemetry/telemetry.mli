(** The clock every Steno timing reads, and the JSON escaping every
    Steno JSON emitter shares.  Spans and events are recorded by
    {!Trace}. *)

val now_ms : unit -> float
(** Milliseconds on a monotonic clock (CLOCK_MONOTONIC): a timestamp for
    measuring durations, not an epoch date.  Immune to wall-clock
    steps. *)

val duration_since : float -> float
(** [duration_since start] is [now_ms () -. start], clamped at [0.]: an
    observed duration is never negative. *)

val json_escape : string -> string
(** JSON string-content escaping (quotes, backslashes, control
    characters as [\uXXXX]), shared by every Steno JSON emitter so attr
    values — compile errors, plan text — can never produce invalid
    JSON. *)
