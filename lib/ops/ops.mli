(** The ops plane: a minimal HTTP/1.0 admin listener over one engine.

    Four read-only endpoints, loopback-only, stdlib [Unix] sockets:

    {t | Path        | Content                                          |
       |-------------|--------------------------------------------------|
       | [/healthz]  | liveness — always [200 ok]                       |
       | [/metrics]  | OpenMetrics text, byte-identical to {!Metrics.render} of the engine's registry |
       | [/traces]   | the trace ring as Chrome [trace_event] JSON ({!Trace.export_chrome}) |
       | [/slow]     | the slow-query ring as text ({!Trace.slow_report}) |}

    The listener runs an accept loop on one dedicated domain and serves
    one connection at a time with receive/send timeouts and
    [Connection: close] — an admin plane, not a data plane.  Handler
    exceptions answer [500]; they never escape the loop.

    The engine itself never opens sockets: {!start} is called by the
    host ([stenoc serve --admin-port], tests, or any embedder), which
    picks the port. *)

type t

val start : ?port:int -> Steno.Engine.t -> t
(** Bind [127.0.0.1:port] and serve.  [port] defaults to [0], an
    ephemeral port; read the bound port back with {!port}.
    @raise Unix.Unix_error when the bind fails (e.g. port in use). *)

val port : t -> int
(** The actually-bound port (useful with [port = 0]). *)

val engine : t -> Steno.Engine.t

val stop : t -> unit
(** Stop accepting, join the listener domain, release the socket.
    Idempotent. *)
