type reject_reason =
  | Queue_full
  | Shutting_down

let reject_reason_message = function
  | Queue_full -> "server at capacity (inflight and queue limits reached)"
  | Shutting_down -> "server is shutting down"

type 'a outcome =
  | Done of 'a
  | Rejected of reject_reason
  | Failed of exn

(* A client's session, and its request counters by outcome
   ([outcome_index]), looked up on its first request with that
   outcome. *)
type client = {
  c_session : Steno.Session.t;
  c_requests : Metrics.counter option Atomic.t array;
}

(* All admission state lives behind one mutex; the condition variable
   wakes queued callers when a slot frees (or shutdown begins).  The
   lock is never held while a request executes — only around the small
   counter transitions — so the engine's own concurrency (sharded cache,
   single-flight) is what requests actually contend on. *)
type t = {
  srv_engine : Steno.Engine.t;
  max_inflight : int;
  max_queue : int;
  mu : Mutex.t;
  cv : Condition.t;
  clients : (string, client) Hashtbl.t;  (* under [mu] *)
  queue_ms : Metrics.histogram;
  mutable inflight : int;
  mutable queued : int;
  mutable shut : bool;
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
}

let create ?max_inflight ?(max_queue = 64) engine =
  let max_inflight =
    match max_inflight with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  if max_queue < 0 then invalid_arg "Server.create: max_queue < 0";
  (* Register the server families eagerly, so a scrape shows them at
     zero before the first request arrives.  The per-client counter
     series appear as requests do; the zero-valued family pins the
     HELP/TYPE headers. *)
  let m = Steno.Engine.metrics engine in
  ignore
    (Metrics.counter m "steno_server_requests"
       ~help:"Requests submitted to the query server, by final outcome");
  {
    srv_engine = engine;
    max_inflight;
    max_queue;
    mu = Mutex.create ();
    cv = Condition.create ();
    clients = Hashtbl.create 16;
    queue_ms =
      Metrics.histogram m "steno_server_queue_ms"
        ~help:"Time admitted requests spent waiting for an execution slot";
    inflight = 0;
    queued = 0;
    shut = false;
    accepted = 0;
    completed = 0;
    failed = 0;
    rejected = 0;
  }

let engine t = t.srv_engine

let client t ~client_id =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.clients client_id with
      | Some c -> c
      | None ->
        let c =
          {
            c_session = Steno.Session.create t.srv_engine ~client_id;
            c_requests = Array.init 3 (fun _ -> Atomic.make None);
          }
        in
        Hashtbl.replace t.clients client_id c;
        c)

let session t ~client_id = (client t ~client_id).c_session

let outcome_label = function
  | Done _ -> "ok"
  | Rejected _ -> "rejected"
  | Failed _ -> "failed"

let outcome_index = function Done _ -> 0 | Rejected _ -> 1 | Failed _ -> 2

(* Registering is idempotent, so two domains racing on a first lookup
   store the same handle. *)
let count_request t c ~client_id outcome =
  let cell = c.c_requests.(outcome_index outcome) in
  let counter =
    match Atomic.get cell with
    | Some counter -> counter
    | None ->
      let counter =
        Metrics.counter
          (Steno.Engine.metrics t.srv_engine)
          "steno_server_requests"
          ~help:"Requests submitted to the query server, by final outcome"
          ~labels:[ "client", client_id; "outcome", outcome_label outcome ]
      in
      Atomic.set cell (Some counter);
      counter
  in
  Metrics.inc counter

(* Admission: a free slot admits immediately; otherwise the caller joins
   the bounded wait queue, or is shed.  Queued callers re-check on every
   wake — both a freed slot and shutdown broadcast [cv]. *)
let admit t =
  Mutex.protect t.mu (fun () ->
      if t.shut then begin
        t.rejected <- t.rejected + 1;
        Error Shutting_down
      end
      else if t.inflight < t.max_inflight then begin
        t.inflight <- t.inflight + 1;
        t.accepted <- t.accepted + 1;
        Ok ()
      end
      else if t.queued >= t.max_queue then begin
        t.rejected <- t.rejected + 1;
        Error Queue_full
      end
      else begin
        t.queued <- t.queued + 1;
        let rec wait () =
          if t.shut then begin
            t.queued <- t.queued - 1;
            t.rejected <- t.rejected + 1;
            (* [shutdown] drains on [cv] until the queue empties. *)
            Condition.broadcast t.cv;
            Error Shutting_down
          end
          else if t.inflight < t.max_inflight then begin
            t.queued <- t.queued - 1;
            t.inflight <- t.inflight + 1;
            t.accepted <- t.accepted + 1;
            Ok ()
          end
          else begin
            Condition.wait t.cv t.mu;
            wait ()
          end
        in
        wait ()
      end)

let release t ~ok =
  Mutex.protect t.mu (fun () ->
      t.inflight <- t.inflight - 1;
      if ok then t.completed <- t.completed + 1 else t.failed <- t.failed + 1;
      (* Both queued callers and a draining [shutdown] wait on [cv]. *)
      Condition.broadcast t.cv)

let submit t ~client_id f =
  let c = client t ~client_id in
  let sess = c.c_session in
  (* The request root: one trace per submission (subject to the
     tracer's sampling), covering admission wait, the request body, and
     — via the context handed to the domain pool — any background
     promotion compile this request triggers. *)
  let tracer = Steno.Engine.tracer t.srv_engine in
  Trace.with_trace tracer "request" ~attrs:[ "client", client_id ]
  @@ fun () ->
  let t0 = Telemetry.now_ms () in
  let outcome =
    match admit t with
    | Error reason -> Rejected reason
    | Ok () ->
      let queue_ms = Telemetry.now_ms () -. t0 in
      Metrics.observe t.queue_ms queue_ms;
      Trace.annotate tracer [ "queue_ms", Printf.sprintf "%.3f" queue_ms ];
      (match f sess with
      | v ->
        release t ~ok:true;
        Done v
      | exception e ->
        release t ~ok:false;
        Failed e)
  in
  count_request t c ~client_id outcome;
  Trace.annotate tracer [ "outcome", outcome_label outcome ];
  outcome

type stats = {
  accepted : int;
  completed : int;
  failed : int;
  rejected : int;
  inflight : int;
  queued : int;
}

let stats t =
  Mutex.protect t.mu (fun () ->
      {
        accepted = t.accepted;
        completed = t.completed;
        failed = t.failed;
        rejected = t.rejected;
        inflight = t.inflight;
        queued = t.queued;
      })

let shutdown t =
  Mutex.protect t.mu (fun () ->
      t.shut <- true;
      Condition.broadcast t.cv;
      while t.inflight > 0 || t.queued > 0 do
        Condition.wait t.cv t.mu
      done)
