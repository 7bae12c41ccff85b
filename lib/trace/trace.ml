(* Request-scoped tracing: the engine's one recorder.

   A trace context is an explicit value: the root creates it, every span
   recorded while it is installed (on any domain) lands in the same
   per-trace accumulator, and [with_ctx] re-roots it on a worker, so a
   request that hops domains (Server.submit -> single-flight compile
   leader -> Domain_pool.async tier promotion) keeps its identity.  One
   logical request is thereby shredded into flat per-stage records —
   ordering and nesting are reconstructed from timestamps and domain
   ids, never from stack shape. *)

let now_ms = Telemetry.now_ms

type kind =
  | Interval
  | Instant

type span = {
  sp_name : string;
  sp_kind : kind;
  sp_start_ms : float;
  sp_duration_ms : float;  (* 0 for instants *)
  sp_domain : int;  (* the domain the span was recorded on *)
  sp_attrs : (string * string) list;
}

(* The per-trace accumulator.  Mutable under its own mutex: spans arrive
   from any domain holding the context, including after the root span
   has completed (a background tier-promotion compile reports into the
   trace that triggered it). *)
type data = {
  d_id : string;
  d_seq : int;
  d_root : string;
  d_start_ms : float;
  d_mu : Mutex.t;
  mutable d_attrs : (string * string) list;
  mutable d_spans : span list;  (* reverse completion order *)
  mutable d_nspans : int;
  mutable d_truncated : int;  (* spans refused past the per-trace cap *)
  mutable d_done : bool;
  mutable d_duration_ms : float;  (* of the root span; 0 while open *)
}

type ctx = data

type trace = data

(* The installed context, per domain.  [None] means spans recorded here
   go nowhere — tracing costs one DLS read when no request is active. *)
let current_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_key

let ctx_id (d : ctx) = d.d_id

let with_ctx ctx f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

(* {2 Lock-sharded trace ring}

   A fixed-size buffer of completed traces.  Shards are selected by
   trace sequence number, so concurrent completions rarely contend on
   one lock; within a shard the buffer is circular and a push over a
   full shard head-drops the oldest entry, counting the drop. *)

type shard = {
  s_mu : Mutex.t;
  s_buf : data option array;
  mutable s_next : int;
  mutable s_dropped : int;
}

type ring = { r_shards : shard array }

let ring_create ~capacity =
  let capacity = max 1 capacity in
  let nshards = if capacity >= 32 then 8 else 1 in
  let per_shard = max 1 ((capacity + nshards - 1) / nshards) in
  {
    r_shards =
      Array.init nshards (fun _ ->
          {
            s_mu = Mutex.create ();
            s_buf = Array.make per_shard None;
            s_next = 0;
            s_dropped = 0;
          });
  }

let ring_push ring ~seq ~on_drop d =
  let sh = ring.r_shards.(seq mod Array.length ring.r_shards) in
  Mutex.protect sh.s_mu (fun () ->
      let slot = sh.s_next mod Array.length sh.s_buf in
      (match sh.s_buf.(slot) with
      | Some _ ->
        sh.s_dropped <- sh.s_dropped + 1;
        on_drop ()
      | None -> ());
      sh.s_buf.(slot) <- Some d;
      sh.s_next <- sh.s_next + 1)

let ring_snapshot ring =
  let all =
    Array.to_list ring.r_shards
    |> List.concat_map (fun sh ->
           Mutex.protect sh.s_mu (fun () ->
               Array.to_list sh.s_buf |> List.filter_map Fun.id))
  in
  List.sort (fun a b -> compare (a.d_start_ms, a.d_seq) (b.d_start_ms, b.d_seq)) all

let ring_dropped ring =
  Array.fold_left
    (fun acc sh -> acc + Mutex.protect sh.s_mu (fun () -> sh.s_dropped))
    0 ring.r_shards

(* {2 Tracers} *)

type t = {
  t_enabled : bool;
  t_every : int;  (* record 1 trace in [t_every]; 0 records none *)
  t_slow_ms : float option;
  t_max_spans : int;
  t_epoch : string;  (* pid + wall-clock second: ids survive restarts *)
  t_seq : int Atomic.t;
  t_ring : ring;
  t_slow : ring;
  t_dropped : Metrics.counter;
  t_slow_dropped : Metrics.counter;
  t_completed : Metrics.counter;
  t_slow_captured : Metrics.counter;
}

let dropped_counter m ring_label =
  Metrics.counter m "steno_trace_dropped"
    ~help:"Completed traces head-dropped from a full trace ring"
    ~labels:[ "ring", ring_label ]

let disabled =
  let m = Metrics.create () in
  {
    t_enabled = false;
    t_every = 1;
    t_slow_ms = None;
    t_max_spans = 0;
    t_epoch = "off";
    t_seq = Atomic.make 0;
    t_ring = ring_create ~capacity:1;
    t_slow = ring_create ~capacity:1;
    t_dropped = dropped_counter m "trace";
    t_slow_dropped = dropped_counter m "slow";
    t_completed = Metrics.counter m "steno_traces";
    t_slow_captured = Metrics.counter m "steno_slow_queries";
  }

let enabled t = t.t_enabled

let create ?(sample = 1.0) ?(ring = 256) ?slow_ms ?(max_spans = 4096) ?metrics
    () =
  let m = match metrics with Some m -> m | None -> Metrics.default () in
  let every =
    (* Random-free rate sampling: 1 trace in [round (1/sample)].  The
       decision is the root sequence counter, so it is deterministic and
       costs no RNG state. *)
    if sample >= 1.0 then 1
    else if sample <= 0.0 then 0 (* disabled: not even the first request *)
    else max 1 (int_of_float (Float.round (1.0 /. sample)))
  in
  {
    t_enabled = true;
    t_every = every;
    t_slow_ms = slow_ms;
    t_max_spans = max 1 max_spans;
    t_epoch =
      Printf.sprintf "%x-%x" (Unix.getpid ())
        (int_of_float (Unix.gettimeofday ()) land 0xffffff);
    t_seq = Atomic.make 0;
    t_ring = ring_create ~capacity:ring;
    t_slow = ring_create ~capacity:(max 16 (ring / 4));
    t_dropped = dropped_counter m "trace";
    t_slow_dropped = dropped_counter m "slow";
    t_completed =
      Metrics.counter m "steno_traces" ~help:"Completed (sampled) traces";
    t_slow_captured =
      Metrics.counter m "steno_slow_queries"
        ~help:"Requests captured by the slow-query ring";
  }

let active t = t.t_enabled && current () <> None

(* {2 Recording} *)

let push_span t (d : data) sp =
  Mutex.protect d.d_mu (fun () ->
      if d.d_nspans >= t.t_max_spans then d.d_truncated <- d.d_truncated + 1
      else begin
        d.d_spans <- sp :: d.d_spans;
        d.d_nspans <- d.d_nspans + 1
      end)

let record t name ?(attrs = []) ~start_ms ~duration_ms () =
  if t.t_enabled then
    match current () with
    | None -> ()
    | Some d ->
      push_span t d
        {
          sp_name = name;
          sp_kind = Interval;
          sp_start_ms = start_ms;
          sp_duration_ms = duration_ms;
          sp_domain = (Domain.self () :> int);
          sp_attrs = attrs;
        }

let instant t name ?(attrs = []) () =
  if t.t_enabled then
    match current () with
    | None -> ()
    | Some d ->
      push_span t d
        {
          sp_name = name;
          sp_kind = Instant;
          sp_start_ms = now_ms ();
          sp_duration_ms = 0.0;
          sp_domain = (Domain.self () :> int);
          sp_attrs = attrs;
        }

let annotate t attrs =
  if t.t_enabled && attrs <> [] then
    match current () with
    | None -> ()
    | Some d ->
      Mutex.protect d.d_mu (fun () ->
          (* Re-annotation replaces, never accumulates: a hot loop that
             annotates the same key every run (e.g. [tier]) must not grow
             the trace unboundedly, so duplicates are dropped at
             insertion — [d_attrs] stays bounded by the number of
             distinct keys. *)
          let changed =
            List.filter
              (fun (k, v) -> List.assoc_opt k d.d_attrs <> Some v)
              attrs
          in
          if changed <> [] then
            d.d_attrs <-
              changed
              @ List.filter
                  (fun (k, _) -> not (List.mem_assoc k changed))
                  d.d_attrs)

let with_span t name ?(attrs = []) f =
  if not (active t) then f ()
  else begin
    let start_ms = now_ms () in
    match f () with
    | v ->
      record t name ~attrs ~start_ms
        ~duration_ms:(Telemetry.duration_since start_ms) ();
      v
    | exception e ->
      record t name
        ~attrs:(("error", Printexc.to_string e) :: attrs)
        ~start_ms
        ~duration_ms:(Telemetry.duration_since start_ms) ();
      raise e
  end

let with_trace t name ?(attrs = []) f =
  if not t.t_enabled then f ()
  else if current () <> None then
    (* Already inside a trace (e.g. a nested submit): record a span, do
       not fork a second identity. *)
    with_span t name ~attrs f
  else begin
    let n = Atomic.fetch_and_add t.t_seq 1 in
    if t.t_every <= 0 || n mod t.t_every <> 0 then f ()
    else begin
      let d =
        {
          d_id = Printf.sprintf "%s-%d" t.t_epoch n;
          d_seq = n;
          d_root = name;
          d_start_ms = now_ms ();
          d_mu = Mutex.create ();
          d_attrs = attrs;
          d_spans = [];
          d_nspans = 0;
          d_truncated = 0;
          d_done = false;
          d_duration_ms = 0.0;
        }
      in
      let finish extra =
        let duration_ms = Telemetry.duration_since d.d_start_ms in
        Mutex.protect d.d_mu (fun () ->
            d.d_done <- true;
            d.d_duration_ms <- duration_ms;
            if extra <> [] then d.d_attrs <- extra @ d.d_attrs);
        push_span t d
          {
            sp_name = name;
            sp_kind = Interval;
            sp_start_ms = d.d_start_ms;
            sp_duration_ms = duration_ms;
            sp_domain = (Domain.self () :> int);
            sp_attrs = [];
          };
        (* Shard by the sampled-trace index, not the raw sequence:
           sampled seqs are exactly the multiples of [t_every], which
           would alias onto a subset of the power-of-two shard count
           (down to one shard at [t_every = 8]). *)
        let shard_seq = n / t.t_every in
        ring_push t.t_ring ~seq:shard_seq
          ~on_drop:(fun () -> Metrics.inc t.t_dropped)
          d;
        Metrics.inc t.t_completed;
        match t.t_slow_ms with
        | Some threshold when duration_ms >= threshold ->
          ring_push t.t_slow ~seq:shard_seq
            ~on_drop:(fun () -> Metrics.inc t.t_slow_dropped)
            d;
          Metrics.inc t.t_slow_captured
        | _ -> ()
      in
      with_ctx (Some d) (fun () ->
          match f () with
          | v ->
            finish [];
            v
          | exception e ->
            finish [ "error", Printexc.to_string e ];
            raise e)
    end
  end

(* {2 Reading} *)

let traces t = ring_snapshot t.t_ring

let slow t = ring_snapshot t.t_slow

let dropped t = ring_dropped t.t_ring + ring_dropped t.t_slow

let id (d : trace) = d.d_id

let root (d : trace) = d.d_root

let start_ms (d : trace) = d.d_start_ms

let duration_ms (d : trace) = Mutex.protect d.d_mu (fun () -> d.d_duration_ms)

let complete (d : trace) = Mutex.protect d.d_mu (fun () -> d.d_done)

let attrs (d : trace) =
  (* [d_attrs] is newest-first; keep the newest value per key
     (re-annotation wins, e.g. [tier] updated after a promotion), then
     restore chronological order. *)
  let newest_first = Mutex.protect d.d_mu (fun () -> d.d_attrs) in
  let seen = Hashtbl.create 8 in
  List.rev
    (List.filter
       (fun (k, _) ->
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)
       newest_first)

let spans (d : trace) = Mutex.protect d.d_mu (fun () -> List.rev d.d_spans)

let truncated (d : trace) = Mutex.protect d.d_mu (fun () -> d.d_truncated)

let find_span (d : trace) name =
  List.find_opt (fun sp -> sp.sp_name = name) (spans d)

(* {2 Chrome trace_event exporter}

   The JSON-object form ({"traceEvents": [...]}), loadable in
   chrome://tracing and Perfetto.  Each trace renders as one process
   (pid = trace sequence number, named by a metadata event); spans are
   complete events ("ph":"X") on the domain they ran on, so nesting is
   reconstructed from time containment per (pid, tid) and cross-domain
   work appears on its own track.  Timestamps are microseconds on the
   process-wide monotonic clock shared by every span. *)

let esc = Telemetry.json_escape

let chrome_args buf kvs =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",";
      Printf.bprintf buf {|"%s":"%s"|} (esc k) (esc v))
    kvs;
  Buffer.add_string buf "}"

let chrome_event buf ~first ~pid ~tid ~ph ~name ~ts ?dur ?scope args =
  if not first then Buffer.add_string buf ",\n";
  Printf.bprintf buf {|{"name":"%s","cat":"steno","ph":"%s","pid":%d,"tid":%d,"ts":%.3f|}
    (esc name) ph pid tid ts;
  (match dur with Some d -> Printf.bprintf buf {|,"dur":%.3f|} d | None -> ());
  (match scope with Some s -> Printf.bprintf buf {|,"s":"%s"|} s | None -> ());
  Buffer.add_string buf {|,"args":|};
  chrome_args buf args;
  Buffer.add_string buf "}"

let export_chrome_traces ts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit ~pid ~tid ~ph ~name ~ts ?dur ?scope args =
    chrome_event buf ~first:!first ~pid ~tid ~ph ~name ~ts ?dur ?scope args;
    first := false
  in
  List.iter
    (fun d ->
      let pid = d.d_seq in
      let d_attrs = attrs d in
      emit ~pid ~tid:0 ~ph:"M" ~name:"process_name" ~ts:0.0
        [ "name", Printf.sprintf "trace %s %s" d.d_id d.d_root ];
      List.iter
        (fun sp ->
          let args =
            match sp.sp_kind with
            | Interval when sp.sp_name = d.d_root ->
              (* The root span carries the trace identity and the
                 request-level annotations. *)
              (("trace_id", d.d_id) :: d_attrs) @ sp.sp_attrs
            | _ -> sp.sp_attrs
          in
          match sp.sp_kind with
          | Interval ->
            emit ~pid ~tid:sp.sp_domain ~ph:"X" ~name:sp.sp_name
              ~ts:(sp.sp_start_ms *. 1000.0)
              ~dur:(sp.sp_duration_ms *. 1000.0)
              args
          | Instant ->
            emit ~pid ~tid:sp.sp_domain ~ph:"i" ~name:sp.sp_name
              ~ts:(sp.sp_start_ms *. 1000.0) ~scope:"t" args)
        (spans d))
    ts;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let export_chrome t = export_chrome_traces (traces t)

(* {2 Slow-query report} *)

let span_line buf (d : data) sp =
  Printf.bprintf buf "  %+9.3f ms %-12s %8.3f ms  d%d%s\n"
    (sp.sp_start_ms -. d.d_start_ms)
    sp.sp_name sp.sp_duration_ms sp.sp_domain
    (match sp.sp_attrs with
    | [] -> ""
    | attrs ->
      "  "
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))

let add_report buf d =
  Printf.bprintf buf "trace %s %s %.3f ms%s\n" d.d_id d.d_root (duration_ms d)
    (match attrs d with
    | [] -> ""
    | attrs ->
      "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs));
  List.iter (fun sp -> span_line buf d sp) (spans d);
  let tr = truncated d in
  if tr > 0 then Printf.bprintf buf "  ... %d spans truncated\n" tr

let report d =
  let buf = Buffer.create 1024 in
  add_report buf d;
  Buffer.contents buf

let slow_report t =
  let buf = Buffer.create 1024 in
  let entries = slow t in
  (match t.t_slow_ms with
  | Some threshold ->
    Printf.bprintf buf "# slow queries (threshold %.1f ms): %d captured\n"
      threshold (List.length entries)
  | None -> Buffer.add_string buf "# slow-query capture disabled (no slow_ms)\n");
  (* Worst first. *)
  List.iter (add_report buf)
    (List.sort (fun a b -> compare (duration_ms b) (duration_ms a)) entries);
  Buffer.contents buf
