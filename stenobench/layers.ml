(* Per-layer attribution of traced operations.

   Each measured operation runs under [Trace.with_trace] on the engine's
   tracer, so the spans the library already emits (check, optimize,
   verify, specialize, canon, codegen, pcache.lookup, compile, dynlink,
   env-bind, run) and its counter events land in one trace, together
   with the spans the benchmark records around its own calls.  A trace
   is a flat list of intervals; self time is recovered by sweeping each
   domain's timeline and charging every instant to the shortest span
   that covers it (a child is always shorter than its parent, and spans
   reported after the fact by [Telemetry.emit] may overlap their
   neighbours only partially).  Time inside the engine's calls that no
   named stage covers is [engine.unattributed], so a stage without a
   span shows up as a gap. *)

let layers =
  [
    "check"; "opt"; "check_equiv"; "specialize"; "canon"; "codegen"; "pcache";
    "dynload.compile"; "dynload.load"; "engine.env_bind"; "run"; "server";
    "engine.unattributed"; "bench";
  ]

let layer_of_span = function
  | "check" -> "check"
  | "optimize" -> "opt"
  | "verify" -> "check_equiv"
  | "specialize" -> "specialize"
  | "canon" -> "canon"
  | "codegen" -> "codegen"
  | "pcache.lookup" -> "pcache"
  | "compile" -> "dynload.compile"
  | "dynlink" -> "dynload.load"
  | "env-bind" -> "engine.env_bind"
  | "run" -> "run"
  | "request" -> "server"
  | "bench.request" -> "bench"
  | _ -> "engine.unattributed"

(* Self times per layer, counter events, gauges and named samples, mergeable
   across processes through [dump] and [load_line]; [pending] holds the
   traces not yet attributed, [kept] the first traces for the Chrome
   export. *)
type t = {
  mu : Mutex.t;
  selfs : (string, float list) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  gauges : (string, int) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable root_ms : float;
  mutable traces : int;
  mutable pending : Trace.trace list;
  mutable kept : Trace.trace list;
}

let keep_max = 200

let create () =
  {
    mu = Mutex.create ();
    selfs = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    gauges = Hashtbl.create 4;
    samples = Hashtbl.create 4;
    root_ms = 0.;
    traces = 0;
    pending = [];
    kept = [];
  }

let push tbl key v =
  Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let raise_to tbl key n =
  Hashtbl.replace tbl key (max n (Option.value (Hashtbl.find_opt tbl key) ~default:0))

let add_count t name n = Mutex.protect t.mu (fun () -> bump t.counts name n)

(* A gauge keeps the largest value any process reported. *)
let add_gauge t name n = Mutex.protect t.mu (fun () -> raise_to t.gauges name n)

let count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

let samples t name =
  Array.of_list (Option.value (Hashtbl.find_opt t.samples name) ~default:[])

(* Self time of every span on one domain's timeline. *)
let sweep (spans : Trace.span array) =
  let start i = spans.(i).Trace.sp_start_ms in
  let length i = spans.(i).Trace.sp_duration_ms in
  let self = Array.make (Array.length spans) 0. in
  let points =
    Array.to_list spans
    |> List.concat_map (fun s ->
           [ s.Trace.sp_start_ms; s.Trace.sp_start_ms +. s.Trace.sp_duration_ms ])
    |> List.sort_uniq Float.compare
    |> Array.of_list
  in
  for k = 0 to Array.length points - 2 do
    let a = points.(k) and b = points.(k + 1) in
    let best = ref (-1) in
    Array.iteri
      (fun i _ ->
        if start i <= a && start i +. length i >= b
           && (!best < 0 || length i < length !best)
        then best := i)
      spans;
    if !best >= 0 then self.(!best) <- self.(!best) +. (b -. a)
  done;
  self

let add_trace t (tr : Trace.trace) =
  let spans = Trace.spans tr in
  let intervals = List.filter (fun s -> s.Trace.sp_kind = Trace.Interval) spans in
  let attributed =
    List.sort_uniq compare (List.map (fun s -> s.Trace.sp_domain) intervals)
    |> List.concat_map (fun dom ->
           let on_dom =
             Array.of_list
               (List.filter (fun s -> s.Trace.sp_domain = dom) intervals)
           in
           let self = sweep on_dom in
           List.mapi
             (fun i s -> (layer_of_span s.Trace.sp_name, self.(i)))
             (Array.to_list on_dom))
  in
  let events =
    List.filter_map
      (fun s ->
        match s.Trace.sp_kind, List.assoc_opt "n" s.Trace.sp_attrs with
        | Trace.Instant, Some n ->
          Option.map (fun n -> (s.Trace.sp_name, n)) (int_of_string_opt n)
        | _ -> None)
      spans
  in
  let queue_ms =
    Option.bind (List.assoc_opt "queue_ms" (Trace.attrs tr)) float_of_string_opt
  in
  Mutex.protect t.mu (fun () ->
      List.iter (fun (layer, ms) -> push t.selfs layer ms) attributed;
      List.iter (fun (name, n) -> bump t.counts name n) events;
      Option.iter (push t.samples "server.queue_ms") queue_ms;
      t.root_ms <- t.root_ms +. Trace.duration_ms tr;
      t.traces <- t.traces + 1;
      if t.traces <= keep_max then t.kept <- tr :: t.kept)

(* Run [f] as one traced operation; on an engine without tracing this is
   [f ()].  Its trace is only queued here and attributed by [settle],
   once the measured loop is over, so that the sweep stays out of the
   time the caller measures. *)
let traced t tracer f =
  if not (Trace.enabled tracer) then f ()
  else begin
    let ctx = ref None in
    let v =
      Trace.with_trace tracer "bench.request" (fun () ->
          ctx := Trace.current ();
          f ())
    in
    Option.iter
      (fun tr -> Mutex.protect t.mu (fun () -> t.pending <- tr :: t.pending))
      !ctx;
    v
  end

let settle t =
  let pending =
    Mutex.protect t.mu (fun () ->
        let p = t.pending in
        t.pending <- [];
        p)
  in
  List.iter (add_trace t) (List.rev pending)

(* One record per line: [self <layer> <ms>], [count <name> <n>],
   [gauge <name> <n>], [sample <name> <v>] and [root <ms> <traces>]. *)
let dump t oc =
  settle t;
  Mutex.protect t.mu (fun () ->
      let floats tag tbl =
        Hashtbl.iter
          (fun k l -> List.iter (Printf.fprintf oc "%s %s %.17g\n" tag k) l)
          tbl
      in
      floats "self" t.selfs;
      floats "sample" t.samples;
      Hashtbl.iter (Printf.fprintf oc "count %s %d\n") t.counts;
      Hashtbl.iter (Printf.fprintf oc "gauge %s %d\n") t.gauges;
      Printf.fprintf oc "root %.17g %d\n" t.root_ms t.traces)

let load_line t line =
  Mutex.protect t.mu (fun () ->
      match String.split_on_char ' ' line with
      | [ "self"; layer; ms ] -> push t.selfs layer (float_of_string ms)
      | [ "sample"; name; v ] -> push t.samples name (float_of_string v)
      | [ "count"; name; n ] -> bump t.counts name (int_of_string n)
      | [ "gauge"; name; n ] -> raise_to t.gauges name (int_of_string n)
      | [ "root"; ms; n ] ->
        t.root_ms <- t.root_ms +. float_of_string ms;
        t.traces <- t.traces + int_of_string n
      | _ -> failwith ("Layers.load_line: " ^ line))

(* Written by the process that recorded the traces; a no-op elsewhere. *)
let write_chrome t file =
  settle t;
  if t.kept <> [] then begin
    let oc = open_out file in
    output_string oc (Trace.export_chrome_traces (List.rev t.kept));
    close_out oc
  end

let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0.

let pct q a =
  match Stats.percentile q a with Ok p -> p.Stats.value | Error _ -> 0.

(* Every per-layer metric this module derives; a percentile the sample
   count cannot support reads 0. *)
let metrics t =
  settle t;
  let per_layer =
    List.concat_map
      (fun layer ->
        let a = Array.of_list (Option.value (Hashtbl.find_opt t.selfs layer) ~default:[]) in
        let total = Stats.sum a in
        [
          (layer ^ ".self_ms_p50", pct 0.5 a, "ms");
          (layer ^ ".self_ms_total", total, "ms");
          (layer ^ ".calls", float_of_int (Array.length a), "count");
          ( layer ^ ".share_pct",
            (if t.root_ms > 0. then 100. *. total /. t.root_ms else 0.),
            "%" );
        ])
      layers
  in
  let calls layer =
    List.length (Option.value (Hashtbl.find_opt t.selfs layer) ~default:[])
  in
  let c = count t in
  let g name = Option.value (Hashtbl.find_opt t.gauges name) ~default:0 in
  per_layer
  @ [
      ("opt.rules_fired", float_of_int (c "optimize.rules_applied"), "count");
      ("pcache.hit_ratio", ratio (c "pcache.hit") (calls "pcache"), "ratio");
      ("pcache.stores", float_of_int (c "pcache.stores"), "count");
      ("pcache.bytes", float_of_int (g "pcache.bytes"), "bytes");
      ( "dynload.cmxs_bytes_mean",
        ratio (g "pcache.bytes") (g "pcache.entries"),
        "bytes" );
      ( "steno_lru.hit_ratio",
        ratio (c "lru.hits") (c "lru.hits" + c "lru.misses"),
        "ratio" );
      ("steno_lru.evictions", float_of_int (c "lru.evictions"), "count");
      ("steno_flight.joins", float_of_int (c "flight.join"), "count");
      ("engine.fallbacks", float_of_int (c "engine.fallback"), "count");
      ( "quil.ops_after_mean",
        ratio (c "plans.quil_ops") (c "plans"),
        "count" );
      ( "codegen.source_bytes_mean",
        ratio (c "plans.source_bytes") (c "plans"),
        "bytes" );
      ("server.queue_ms_p99", pct 0.99 (samples t "server.queue_ms"), "ms");
    ]
