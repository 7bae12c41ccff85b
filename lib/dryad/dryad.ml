type metrics = {
  mutable stages : int;
  mutable vertices : int;
  mutable exchanged : int;
  mutable gathered : int;
  mutable busy_ms : float;
}

type cluster = {
  workers : int;
  engine : Steno.Engine.t;
  m : metrics;
}

let create ?workers ?engine () =
  let workers =
    Option.value workers ~default:(Domain_pool.recommended_workers ())
  in
  let engine =
    match engine with
    | Some e -> e
    | None -> Steno.default_engine ()
  in
  {
    workers;
    engine;
    m = { stages = 0; vertices = 0; exchanged = 0; gathered = 0; busy_ms = 0.0 };
  }

let workers c = c.workers

let engine c = c.engine

let metrics c = c.m

let reset_metrics c =
  c.m.stages <- 0;
  c.m.vertices <- 0;
  c.m.exchanged <- 0;
  c.m.gathered <- 0;
  c.m.busy_ms <- 0.0

(* One stage = one vertex per partition, fanned out on the pool.  The
   whole stage runs under a "stage" span; each vertex records its own
   "vertex" span from the domain that executed it, into the caller's
   trace, so a traced stage shows both the stage wall time and the
   per-vertex distribution.  The same
   quantities feed the engine's metrics registry: stage wall time and
   per-vertex queue wait (stage start to vertex start) as histograms,
   cumulative stage/vertex counts as gauges. *)
let run_stage c f parts =
  let tracer = Steno.Engine.tracer c.engine in
  let reg = Steno.Engine.metrics c.engine in
  let stage_h =
    Metrics.histogram reg "steno_stage_ms"
      ~help:"Wall time of one Dryad stage (all vertices, milliseconds)"
  in
  let vertex_wait_h =
    Metrics.histogram reg "steno_vertex_queue_wait_ms"
      ~help:"Delay between stage start and a worker starting each vertex"
  in
  let vertex_h =
    Metrics.histogram reg "steno_vertex_ms"
      ~help:"Wall time of one vertex's execution (milliseconds)"
  in
  let stage_id = c.m.stages in
  c.m.stages <- c.m.stages + 1;
  c.m.vertices <- c.m.vertices + Array.length parts;
  Metrics.set_gauge
    (Metrics.gauge reg "steno_dryad_stages"
       ~help:"Stages executed by this cluster")
    (float_of_int c.m.stages);
  Metrics.set_gauge
    (Metrics.gauge reg "steno_dryad_vertices"
       ~help:"Vertices executed by this cluster")
    (float_of_int c.m.vertices);
  let t0 = Telemetry.now_ms () in
  let out =
    Trace.with_span tracer "stage"
      ~attrs:
        [
          "stage", string_of_int stage_id;
          "vertices", string_of_int (Array.length parts);
        ]
      (fun () ->
        Domain_pool.run ?ctx:(Trace.current ()) ~workers:c.workers
          ~tasks:(Array.length parts)
          (fun i ->
            let vstart = Telemetry.now_ms () in
            Metrics.observe vertex_wait_h (vstart -. t0);
            let r =
              Trace.with_span tracer "vertex"
                ~attrs:
                  [ "stage", string_of_int stage_id; "index", string_of_int i ]
                (fun () -> f parts.(i))
            in
            Metrics.observe vertex_h (Telemetry.now_ms () -. vstart);
            r))
  in
  let dt = Telemetry.now_ms () -. t0 in
  c.m.busy_ms <- c.m.busy_ms +. dt;
  Metrics.observe stage_h dt;
  out

let map_partitions c f ds =
  Dataset.of_partitions (run_stage c f (Dataset.partitions ds))

(* Compile the shared plugin once before fanning out, so concurrent
   vertices hit the query cache instead of racing to compile. *)
let prewarm ?backend prepare parts =
  if Array.length parts > 0 then ignore (prepare ?backend parts.(0))

let apply_query c ?backend build ds =
  let parts = Dataset.partitions ds in
  prewarm ?backend
    (fun ?backend p -> Steno.Engine.prepare ?backend c.engine (build p))
    parts;
  Dataset.of_partitions
    (run_stage c
       (fun part -> Steno.Engine.to_array ?backend c.engine (build part))
       parts)

let apply_query_checked c ?backend build ds =
  let sample =
    let parts = Dataset.partitions ds in
    if Array.length parts > 0 then parts.(0) else [||]
  in
  (match (Check_homo.classify (build sample)).Check_homo.r_blocker with
  | None -> ()
  | Some b ->
    let reason =
      match b.Check_homo.o_verdict with
      | Check_homo.Blocking r -> r
      | Check_homo.Splittable -> "unknown"
    in
    invalid_arg
      (Printf.sprintf
         "Dryad.apply_query_checked: per-partition results are not the \
          sequential results: operator %d (%s) %s"
         b.Check_homo.o_index b.Check_homo.o_label reason));
  apply_query c ?backend build ds

let apply_scalar c ?backend build ds =
  let parts = Dataset.partitions ds in
  prewarm ?backend
    (fun ?backend p -> Steno.Engine.prepare_scalar ?backend c.engine (build p))
    parts;
  run_stage c
    (fun part -> Steno.Engine.scalar ?backend c.engine (build part))
    parts

let exchange c ~parts ~key ds =
  if parts <= 0 then invalid_arg "Dryad.exchange: parts must be positive";
  (* Stage 1: each source vertex buckets its elements by destination. *)
  let bucketed =
    run_stage c
      (fun part ->
        let buckets = Array.make parts [] in
        Array.iter
          (fun x ->
            let d = ((key x mod parts) + parts) mod parts in
            buckets.(d) <- x :: buckets.(d))
          part;
        Array.map (fun l -> Array.of_list (List.rev l)) buckets)
      (Dataset.partitions ds)
  in
  c.m.exchanged <- c.m.exchanged + Dataset.total_length ds;
  Steno.Engine.event c.engine ~n:(Dataset.total_length ds) "dryad.exchanged";
  (* Stage 2: each destination vertex concatenates its incoming chunks. *)
  let dests =
    run_stage c
      (fun chunks -> Array.concat (Array.to_list chunks))
      (Array.init parts (fun d -> Array.map (fun b -> b.(d)) bucketed))
  in
  Dataset.of_partitions dests

let gather c ds =
  c.m.gathered <- c.m.gathered + Dataset.total_length ds;
  Steno.Engine.event c.engine ~n:(Dataset.total_length ds) "dryad.gathered";
  Dataset.collect ds

let sort_by c ?(sample_rate = 16) ~key ds =
  let parts = Dataset.num_partitions ds in
  if parts <= 1 then
    map_partitions c
      (fun part ->
        let out = Array.copy part in
        Array.sort (fun a b -> compare (key a) (key b)) out;
        out)
      ds
  else begin
    (* Stage 1: sample each partition and gather the sample keys. *)
    let samples =
      run_stage c
        (fun part ->
          let n = Array.length part in
          let step = max 1 sample_rate in
          Array.init ((n + step - 1) / step) (fun i -> key part.(i * step)))
        (Dataset.partitions ds)
    in
    let all = Array.concat (Array.to_list samples) in
    c.m.gathered <- c.m.gathered + Array.length all;
    Array.sort compare all;
    (* Range boundaries: parts-1 evenly spaced sample quantiles. *)
    let boundaries =
      Array.init (parts - 1) (fun i ->
          if Array.length all = 0 then None
          else Some all.((i + 1) * Array.length all / parts))
    in
    let route x =
      let k = key x in
      (* First partition whose upper boundary admits k. *)
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          match boundaries.(mid) with
          | Some b when compare k b <= 0 -> go lo mid
          | Some _ -> go (mid + 1) hi
          | None -> lo
      in
      go 0 (parts - 1)
    in
    let redistributed = exchange c ~parts ~key:route ds in
    map_partitions c
      (fun part ->
        let out = Array.copy part in
        Array.sort (fun a b -> compare (key a) (key b)) out;
        out)
      redistributed
  end

let reduce_partials c ~combine ds =
  let all = gather c ds in
  let merged = Lookup.Agg.create ~seed:None () in
  Array.iter
    (fun (k, s) ->
      Lookup.Agg.update merged k (function
        | None -> Some s
        | Some cur -> Some (combine cur s)))
    all;
  Array.map
    (fun (k, s) ->
      match s with
      | Some s -> k, s
      | None -> assert false)
    (Lookup.Agg.entries merged)

let group_agg_exchange c ~parts ~combine ds =
  let redistributed = exchange c ~parts ~key:(fun (k, _) -> Hashtbl.hash k) ds in
  map_partitions c
    (fun part ->
      let merged = Lookup.Agg.create ~seed:None () in
      Array.iter
        (fun (k, s) ->
          Lookup.Agg.update merged k (function
            | None -> Some s
            | Some cur -> Some (combine cur s)))
        part;
      Array.map
        (fun (k, s) ->
          match s with
          | Some s -> k, s
          | None -> assert false)
        (Lookup.Agg.entries merged))
    redistributed
