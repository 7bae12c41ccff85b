(* Workload [serve-mixed]: the server, the plugin LRU, single-flight and
   the per-request front half under concurrency, while compiles compete
   for the cores.

   Two client domains send requests through one [Server] with two
   execution slots.  63 requests in 64 are one of eight hot shapes over
   2k-row captured inputs, with the shape's parameter bound through
   [Expr.capture], so after its first compile each shape is a plugin
   cache hit that pays only the front half and the run.  The rest are new
   generated queries ([Gen]) that compile.  Phase A is an open loop at a
   fixed total rate, each request timed from the moment it was due, so a
   compile also charges the requests its client queued behind it; its
   median is a hot request.  Phase B is a closed loop that measures
   capacity.  The tail is the median time of the requests that compile,
   the slowest one in 64, over both phases (about 250 of them in 20
   seconds).  Each client runs pinned to a CPU of its own, with its
   compiler processes, and its times and rates are at the reference host
   speed by its own probes ([Common.timed]).

   The rate keeps each client's compiles well under half its time even
   when the host runs slow: a client meets a new query every 640 ms, and
   its compile takes 30-200 ms.  At 500 req/s (every 256 ms) a slow host
   kept the clients behind for most of the open loop, and the median
   flipped between a hot request (0.1 ms) and a stalled one (1-10 ms)
   from run to run.  The 99th percentile of all requests was no steadier
   than the slowest compiles of a run: 30-47% between runs, against
   13-21% for the compiles' median. *)

module I = Expr.Infix

let rate_per_s = 200.
let clients = 2
let cold_one_in = 64
let hot_rows = 2_048
let inputs_per_shape = 4
let params_per_shape = 8
let spin_ms = 0.6

let hot_shapes : (int array -> int Expr.t -> int Query.sq) array =
  let src xs = Query.of_array Ty.Int xs in
  [|
    (fun xs p -> src xs |> Query.where (fun x -> I.(x > p)) |> Query.count);
    (fun xs p ->
      src xs |> Query.sum_by_int (fun x -> I.(((x * Expr.int 7) + p) mod Expr.int 1000)));
    (fun xs p ->
      src xs
      |> Query.where (fun x -> I.(x mod Expr.int 3 <> p mod Expr.int 3))
      |> Query.sum_by_int (fun x -> I.(x * x mod Expr.int 1000)));
    (fun xs p -> src xs |> Query.take_while (fun x -> I.(x <> p)) |> Query.count);
    (fun xs p -> src xs |> Query.count_where (fun x -> I.(x = p)));
    (fun xs p ->
      src xs
      |> Query.select (fun x -> I.(x + p))
      |> Query.count_where (fun x -> I.(x mod Expr.int 2 = Expr.int 0)));
    (fun xs p ->
      src xs
      |> Query.aggregate ~seed:p ~step:(fun a x ->
             I.(((a * Expr.int 31) + x) mod Expr.int 1_000_003)));
    (fun xs p ->
      src xs |> Query.skip 100 |> Query.take 8_000
      |> Query.sum_by_int (fun x -> I.(x * p mod Expr.int 1000)));
  |]

type request =
  | Hot of int * int * int  (** shape, input, parameter index *)
  | Cold of Gen.draw

type inputs = { seed : int; data : int array array; params : int array }

let inputs ~seed =
  let rng = Random.State.make [| 0x5e; seed |] in
  {
    seed;
    data =
      Array.init inputs_per_shape (fun _ ->
          Array.init hot_rows (fun _ -> Random.State.int rng 10_000));
    params = Array.init params_per_shape (fun _ -> Random.State.int rng 10_000);
  }

let hot_draw inp (s, j, k) =
  {
    Gen.index = -1;
    query =
      Gen.Scalar (hot_shapes.(s) inp.data.(j) (Expr.capture Ty.Int inp.params.(k)));
  }

let draw inp = function Hot (s, j, k) -> hot_draw inp (s, j, k) | Cold d -> d

type state = {
  inp : inputs;
  eng : Steno.Engine.t;
  server : Server.t;
  layers : Layers.t;
}

(* Engine, server, and one compile of each hot shape. *)
let setup inp ~traced layers =
  let eng = Steno.Engine.create (Common.config ~traced Steno.Config.default) in
  let server = Server.create ~max_inflight:2 eng in
  Array.iteri
    (fun s _ ->
      match
        Server.submit server ~client_id:"setup" (fun sess ->
            Oracle.execute (Oracle.of_session sess) (hot_draw inp (s, 0, 0)))
      with
      | Server.Done _ -> ()
      | _ -> failwith "serve-mixed: hot shape failed in set-up")
    hot_shapes;
  { inp; eng; server; layers }

(* Request [k] of one client's stream: exactly one in [cold_one_in] is a
   new generated query, at the client's offset, the rest hot shapes drawn
   from the client's own generator. *)
let is_cold ~offset k = (k + offset) mod cold_one_in = 0

let next_request st rng ~client ~offset k =
  if is_cold ~offset k then
    Cold (Gen.draw ~seed:(st.inp.seed + (7919 * client)) k)
  else
    Hot
      ( Random.State.int rng (Array.length hot_shapes),
        Random.State.int rng inputs_per_shape,
        Random.State.int rng params_per_shape )

type record = { req : request; got : (Oracle.outcome, string) result }

(* How often a closed-loop client probes the host's speed, in requests. *)
let probe_every = 16

let submit st ~client req =
  let tracer = Steno.Engine.tracer st.eng in
  let outcome =
    Layers.traced st.layers tracer (fun () ->
        Server.submit st.server ~client_id:(string_of_int client) (fun sess ->
            Oracle.execute ~tracer (Oracle.of_session sess) (draw st.inp req)))
  in
  let got =
    match outcome with
    | Server.Done v -> Ok v
    | Server.Rejected r -> Error (Server.reject_reason_message r)
    | Server.Failed e -> Error (Printexc.to_string e)
  in
  { req; got }

(* Per client: open-loop latencies and lateness, the times of the
   requests that compiled (in both loops), the peak RSS when its open loop
   ended (the closed loop's work grows with the host's speed), the
   closed-loop completion rate at the reference speed, and every response
   for checking. *)
type client_result = {
  latencies : float list;
  cold_latencies : float list;
  late : float list;
  open_rss_kb : int;
  closed_rate : float;
  records : record list;
}

let run_client st ~client ~open_until ~closed_until ~start =
  Affinity.pin client;
  let rng = Random.State.make [| 0xc1; st.inp.seed; client |] in
  let spacing = 1000. *. float_of_int clients /. rate_per_s in
  let offset = spacing *. float_of_int client /. float_of_int clients in
  (* The clients' new queries come half a period apart, so that their
     compiles never overlap; a seeded offset could make them overlap for a
     whole run. *)
  let cold_offset = cold_one_in * client / clients in
  let latencies = ref [] and cold_latencies = ref [] in
  let late = ref [] and records = ref [] in
  let k = ref 0 in
  let request () =
    incr k;
    submit st ~client (next_request st rng ~client ~offset:cold_offset !k)
  in
  (* The probe after a request is the one before the next when that one
     is already due. *)
  let after = ref (Common.probe ()) in
  let rec open_loop () =
    let due = start +. offset +. (float_of_int !k *. spacing) in
    if due < open_until then begin
      (* Sleep to just short of the due time, probe while there is time,
         then spin: a timer wake-up alone lands up to a tenth of a
         millisecond late, as much as a hot request takes. *)
      let wait = due -. Common.now_ms () -. spin_ms in
      if wait > 0. then Unix.sleepf (wait /. 1000.);
      let before =
        if due -. Common.now_ms () > spin_ms /. 2. then Common.probe () else !after
      in
      while Common.now_ms () < due do
        Domain.cpu_relax ()
      done;
      late := Float.max 0. (Common.now_ms () -. due) :: !late;
      let r = request () in
      let ms = Common.now_ms () -. due in
      after := Common.probe ();
      let ms = Common.at_reference ~before ~after:!after ms in
      latencies := ms :: !latencies;
      (match r.req with Cold _ -> cold_latencies := ms :: !cold_latencies | Hot _ -> ());
      records := r :: !records;
      open_loop ()
    end
  in
  open_loop ();
  let open_rss_kb = Common.peak_rss_kb () in
  let closed_done = ref 0 and closed_probes = ref [ !after ] in
  let t0 = Common.now_ms () in
  while Common.now_ms () < closed_until do
    let r =
      if is_cold ~offset:cold_offset (!k + 1) then begin
        let r, ms = Common.timed request in
        cold_latencies := ms :: !cold_latencies;
        r
      end
      else request ()
    in
    records := r :: !records;
    if Result.is_ok r.got then incr closed_done;
    if !k mod probe_every = 0 then closed_probes := Common.probe () :: !closed_probes
  done;
  let speed =
    Stats.sum (Array.of_list !closed_probes)
    /. float_of_int (List.length !closed_probes)
    /. Common.reference_ms
  in
  {
    latencies = !latencies;
    cold_latencies = !cold_latencies;
    late = !late;
    open_rss_kb;
    closed_rate = float_of_int !closed_done /. ((Common.now_ms () -. t0) /. 1000.) *. speed;
    records = !records;
  }

let extras = [ ("generator.late_ms_p99", "ms"); ("server.rejected", "count") ]

(* Two thirds of the time open loop, one third closed loop. *)
let measure st ~seconds =
  let start = Common.now_ms () in
  let open_until = start +. (1000. *. seconds *. 2. /. 3.) in
  let closed_until = start +. (1000. *. seconds) in
  (* Spawned from a pinned thread, both clients' runtime helper threads
     would share the set-up's CPU. *)
  Affinity.unpin ();
  let results =
    List.init clients (fun client ->
        Domain.spawn (fun () -> run_client st ~client ~open_until ~closed_until ~start))
    |> List.map Domain.join
  in
  Affinity.pin 0;
  let rss_kb = List.fold_left (fun acc r -> max acc r.open_rss_kb) 0 results in
  let expected = Hashtbl.create 256 in
  let expect = function
    | Hot (s, j, k) as req -> (
      match Hashtbl.find_opt expected (s, j, k) with
      | Some v -> v
      | None ->
        let v = Oracle.expected (draw st.inp req) in
        Hashtbl.add expected (s, j, k) v;
        v)
    | Cold d -> Oracle.expected d
  in
  let records = List.concat_map (fun r -> r.records) results in
  let failed =
    List.length
      (List.filter
         (fun r ->
           match r.got with
           | Ok v -> not (Common.check (v = expect r.req))
           | Error msg ->
             prerr_endline ("serve-mixed request failed: " ^ msg);
             true)
         records)
  in
  if Trace.enabled (Steno.Engine.tracer st.eng) then begin
    Common.record_engine st.layers st.eng;
    List.iter
      (fun r -> match r.req with Cold d -> Common.record_draw st.layers st.eng d | Hot _ -> ())
      records
  end;
  let all f = Array.of_list (List.concat_map f results) in
  let late = all (fun r -> r.late) in
  {
    Common.p50 = Common.percentile 0.5 (all (fun r -> r.latencies));
    tail = Common.percentile 0.5 (all (fun r -> r.cold_latencies));
    throughput = List.fold_left (fun acc r -> acc +. r.closed_rate) 0. results;
    attempted = List.length records;
    failed;
    rss_kb;
    extra =
      [
        ("generator.late_ms_p99", Layers.pct 0.99 late, "ms");
        ("server.rejected", float_of_int (Server.stats st.server).Server.rejected, "count");
      ];
  }
