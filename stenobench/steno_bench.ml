(* The Steno benchmark: one workload per invocation.

     steno_bench.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
                     [--chrome FILE] [--plant-mismatch] [--smoke]

   Workloads: kernels, cold-prepare, warm-restart, serve-mixed (see
   README.md for why each exists).  The seed fixes every query shape,
   literal and input row.  Set-up runs seven times and reports its
   median; the workload then measures for [--seconds].  [--smoke] sets
   up once, shrinks the warm store and reports percentiles of however
   few samples there are: it checks that everything runs.

   With [--trace 0] it prints the end-to-end metrics, with [--trace 1]
   the per-layer ones: half the time untraced, half with the engine's
   tracer on, whose spans attribute time to layers (written as Chrome
   trace_event JSON to [--chrome]).  Each metric is a line
   [name value unit], its times at the reference host speed
   ([Common.timed]); a [# host ...] line states the host, a [# speed ...]
   line the median host-speed probe, and a final [# attempted N failed N]
   line the operations checked against [Reference].  Any failed or wrong
   operation makes the exit code 1.

   [--populate DIR] and [--pass DIR] are the child processes of
   warm-restart. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let chrome = ref ""
let populate_dir = ref ""
let pass_dir = ref ""
let out = ref ""

let specs =
  Arg.
    [
      ("--workload", Set_string workload, "NAME kernels | cold-prepare | warm-restart | serve-mixed");
      ("--seed", Set_int seed, "N input seed");
      ("--seconds", Set_float seconds, "S measured time (default 10)");
      ("--trace", Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--chrome", Set_string chrome, "FILE Chrome trace output of a traced run");
      ("--plant-mismatch", Set Common.plant_mismatch, " fail the first result check");
      ("--smoke", Set Common.smoke, " a quick run that checks the plumbing, not the numbers");
      ("--populate", Set_string populate_dir, "DIR (warm-restart child) fill a plugin store");
      ("--pass", Set_string pass_dir, "DIR (warm-restart child) one restart over a store");
      ("--out", Set_string out, "FILE (warm-restart child) where a pass writes its samples");
    ]

let usage = "steno_bench.exe --workload NAME --seed N [--seconds S] [--trace 0|1]"

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("steno_bench: " ^ msg); exit 2) fmt

(* A workload as [run] below sees it: [w ~traced ~rep layers]
   builds a fresh system (the timed set-up) and returns its measuring
   function. *)
type workload = traced:bool -> rep:int -> Layers.t -> seconds:float -> Common.phase

let workload_of_name name ~seed : workload =
  match name with
  | "kernels" ->
    let ks = Kernels.inputs ~seed in
    fun ~traced ~rep:_ layers ->
      Kernels.measure (Kernels.setup ks ~traced layers)
  | "cold-prepare" ->
    let next = ref 0 in
    fun ~traced ~rep layers ->
      Cold.cold_measure (Cold.cold_setup ~seed ~traced ~rep layers) ~next
  | "warm-restart" ->
    fun ~traced ~rep:_ layers ->
      let dir = Cold.warm_setup ~seed in
      let chrome = if traced then Some !chrome else None in
      Cold.warm_measure ~seed ~dir ~traced ~chrome layers
  | "serve-mixed" ->
    let inp = Serve.inputs ~seed in
    fun ~traced ~rep:_ layers -> Serve.measure (Serve.setup inp ~traced layers)
  | other -> die "unknown workload %S" other

let flambda () =
  try
    let ic = Unix.open_process_in "ocamlopt -config-var flambda 2>/dev/null" in
    let v = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    v
  with Unix.Unix_error _ -> "unknown"

(* A per-layer metric that could not be computed (a ratio over no
   samples) reads 0, like one that does not apply. *)
let print_metric (name, value, unit) =
  Printf.printf "%s %.17g %s\n" name (if Float.is_finite value then value else 0.) unit

let setup_reps () = if !Common.smoke then 1 else 7

let median_of a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let run name =
  if not (Steno.native_available ()) then
    die "the Native backend is unavailable (no ocamlopt on PATH, or no native \
         Dynlink); refusing to measure another backend in its place";
  let w = workload_of_name name ~seed:!seed in
  Printf.printf "# host workload=%s seed=%d nproc=%d ocaml=%s flambda=%s native=%b seconds=%g trace=%d\n%!"
    name !seed (Domain.recommended_domain_count ()) Sys.ocaml_version (flambda ())
    (Steno.native_available ()) !seconds !trace;
  (* Set-up, and all but warm-restart's and serve-mixed's measuring, runs
     on this domain: pinned, with the compilers it starts, to the CPU its
     probes measure.  serve-mixed's clients and warm-restart's restarts
     pin themselves; warm-restart's set-up fills its store from a child
     process on two domains. *)
  if name <> "warm-restart" then Affinity.pin 0;
  let untraced = Layers.create () in
  let measure = ref None in
  let setup_s =
    median_of
      (Array.init (setup_reps ()) (fun rep ->
           let m, ms = Common.timed (fun () -> w ~traced:false ~rep untraced) in
           measure := Some m;
           ms /. 1000.))
  in
  let measure = Option.get !measure in
  let latency which = function
    | Ok v -> v
    | Error msg -> die "%s latency %s: %s (raise --seconds)" name which msg
  in
  let attempted, failed =
    if !trace = 0 then begin
      let phase = measure ~seconds:!seconds in
      List.iter print_metric
        [
          ("latency_ms_p50", latency "p50" phase.Common.p50, "ms");
          ("latency_ms_tail", latency "tail" phase.Common.tail, "ms");
          ("throughput_per_s", phase.Common.throughput, "1/s");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", float_of_int phase.Common.rss_kb /. 1024., "MiB");
        ];
      (phase.Common.attempted, phase.Common.failed)
    end
    else begin
      let half = !seconds /. 2. in
      let plain = measure ~seconds:half in
      let layers = Layers.create () in
      let traced = w ~traced:true ~rep:(setup_reps ()) layers ~seconds:half in
      let overhead =
        match plain.Common.p50, traced.Common.p50 with
        | Ok a, Ok b -> 100. *. ((b /. a) -. 1.)
        | _ -> 0.
      in
      let extras =
        List.map
          (fun (n, u) ->
            match List.find_opt (fun (n', _, _) -> n = n') plain.Common.extra with
            | Some m -> m
            | None -> (n, 0., u))
          (Kernels.extras @ Serve.extras)
      in
      List.iter print_metric
        (Layers.metrics layers @ extras
        @ [
            ("trace_overhead_pct", overhead, "%");
            ("host.probe_ms_p50", Common.probe_p50 (), "ms");
          ]);
      Layers.write_chrome layers !chrome;
      ( plain.Common.attempted + traced.Common.attempted,
        plain.Common.failed + traced.Common.failed )
    end
  in
  Printf.printf "# speed probe_ms_p50=%g reference_ms=%g\n" (Common.probe_p50 ())
    Common.reference_ms;
  Printf.printf "# attempted %d failed %d\n%!" attempted failed;
  if failed > 0 then exit 1

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  Filename.set_temp_dir_name (Lazy.force Common.scratch);
  if !populate_dir <> "" then Cold.populate ~seed:!seed ~dir:!populate_dir
  else if !pass_dir <> "" then
    Cold.pass ~seed:!seed ~dir:!pass_dir ~traced:(!trace = 1)
      ~chrome:(if !chrome = "" then None else Some !chrome)
      ~out:!out
  else begin
    if !workload = "" then die "--workload is required\n%s" usage;
    if !chrome = "" then
      chrome :=
        Filename.concat Common.out_dir
          (Printf.sprintf "trace-%s-%d.json" !workload !seed);
    run !workload
  end
