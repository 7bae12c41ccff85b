(* What every workload shares: the result of one measured phase, the
   host-speed probes, scratch space, engine configuration, and the
   correctness check. *)

let now_ms = Telemetry.now_ms

type metric = string * float * string

(* One measured phase of a workload.  [p50]/[tail] are the workload's
   latency percentiles in ms (an [Error] when the sample count cannot
   support them), [throughput] its completed work per second, and
   [rss_kb] the peak resident set of the processes that did the work,
   read when the measured loop ends: checking results against
   [Reference] afterwards allocates far more than the system does. *)
type phase = {
  p50 : (float, string) result;
  tail : (float, string) result;
  throughput : float;
  attempted : int;
  failed : int;
  rss_kb : int;
  extra : metric list;
}

(* [--smoke]: one set-up, small sizes, and percentiles of however few
   samples there are; for checking that everything runs, not for
   numbers. *)
let smoke = ref false

let percentile q samples =
  let min_beyond = if !smoke then 0 else Stats.min_beyond in
  Result.map (fun p -> p.Stats.value) (Stats.percentile ~min_beyond q samples)

(* --- Host speed --------------------------------------------------------- *)

(* The machine these numbers come from is a shared two-vCPU virtual
   machine.  Each vCPU runs at full speed or at about half of it,
   switching within seconds as other tenants load the host, and process CPU
   time slows with it, so this is not steal time that could be subtracted.
   Every timed operation is therefore bracketed by two probes of a fixed
   floating-point loop that fits in L1 and allocates nothing, and its time
   is reported at a reference speed:

     time = measured * reference_ms / mean (probe before, probe after)

   A probe is the fastest of five chunks of about 25 us, so a preemption
   that hits one chunk does not count.  The times stay in ms: those of
   this machine at full speed, where a chunk takes [reference_ms]. *)

let reference_ms = 0.025

let probe_xs = Array.init 256 (fun i -> float_of_int i /. 256.)

let chunk () =
  let t0 = now_ms () in
  let acc = ref 0. in
  for _ = 1 to 100 do
    for j = 0 to Array.length probe_xs - 1 do
      acc := !acc +. (probe_xs.(j) *. 1.0000001)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now_ms () -. t0

(* Every probe of this process, for the [host.probe_ms_p50] record. *)
let probes = ref []
let probes_mu = Mutex.create ()

let record_probe p = Mutex.protect probes_mu (fun () -> probes := p :: !probes)

let probe () =
  let best = ref infinity in
  for _ = 1 to 5 do
    best := Float.min !best (chunk ())
  done;
  record_probe !best;
  !best

let at_reference ~before ~after ms = ms *. reference_ms *. 2. /. (before +. after)

(* [f ()] between two probes: its result and its time at the reference
   speed. *)
let timed f =
  let before = probe () in
  let t0 = now_ms () in
  let v = f () in
  let ms = now_ms () -. t0 in
  (v, at_reference ~before ~after:(probe ()) ms)

let probe_p50 () =
  Mutex.protect probes_mu (fun () ->
      match !probes with
      | [] -> 0.
      | l -> (Stats.sorted (Array.of_list l)).(List.length l / 2))

(* --- Scratch space ---------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Plugin stores, compiler scratch files and traces live under
   [.stenobench/] in the directory the benchmark runs from; each process
   removes its own [run-<pid>] directory on exit. *)
let out_dir = Filename.concat (Sys.getcwd ()) ".stenobench"

let scratch =
  lazy
    (let d = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
     mkdir_p d;
     at_exit (fun () -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ());
     d)

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d = Filename.concat (Lazy.force scratch) (Printf.sprintf "%s-%d" name !n) in
    mkdir_p d;
    d

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- Engines ---------------------------------------------------------- *)

(* A private metrics registry per engine, and on traced phases the
   engine's own request tracer sampling every operation. *)
let config ~traced cfg =
  let cfg = Steno.Config.with_metrics (Metrics.create ()) cfg in
  if traced then Steno.Config.with_tracing ~sample:1.0 ~ring:16 cfg else cfg

(* Plugin-cache and store figures of an engine, into [layers]. *)
let record_engine layers eng =
  let s = Steno.Engine.cache_stats eng in
  Layers.add_count layers "lru.hits" s.Steno.Engine.hits;
  Layers.add_count layers "lru.misses" s.Steno.Engine.misses;
  Layers.add_count layers "lru.evictions" s.Steno.Engine.evictions;
  Option.iter
    (fun (p : Pcache.stats) ->
      Layers.add_count layers "pcache.stores" p.Pcache.st_stores;
      Layers.add_gauge layers "pcache.bytes" p.Pcache.st_bytes;
      Layers.add_gauge layers "pcache.entries" p.Pcache.st_entries)
    (Steno.Engine.pcache_stats eng)

(* Size of a draw's plan: operators of its optimized QUIL chain and bytes
   of its generated source. *)
let record_draw layers eng (d : Gen.draw) =
  let ex =
    match d.Gen.query with
    | Gen.Rows q -> Steno.Engine.explain eng q
    | Gen.Scalar q -> Steno.Engine.explain_scalar eng q
  in
  Layers.add_count layers "plans" 1;
  Layers.add_count layers "plans.quil_ops" ex.Steno.Engine.operators_after;
  Layers.add_count layers "plans.source_bytes" (String.length (Gen.source d))

(* --- Correctness ------------------------------------------------------ *)

(* [--plant-mismatch] makes the first comparison of a run fail, as if its
   expected value were wrong: the run must count it and exit non-zero. *)
let plant_mismatch = ref false

let check ok =
  if !plant_mismatch then begin
    plant_mismatch := false;
    false
  end
  else ok
