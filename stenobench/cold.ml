(* Workloads [cold-prepare] and [warm-restart]: the one-off cost of a
   query shape (section 7.1 of the paper), paid through the persistent
   plugin store's write path and its read path respectively.  Both walk
   the same seeded stream of generated queries ([Gen]) and time each
   query from the prepare call to its first result, at the reference host
   speed ([Common.timed]). *)

let disk_config ~traced dir =
  Common.config ~traced Steno.Config.(default |> with_disk_cache ~dir)

(* Prepare and run one draw, timed; the result is checked against
   [Reference] outside the timed interval.  Returns the time and whether
   the draw came back correct. *)
let first_result layers eng (d : Gen.draw) =
  let tracer = Steno.Engine.tracer eng in
  let got, ms =
    Common.timed (fun () ->
        try
          Ok
            (Layers.traced layers tracer (fun () ->
                 Oracle.execute ~tracer (Oracle.of_engine eng) d))
        with e -> Error (Printexc.to_string e))
  in
  match got with
  | Ok v -> (ms, Common.check (v = Oracle.expected d))
  | Error msg ->
    Printf.eprintf "draw %d failed: %s\n%!" d.Gen.index msg;
    (ms, false)

(* The upper percentile of the first-result times. *)
let tail_q = 0.9

let phase_of ~samples ~failed ~rss_kb =
  let samples = Array.of_list samples in
  {
    Common.p50 = Common.percentile 0.5 samples;
    tail = Common.percentile tail_q samples;
    throughput = float_of_int (Array.length samples) /. (Stats.sum samples /. 1000.);
    attempted = Array.length samples;
    failed;
    rss_kb;
    extra = [];
  }

(* --- cold-prepare ----------------------------------------------------- *)

type cold = { eng : Steno.Engine.t; seed : int; layers : Layers.t }

(* A fresh store, and one throwaway compile that pays the compiler probe
   and scratch directory.  The throwaway draws from negative indices,
   whose literals no measured draw shares. *)
let cold_setup ~seed ~traced ~rep layers =
  let eng = Steno.Engine.create (disk_config ~traced (Common.fresh_dir "pcache")) in
  ignore (Oracle.execute (Oracle.of_engine eng) (Gen.draw ~seed (-1 - rep)));
  { eng; seed; layers }

(* Every loaded plugin stays mapped, so the resident set grows with the
   number of queries a run gets through; it is read after a fixed number
   of them, which keeps it independent of how fast the host is. *)
let rss_after = 100

(* A closed loop on one domain: each query is new, so each compiles.
   [next] is the next stream index, carried from phase to phase. *)
let cold_measure st ~next ~seconds =
  let deadline = Common.now_ms () +. (1000. *. seconds) in
  let samples = ref [] and failed = ref 0 and drawn = ref [] in
  let rss_kb = ref 0 in
  while Common.now_ms () < deadline do
    if List.length !samples = rss_after then rss_kb := Common.peak_rss_kb ();
    let d = Gen.draw ~seed:st.seed !next in
    incr next;
    let ms, ok = first_result st.layers st.eng d in
    samples := ms :: !samples;
    drawn := d :: !drawn;
    if not ok then incr failed
  done;
  if Trace.enabled (Steno.Engine.tracer st.eng) then begin
    Common.record_engine st.layers st.eng;
    List.iter (Common.record_draw st.layers st.eng) !drawn
  end;
  if !rss_kb = 0 then rss_kb := Common.peak_rss_kb ();
  phase_of ~samples:!samples ~failed:!failed ~rss_kb:!rss_kb

(* --- warm-restart ----------------------------------------------------- *)

(* Queries in the warm store: the first [store_size ()] draws of the
   stream.  Enough that the median over the store's queries varies
   little from seed to seed, few enough that populating the store (the
   set-up) stays near a second. *)
let store_size () = if !Common.smoke then 8 else 50

let spawn args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("child failed: " ^ String.concat " " args)

(* Child process: compile the store's queries into [dir], on two
   domains. *)
let populate ~seed ~dir =
  let eng = Steno.Engine.create (disk_config ~traced:false dir) in
  let layers = Layers.create () in
  let compile first =
    Domain.spawn (fun () ->
        List.init (store_size () / 2) (fun i ->
            snd (first_result layers eng (Gen.draw ~seed ((2 * i) + first)))))
  in
  let results = List.concat_map Domain.join [ compile 0; compile 1 ] in
  if List.exists not results then exit 1

let smoke_flag () = if !Common.smoke then [ "--smoke" ] else []

(* Parent set-up: populate a fresh store from a child process. *)
let warm_setup ~seed =
  let dir = Common.fresh_dir "pcache" in
  spawn ([ "--populate"; dir; "--seed"; string_of_int seed ] @ smoke_flag ());
  dir

(* Child process: one restart.  A fresh process and engine over the warm
   store prepares and runs every stored query once, then writes its
   samples (and, when traced, its layer records) to [out]. *)
let pass ~seed ~dir ~traced ~chrome ~out =
  Affinity.pin 0;
  let eng = Steno.Engine.create (disk_config ~traced dir) in
  let layers = Layers.create () in
  let results =
    List.init (store_size ()) (fun i -> first_result layers eng (Gen.draw ~seed i))
  in
  let oc = open_out out in
  List.iter
    (fun (ms, ok) ->
      Printf.fprintf oc "first_result %.17g\n" ms;
      if not ok then output_string oc "failed\n")
    results;
  if traced then begin
    Common.record_engine layers eng;
    List.iter (Common.record_draw layers eng) (List.init (store_size ()) (Gen.draw ~seed));
    Layers.dump layers oc
  end;
  Printf.fprintf oc "rss_kb %d\n" (Common.peak_rss_kb ());
  Printf.fprintf oc "probe %.17g\n" (Common.probe_p50 ());
  close_out oc;
  Option.iter (Layers.write_chrome layers) chrome

(* Parent loop: restarts until the time is up.  The phase's peak RSS is
   the largest any restart reached.  A planted mismatch
   ([--plant-mismatch]) goes to the first restart, where the checks
   run. *)
let warm_measure ~seed ~dir ~traced ~chrome layers ~seconds =
  let deadline = Common.now_ms () +. (1000. *. seconds) in
  let out = Filename.concat (Common.fresh_dir "pass") "result" in
  let samples = ref [] and failed = ref 0 and rss = ref 0 in
  let first = ref true in
  while Common.now_ms () < deadline do
    let chrome = if !first then chrome else None in
    let plant = !Common.plant_mismatch in
    first := false;
    Common.plant_mismatch := false;
    spawn
      ([ "--pass"; dir; "--seed"; string_of_int seed; "--out"; out;
         "--trace"; (if traced then "1" else "0") ]
      @ Option.fold ~none:[] ~some:(fun f -> [ "--chrome"; f ]) chrome
      @ (if plant then [ "--plant-mismatch" ] else [])
      @ smoke_flag ());
    let ic = open_in out in
    (try
       while true do
         let line = input_line ic in
         match String.split_on_char ' ' line with
         | [ "first_result"; ms ] -> samples := float_of_string ms :: !samples
         | [ "failed" ] -> incr failed
         | [ "rss_kb"; kb ] -> rss := max !rss (int_of_string kb)
         | [ "probe"; ms ] -> Common.record_probe (float_of_string ms)
         | _ -> Layers.load_line layers line
       done
     with End_of_file -> close_in ic)
  done;
  phase_of ~samples:!samples ~failed:!failed ~rss_kb:!rss
