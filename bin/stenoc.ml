(* stenoc: inspect and run Steno's optimization pipeline on a gallery of
   demo queries.

     stenoc list
     stenoc show <query>            print chain, QUIL and generated code
     stenoc run <query> [-b BACKEND] [-n SIZE] [--trace]
     stenoc bench <query> [-n SIZE]
     stenoc stats <query> [-b BACKEND] [-n SIZE] [--reps R]
     stenoc lint [<query> | --all]   static checks with rule codes
     stenoc verify [<query> | --all] translation-validate the optimizer
     stenoc cost <query> [-n SIZE] [--reps R]   profile, then re-prepare
                                     and print the cost-based decisions
*)

module I = Expr.Infix

type demo =
  | Collection : {
      name : string;
      descr : string;
      elem : 'a Ty.t;
      build : int -> 'a Query.t;
    }
      -> demo
  | Scalar : {
      name : string;
      descr : string;
      ty : 's Ty.t;
      build : int -> 's Query.sq;
    }
      -> demo

let float_input n = Array.init n (fun i -> float_of_int (i mod 1000) /. 997.0)

let int_input n = Array.init n (fun i -> (i * 37) mod 1009)

(* Expensive and almost always true, yet opaque to the interval
   analysis (a provable predicate would be deleted, not reordered): an
   iterated hash compared one below the modulus range's top. *)
let needle_expensive x =
  let h = ref I.(x * Expr.int 131 + Expr.int 7) in
  for _ = 1 to 6 do
    h := I.((!h * Expr.int 131 + Expr.int 7) mod Expr.int 1000003)
  done;
  I.(!h < Expr.int 1000002)

let needle_cheap x = I.(x mod Expr.int 997 = Expr.int 0)

let demos =
  [
    Collection
      {
        name = "even-squares";
        descr = "where (x mod 2 = 0) |> select (x * x) - the paper's intro query";
        elem = Ty.Int;
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
            |> Query.select (fun x -> I.(x * x)));
      };
    Scalar
      {
        name = "sumsq";
        descr = "sum of squares of doubles (Fig. 1)";
        ty = Ty.Float;
        build =
          (fun n ->
            Query.of_array Ty.Float (float_input n)
            |> Query.select (fun x -> I.(x *. x))
            |> Query.sum_float);
      };
    Scalar
      {
        name = "cart";
        descr = "sum over a Cartesian product (nested loops, section 5)";
        ty = Ty.Float;
        build =
          (fun n ->
            Query.of_array Ty.Float (float_input (max 1 (n / 100)))
            |> Query.select_many (fun x ->
                   Query.of_array Ty.Float (float_input 100)
                   |> Query.select (fun y -> I.(x *. y)))
            |> Query.sum_float);
      };
    Collection
      {
        name = "histogram";
        descr = "GroupBy + count: auto-specialized to GroupByAggregate (4.3)";
        elem = Ty.Pair (Ty.Int, Ty.Int);
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.group_by (fun x -> I.(x mod Expr.int 16))
            |> Query.select (fun g ->
                   Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g))));
      };
    Collection
      {
        name = "join";
        descr = "equi-join: specialized to a hash join";
        elem = Ty.Pair (Ty.Int, Ty.Int);
        build =
          (fun n ->
            let pairs xs = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) xs in
            let left = pairs (Array.init n (fun i -> i mod 101, i)) in
            let right =
              pairs (Array.init (max 1 (n / 2)) (fun i -> i mod 101, i * 2))
            in
            left
            |> Query.join ~inner:right
                 ~outer_key:(fun l -> Expr.Fst l)
                 ~inner_key:(fun r -> Expr.Fst r)
                 ~result:(fun l r -> Expr.Pair (Expr.Snd l, Expr.Snd r)));
      };
    Collection
      {
        name = "top5";
        descr = "filter |> sort descending |> take 5";
        elem = Ty.Int;
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.where (fun x -> I.(x mod Expr.int 3 = Expr.int 0))
            |> Query.order_by ~order:Query.Descending (fun x -> x)
            |> Query.take 5);
      };
    Scalar
      {
        name = "closest";
        descr = "nested scalar subquery: argmin distance (k-means kernel)";
        ty = Ty.Int;
        build =
          (fun n ->
            let pts = float_input (max 8 n) in
            let c = Expr.capture (Ty.Array Ty.Float) pts in
            Query.range ~start:0 ~count:(min 64 (max 8 n))
            |> Query.min_by (fun j ->
                   Expr.let_ "d" I.(c.%(j) -. Expr.float 0.5) (fun d -> I.(d *. d))));
      };
    Collection
      {
        name = "redundant";
        descr =
          "stacked wheres/selects/takes/skips + rev rev: optimizer showcase";
        elem = Ty.Int;
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
            |> Query.where (fun x -> I.(x < Expr.int 900))
            |> Query.where (fun _ -> Expr.bool true)
            |> Query.select (fun x -> I.(x * x))
            |> Query.select (fun x -> I.(x + Expr.int 1))
            |> Query.skip 2 |> Query.skip 3
            |> Query.take 100 |> Query.take 50
            |> Query.rev |> Query.rev);
      };
    Collection
      {
        name = "needle";
        descr =
          "expensive always-true filter before a cheap selective one: \
           statically pessimal, fixed by the adaptive reorder";
        elem = Ty.Int;
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.where needle_expensive
            |> Query.where needle_cheap);
      };
    Scalar
      {
        name = "where3";
        descr =
          "three cheap filters feeding a count (Fig. 13): a branch-free \
           0/1 mask instead of three branches";
        ty = Ty.Int;
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.where (fun x -> I.(x mod Expr.int 3 <> Expr.int 0))
            |> Query.where (fun x -> I.(x mod Expr.int 5 <> Expr.int 0))
            |> Query.where (fun x -> I.(x > Expr.int 500))
            |> Query.count);
      };
    Scalar
      {
        name = "exists";
        descr = "early-exit aggregate: stops at the first witness";
        ty = Ty.Bool;
        build =
          (fun n ->
            Query.of_array Ty.Int (int_input n)
            |> Query.exists (fun x -> I.(x = Expr.int 1000)));
      };
  ]

let demo_name = function
  | Collection { name; _ } | Scalar { name; _ } -> name

let demo_descr = function
  | Collection { descr; _ } | Scalar { descr; _ } -> descr

let find name =
  match List.find_opt (fun d -> demo_name d = name) demos with
  | Some d -> Ok d
  | None ->
    Error
      (Printf.sprintf "unknown query %S; try: %s" name
         (String.concat ", " (List.map demo_name demos)))

(* Unknown-demo exit: name what exists and use a distinct status (2) so
   scripts can tell "no such demo" from "demo failed". *)
let unknown_demo name =
  Printf.eprintf "unknown demo %S. Available demos:\n" name;
  List.iter
    (fun d -> Printf.eprintf "  %-14s %s\n" (demo_name d) (demo_descr d))
    demos;
  2

let backend_of_string = function
  | "linq" -> Ok Steno.Linq
  | "fused" -> Ok Steno.Fused
  | "native" -> Ok Steno.Native
  | s -> Error (Printf.sprintf "unknown backend %S (linq|fused|native)" s)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

(* Commands. *)

let cmd_list () =
  List.iter
    (fun d -> Printf.printf "%-14s %s\n" (demo_name d) (demo_descr d))
    demos;
  0

let cmd_show name n =
  match find name with
  | Error e ->
    prerr_endline e;
    1
  | Ok (Collection { build; _ }) ->
    let q = build n in
    Format.printf "chain: %a@." Query.pp q;
    Printf.printf "QUIL:  %s\n\n%s" (Steno.quil q) (Steno.generated_source q);
    0
  | Ok (Scalar { build; _ }) ->
    let sq = build n in
    Format.printf "chain: %a@." Query.pp_sq sq;
    Printf.printf "QUIL:  %s\n\n%s" (Steno.quil_scalar sq)
      (Steno.generated_source_scalar sq);
    0

let preview : type a. a Ty.t -> a array -> string =
 fun ty arr ->
  let n = Array.length arr in
  let shown = min n 10 in
  let items =
    Array.to_list (Array.sub arr 0 shown)
    |> List.map (fun v -> Format.asprintf "%a" (Ty.pp_value ty) v)
  in
  Printf.sprintf "[%s%s] (%d elements)" (String.concat "; " items)
    (if n > shown then "; ..." else "")
    n

let engine_with ?(trace = false) ?pcache backend =
  let cfg = Steno.Config.(default |> with_backend backend) in
  let cfg =
    match pcache with
    | Some dir -> Steno.Config.with_disk_cache ~dir cfg
    | None -> cfg
  in
  Steno.Engine.create
    (if trace then Steno.Config.with_tracing ~sample:1.0 cfg else cfg)

(* Run [f] as one trace on a fresh engine's tracer; the trace, when the
   engine traces. *)
let traced eng name f =
  let tracer = Steno.Engine.tracer eng in
  Trace.with_trace tracer name f;
  List.nth_opt (Trace.traces tracer) 0

(* The trace's events, each summed by name over its ["n"] attributes. *)
let print_counters tr =
  let sums = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      match sp.Trace.sp_kind, List.assoc_opt "n" sp.Trace.sp_attrs with
      | Trace.Instant, Some n ->
        let name = sp.Trace.sp_name in
        Hashtbl.replace sums name
          (int_of_string n
          + Option.value ~default:0 (Hashtbl.find_opt sums name))
      | _ -> ())
    (Trace.spans tr);
  if Hashtbl.length sums > 0 then begin
    print_endline "counters:";
    List.iter
      (fun (k, v) -> Printf.printf "  %-22s %d\n" k v)
      (List.sort compare (List.of_seq (Hashtbl.to_seq sums)))
  end

let describe_fallback info =
  match info.Steno.fallback with
  | None -> ()
  | Some reason ->
    Printf.printf "(fell back from %s to %s: %s)\n"
      (Steno.backend_name info.Steno.requested)
      (Steno.backend_name info.Steno.backend)
      (Steno.fallback_reason_message reason)

let describe_rewrites = function
  | [] -> print_endline "rewrites: (none)"
  | rules -> Printf.printf "rewrites: %s\n" (String.concat ", " rules)

let cmd_run name backend n trace pcache =
  match find name, backend_of_string backend with
  | Error e, _ | _, Error e ->
    prerr_endline e;
    1
  | Ok demo, Ok b ->
    let eng = engine_with ~trace ?pcache b in
    let tr =
      traced eng name @@ fun () ->
      match demo with
      | Collection { elem; build; _ } ->
        let p, t_prep = time (fun () -> Steno.Engine.prepare eng (build n)) in
        let result, t_run = time (fun () -> Steno.Prepared.run p) in
        Printf.printf "%s\nprepare: %.1f ms, run: %.1f ms\n"
          (preview elem result) t_prep t_run;
        describe_fallback (Steno.Prepared.compile_info p);
        if trace then describe_rewrites (Steno.Prepared.rewrite_log p)
      | Scalar { ty; build; _ } ->
        let p, t_prep =
          time (fun () -> Steno.Engine.prepare_scalar eng (build n))
        in
        let result, t_run = time (fun () -> Steno.Prepared_scalar.run p) in
        Format.printf "%a@." (Ty.pp_value ty) result;
        Printf.printf "prepare: %.1f ms, run: %.1f ms\n" t_prep t_run;
        describe_fallback (Steno.Prepared_scalar.compile_info p);
        if trace then describe_rewrites (Steno.Prepared_scalar.rewrite_log p)
    in
    Option.iter
      (fun tr ->
        Printf.printf "\ntrace:\n%s" (Trace.report tr);
        print_counters tr)
      tr;
    0

(* Repeated prepare+run of one query through a fresh engine, traced as
   one request: the cache and per-stage roll-up view. *)
let cmd_stats name backend n reps =
  match find name, backend_of_string backend with
  | Error e, _ | _, Error e ->
    prerr_endline e;
    1
  | Ok demo, Ok b ->
    let eng = engine_with ~trace:true b in
    let reps = max 1 reps in
    let tr =
      traced eng name @@ fun () ->
      for _ = 1 to reps do
        match demo with
        | Collection { build; _ } ->
          ignore (Steno.Prepared.run (Steno.Engine.prepare eng (build n)))
        | Scalar { build; _ } ->
          ignore
            (Steno.Prepared_scalar.run
               (Steno.Engine.prepare_scalar eng (build n)))
      done
    in
    let spans = match tr with Some tr -> Trace.spans tr | None -> [] in
    Printf.printf "%d x prepare+run of %S on %s (n = %d)\n\n" reps name
      (Steno.backend_name b) n;
    let stats = Steno.Engine.cache_stats eng in
    if
      stats.Steno.Engine.entries = 0
      && stats.Steno.Engine.hits + stats.Steno.Engine.misses = 0
    then
      (* Nothing went through the cache (staged backends don't compile):
         say so instead of printing a row of zeros. *)
      Printf.printf "plugin cache: empty (capacity %d)\n\n"
        stats.Steno.Engine.capacity
    else
      Printf.printf
        "plugin cache: %d/%d entries, %d hits, %d misses, %d evictions\n\n"
        stats.Steno.Engine.entries stats.Steno.Engine.capacity
        stats.Steno.Engine.hits stats.Steno.Engine.misses
        stats.Steno.Engine.evictions;
    Printf.printf "%-12s %8s %12s %12s\n" "stage" "spans" "total(ms)"
      "mean(ms)";
    List.iter
      (fun stage ->
        let matching =
          List.filter
            (fun sp -> sp.Trace.sp_kind = Trace.Interval && sp.Trace.sp_name = stage)
            spans
        in
        if matching <> [] then begin
          let total =
            List.fold_left (fun acc sp -> acc +. sp.Trace.sp_duration_ms) 0.0
              matching
          in
          Printf.printf "%-12s %8d %12.3f %12.3f\n" stage
            (List.length matching) total
            (total /. float_of_int (List.length matching))
        end)
      [
        "prepare"; "optimize"; "specialize"; "canon"; "codegen"; "compile";
        "dynlink"; "env-bind"; "stage"; "run";
      ];
    Option.iter
      (fun tr ->
        print_newline ();
        print_counters tr)
      tr;
    0

(* Profiled execution of one demo on every available backend: the
   optimizer's before/after view annotated with what actually flowed
   through each operator. *)
let cmd_analyze name n =
  match find name with
  | Error _ -> unknown_demo name
  | Ok demo ->
    let backends =
      if Steno.native_available () then
        [ Steno.Linq; Steno.Fused; Steno.Native ]
      else [ Steno.Linq; Steno.Fused ]
    in
    List.iter
      (fun b ->
        let eng = engine_with b in
        let a =
          match demo with
          | Collection { build; _ } ->
            Steno.Engine.explain_analyze eng (build n)
          | Scalar { build; _ } ->
            Steno.Engine.explain_analyze_scalar eng (build n)
        in
        Printf.printf "=== %s ===\n%s\n" (Steno.backend_name b)
          (Steno.Engine.analysis_to_string a))
      backends;
    0

(* Close the profiler→optimizer loop on one demo: profiled runs feed
   the engine's statistics store, and a second preparation of the same
   plan consumes them — reordering filters, choosing a backend — with
   every decision printed. *)
let cmd_cost name n reps =
  match find name with
  | Error _ -> unknown_demo name
  | Ok demo ->
    let eng =
      Steno.Engine.create
        Steno.Config.(
          default |> with_backend Steno.Fused |> with_profile true
          |> with_adaptive)
    in
    let describe_prep label rules decisions =
      Printf.printf "%s:\n" label;
      (match rules with
      | [] -> print_endline "  rewrites: (none)"
      | rs -> Printf.printf "  rewrites: %s\n" (String.concat ", " rs));
      List.iter (fun d -> Printf.printf "  %s\n" d) decisions
    in
    let describe_store key =
      let store = Steno.Engine.cost_store eng in
      match Steno.Cost.snapshot store ~key with
      | None -> print_endline "statistics: (none recorded)"
      | Some s ->
        Printf.printf "statistics: epoch %d, %d runs, %d source rows\n"
          s.Steno.Cost.sn_epoch s.Steno.Cost.sn_runs s.Steno.Cost.sn_source_rows;
        List.iter
          (fun p ->
            let sel =
              if p.Steno.Cost.sn_tested = 0 then "n/a"
              else
                Printf.sprintf "%.4f"
                  (float_of_int p.Steno.Cost.sn_passed
                  /. float_of_int p.Steno.Cost.sn_tested)
            in
            let d = p.Steno.Cost.sn_digest in
            let d =
              if String.length d <= 48 then d
              else String.sub d 0 45 ^ "..."
            in
            Printf.printf "  pred %-48s  tested %d  passed %d  selectivity %s\n"
              d p.Steno.Cost.sn_tested p.Steno.Cost.sn_passed sel)
          s.Steno.Cost.sn_preds
    in
    let timed_runs run =
      let _, ms = time (fun () -> for _ = 1 to reps do ignore (run ()) done) in
      Printf.printf "%d runs: %.2f ms\n" reps ms
    in
    let both_prepares root prepare =
      let key = Steno.Cost.plan_key ~optimize:true (fst (Opt.plan_ev root)) in
      let p1 = prepare () in
      describe_prep "first prepare (static priors)"
        (Steno.Prepared.rewrite_log p1)
        (Steno.Prepared.decisions p1);
      timed_runs (fun () -> Steno.Prepared.run p1);
      describe_store key;
      let p2 = prepare () in
      describe_prep "second prepare (observed statistics)"
        (Steno.Prepared.rewrite_log p2)
        (Steno.Prepared.decisions p2);
      timed_runs (fun () -> Steno.Prepared.run p2)
    in
    (match demo with
    | Collection { build; _ } ->
      let q = build n in
      both_prepares (Query.Rows q) (fun () -> Steno.Engine.prepare eng q)
    | Scalar { build; _ } ->
      let sq = build n in
      both_prepares (Query.Scalar sq) (fun () ->
          Steno.Engine.prepare_scalar eng sq));
    0

(* Exercise a profiling engine across the demo gallery and dump the
   resulting registry in OpenMetrics text format. *)
let cmd_metrics n =
  let reg = Metrics.create () in
  let eng =
    Steno.Engine.(
      create
        {
          default_config with
          profile = true;
          metrics = reg;
          adaptive = Some { Steno.Config.drift = 0.3; fused_below = 64 };
        })
  in
  let backends =
    if Steno.native_available () then
      [ Steno.Linq; Steno.Fused; Steno.Native ]
    else [ Steno.Linq; Steno.Fused ]
  in
  (* Runs are counted by the session that runs them. *)
  let sess = Steno.Session.create eng ~client_id:"stenoc" in
  List.iter
    (fun demo ->
      List.iter
        (fun b ->
          match demo with
          | Collection { build; _ } ->
            ignore (Steno.Session.to_array ~backend:b sess (build n))
          | Scalar { build; _ } ->
            ignore (Steno.Session.scalar ~backend:b sess (build n)))
        backends)
    demos;
  (* Run the statically-pessimal needle demo twice on one backend: the
     second preparation consumes the first run's selectivities, so the
     steno_adaptive_total{decision="reorder"} family carries a real
     count in the dump. *)
  (match find "needle" with
  | Ok (Collection { build; _ }) ->
    let q = build n in
    ignore (Steno.Engine.to_array ~backend:Steno.Fused eng q);
    ignore (Steno.Engine.to_array ~backend:Steno.Fused eng q)
  | _ -> ());
  (* A parallel run so the per-partition families appear too. *)
  let xs = int_input n in
  ignore
    (Par.scalar_auto ~engine:eng
       (Query.of_array Ty.Int xs
       |> Query.select (fun x -> I.(x * x))
       |> Query.sum_int));
  (* A decomposed Average: its (sum, count) partials go through the
     Agg-star merge, populating steno_agg_merge_ms. *)
  let fs = Array.init (max 1 n) (fun i -> float_of_int i) in
  ignore
    (Par.scalar_auto ~engine:eng
       (Query.of_array Ty.Float fs |> Query.average));
  (* Exercise the persistent plugin cache and tiered execution against a
     scratch store, so their metric families carry real values in the
     dump.  Both engines share [reg]; the tiering engine must not
     profile (tiering and profiling are mutually exclusive). *)
  let pdir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stenoc-metrics-pcache-%d" (Unix.getpid ()))
  in
  let pcfg =
    Steno.Config.(
      default |> with_metrics reg |> with_disk_cache ~dir:pdir
      |> with_tiering ~threshold:2)
  in
  (if Steno.native_available () then begin
     let sq =
       Query.of_array Ty.Int (int_input (max 16 n))
       |> Query.select (fun x -> I.(x + Expr.int 9_000_001))
       |> Query.sum_int
     in
     (* First engine compiles and publishes; a second engine on the same
        store loads from disk — one pcache miss, one hit. *)
     ignore
       (Steno.Engine.scalar ~backend:Steno.Native
          (Steno.Engine.create Steno.Config.(pcfg |> without_tiering))
          sq);
     let tiered = Steno.Engine.create pcfg in
     let p = Steno.Engine.prepare_scalar ~backend:Steno.Native tiered sq in
     for _ = 1 to 3 do
       ignore (Steno.Prepared_scalar.run p)
     done;
     (* Bounded wait for the background promotion to count itself. *)
     let deadline = Unix.gettimeofday () +. 5.0 in
     while
       Steno.Prepared_scalar.backend_used p <> Steno.Native
       && Unix.gettimeofday () < deadline
     do
       Unix.sleepf 0.005
     done
   end
   else
     (* No compiler: still create the engines so the pcache/tiering
        families render (at zero). *)
     ignore (Steno.Engine.create pcfg));
  (* The engines' stores are written in the background: let them land
     before the scratch store goes. *)
  Pcache.flush ();
  (try
     let rec rm d =
       Sys.readdir d
       |> Array.iter (fun f ->
              let p = Filename.concat d f in
              if Sys.is_directory p then rm p else Sys.remove p);
       Unix.rmdir d
     in
     if Sys.file_exists pdir then rm pdir
   with _ -> ());
  let stats = Steno.Engine.cache_stats eng in
  let set name help v =
    Metrics.set_gauge
      (Metrics.gauge reg name ~help ~labels:[])
      (float_of_int v)
  in
  set "steno_cache_entries" "Compiled plugins currently cached"
    stats.Steno.Engine.entries;
  set "steno_cache_hits" "Plugin cache hits" stats.Steno.Engine.hits;
  set "steno_cache_misses" "Plugin cache misses" stats.Steno.Engine.misses;
  set "steno_cache_evictions" "Plugin cache evictions"
    stats.Steno.Engine.evictions;
  print_string (Metrics.render reg);
  0

(* A small self-contained stress of the serving layer: simulated tenants
   on the domain pool submit the sumsq demo through one Server over one
   Engine, then the metrics registry is dumped in OpenMetrics format —
   the per-tenant series ([client="tenant-N"]) and the server request /
   queue families are what an operator would scrape. *)
let cmd_serve clients requests n admin_port hold =
  let clients = max 1 clients in
  let requests = max 1 requests in
  let reg = Metrics.create () in
  let cfg = Steno.Config.(default |> with_metrics reg) in
  (* The admin listener only makes sense with something to look at, so
     [--admin-port] also turns tracing on (full sampling, 5 ms slow
     threshold). *)
  let cfg =
    if admin_port = None then cfg
    else Steno.Config.(cfg |> with_tracing ~slow_ms:5.0)
  in
  let eng = Steno.Engine.create cfg in
  let ops = Option.map (fun port -> Ops.start ~port eng) admin_port in
  let srv = Server.create eng in
  let xs = int_input n in
  let q =
    Query.of_array Ty.Int xs
    |> Query.select (fun x -> I.(x * x))
    |> Query.sum_int
  in
  let workers = min 4 (max 2 (Domain_pool.recommended_workers ())) in
  let completed_per_client =
    Domain_pool.run ~workers ~tasks:clients (fun c ->
        let completed = ref 0 in
        for _ = 1 to requests do
          match
            Server.submit srv
              ~client_id:(Printf.sprintf "tenant-%d" (c mod 4))
              (fun sess -> Steno.Session.scalar sess q)
          with
          | Server.Done _ -> incr completed
          | Server.Rejected _ -> ()
          | Server.Failed e -> raise e
        done;
        !completed)
  in
  let completed = Array.fold_left ( + ) 0 completed_per_client in
  let st = Server.stats srv in
  Printf.printf
    "# %d clients x %d requests: %d completed, %d rejected, %d failed\n"
    clients requests completed st.Server.rejected st.Server.failed;
  print_string (Metrics.render reg);
  (match ops with
  | None -> ()
  | Some o ->
    (* Announce the bound port (meaningful with --admin-port 0) and
       keep the process — and the listener — alive for [hold] seconds,
       so an external scraper can hit the endpoints.  A SIGTERM or
       SIGINT ends the hold through [exit], so the [at_exit] hooks still
       run: the plugin store's queue is flushed and the compile workdir
       removed. *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 0)))
      [ Sys.sigterm; Sys.sigint ];
    Printf.printf "# admin listening on http://127.0.0.1:%d\n%!" (Ops.port o);
    if hold > 0.0 then Unix.sleepf hold;
    Ops.stop o);
  if st.Server.failed > 0 then 1 else 0

(* A traced, tiered workload through the serving layer: the trace
   source behind [trace export] and [trace slow].  Threshold 1 makes
   the very first request trip a background promotion compile, whose
   spans land in that request's trace via the domain pool's context
   propagation — so the export demonstrates a cross-domain trace. *)
let trace_workload n =
  let reg = Metrics.create () in
  let cfg =
    Steno.Config.(
      default |> with_metrics reg
      |> with_tracing ~slow_ms:0.0
      |> with_tiering ~threshold:1)
  in
  let eng = Steno.Engine.create cfg in
  let srv = Server.create eng in
  let xs = int_input n in
  let q =
    Query.of_array Ty.Int xs
    |> Query.select (fun x -> I.(x * x))
    |> Query.sum_int
  in
  for _ = 1 to 4 do
    match
      Server.submit srv ~client_id:"trace" (fun sess ->
          Steno.Session.scalar sess q)
    with
    | Server.Failed e -> raise e
    | Server.Done _ | Server.Rejected _ -> ()
  done;
  (* The promotion compile runs on a pool domain after the requests
     return; wait (bounded) for its outcome so the exported trace
     contains the compile spans. *)
  let promo result =
    Metrics.counter_value
      (Metrics.counter reg "steno_tier_promotions" ~labels:[ "result", result ])
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while promo "ok" + promo "failed" = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  eng

let cmd_trace_export n =
  print_string (Trace.export_chrome (Steno.Engine.tracer (trace_workload n)));
  0

let cmd_trace_slow n =
  print_string (Trace.slow_report (Steno.Engine.tracer (trace_workload n)));
  0

(* Operator maintenance of the persistent plugin store.  A handle's
   hit/miss counters are per-process, so [stats] reports only the disk
   figures; [clear] empties this toolchain's subdirectory. *)
let pcache_open dir =
  let dir = match dir with Some d -> d | None -> Pcache.default_dir () in
  dir, Pcache.create ~fingerprint:(Dynload.fingerprint ()) ~dir ()

let cmd_pcache_stats dir =
  let root, pc = pcache_open dir in
  let s = Pcache.stats pc in
  Printf.printf "store root:   %s\n" root;
  Printf.printf "fingerprint:  %s\n" (Dynload.fingerprint ());
  Printf.printf "store dir:    %s\n" (Pcache.dir pc);
  Printf.printf "entries:      %d\n" s.Pcache.st_entries;
  Printf.printf "plan records: %d\n" s.Pcache.st_records;
  Printf.printf "bytes:        %d\n" s.Pcache.st_bytes;
  0

let cmd_pcache_clear dir =
  let _, pc = pcache_open dir in
  let removed = Pcache.clear pc in
  Printf.printf "removed %d entries from %s\n" removed (Pcache.dir pc);
  0

let cmd_bench name n =
  match find name with
  | Error e ->
    prerr_endline e;
    1
  | Ok demo ->
    let backends =
      if Steno.native_available () then
        [ "linq", Steno.Linq; "fused", Steno.Fused; "native", Steno.Native ]
      else [ "linq", Steno.Linq; "fused", Steno.Fused ]
    in
    let median f =
      let samples = List.init 5 (fun _ -> snd (time f)) in
      List.nth (List.sort compare samples) 2
    in
    List.iter
      (fun (bname, b) ->
        let t =
          match demo with
          | Collection { build; _ } ->
            let p = Steno.prepare ~backend:b (build n) in
            median (fun () -> ignore (Steno.Prepared.run p))
          | Scalar { build; _ } ->
            let p = Steno.prepare_scalar ~backend:b (build n) in
            median (fun () -> ignore (Steno.Prepared_scalar.run p))
        in
        Printf.printf "%-8s %10.2f ms\n" bname t)
      backends;
    0

let cmd_eval src backend n =
  (* Evaluate a textual query against synthetic inputs:
     xs : int array, fs : float array, pairs : (int * float) array. *)
  match backend_of_string backend with
  | Error e ->
    prerr_endline e;
    1
  | Ok b -> (
    let lang_inputs : Elab.inputs =
      [
        "xs", Elab.Input (Ty.Int, int_input n);
        "fs", Elab.Input (Ty.Float, float_input n);
        ( "pairs",
          Elab.Input
            ( Ty.Pair (Ty.Int, Ty.Float),
              Array.init n (fun i -> i mod 97, float_of_int i /. 7.0) ) );
      ]
    in
    match Lang.run ~backend:b ~inputs:lang_inputs src with
    | result ->
      print_endline (Lang.result_to_string result);
      0
    | exception Lang.Error (msg, pos) ->
      Printf.eprintf "error at offset %d: %s\n" pos msg;
      1)

(* Explain a demo query by name (the optimizer's before/after view), or
   fall back to elaborating the argument as query text. *)
let cmd_explain src n =
  match find src with
  | Ok demo ->
    let eng = Steno.default_engine () in
    let ex =
      match demo with
      | Collection { build; _ } -> Steno.Engine.explain eng (build n)
      | Scalar { build; _ } -> Steno.Engine.explain_scalar eng (build n)
    in
    print_string (Steno.Engine.explain_to_string ex);
    0
  | Error _ when not (String.contains src ' ') ->
    (* A bare word that names no demo: a typo, not query text. *)
    unknown_demo src
  | Error _ -> (
    let lang_inputs : Elab.inputs =
      [
        "xs", Elab.Input (Ty.Int, int_input n);
        "fs", Elab.Input (Ty.Float, float_input n);
      ]
    in
    match Lang.explain ~inputs:lang_inputs src with
    | s ->
      print_endline s;
      0
    | exception Lang.Error (msg, pos) ->
      Printf.eprintf "error at offset %d: %s\n" pos msg;
      1)

(* Static checks on a demo, printed one diagnostic per line with stable
   rule codes.  Exit 1 when any Error-level diagnostic fires. *)
let lint_demo eng n demo =
  let diags =
    match demo with
    | Collection { build; _ } -> Steno.Engine.check eng (build n)
    | Scalar { build; _ } -> Steno.Engine.check_scalar eng (build n)
  in
  (match diags with
  | [] -> Printf.printf "%s: clean\n" (demo_name demo)
  | ds ->
    Printf.printf "%s:\n" (demo_name demo);
    List.iter (fun d -> Printf.printf "  %s\n" (Check.to_string d)) ds);
  Check.errors diags <> []

let cmd_lint name_opt all n =
  let eng = Steno.default_engine () in
  match name_opt, all with
  | _, true ->
    let any_error =
      List.fold_left (fun acc d -> lint_demo eng n d || acc) false demos
    in
    if any_error then 1 else 0
  | Some name, false -> (
    match find name with
    | Error _ -> unknown_demo name
    | Ok demo -> if lint_demo eng n demo then 1 else 0)
  | None, false ->
    prerr_endline "lint: name a demo query, or pass --all";
    2

(* Translation validation on a demo: replay the optimizer and print one
   line per proof obligation.  Exit 1 when any obligation is rejected. *)
let verify_demo eng n demo =
  let obligations =
    match demo with
    | Collection { build; _ } -> Steno.Engine.verify eng (build n)
    | Scalar { build; _ } -> Steno.Engine.verify_scalar eng (build n)
  in
  (match obligations with
  | [] -> Printf.printf "%s: no rewrites fired\n" (demo_name demo)
  | obs ->
    Printf.printf "%s:\n" (demo_name demo);
    List.iter
      (fun o -> Printf.printf "  %s\n" (Check.Equiv.obligation_string o))
      obs);
  not (Check.Equiv.accepted obligations)

let cmd_verify name_opt all n =
  let eng = Steno.default_engine () in
  match name_opt, all with
  | _, true ->
    let any_rejected =
      List.fold_left (fun acc d -> verify_demo eng n d || acc) false demos
    in
    if any_rejected then 1 else 0
  | Some name, false -> (
    match find name with
    | Error _ -> unknown_demo name
    | Ok demo -> if verify_demo eng n demo then 1 else 0)
  | None, false ->
    prerr_endline "verify: name a demo query, or pass --all";
    2

(* Command line. *)

open Cmdliner

let size =
  Arg.(value & opt int 1_000_000 & info [ "n"; "size" ] ~doc:"Input size.")

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")

let backend_arg =
  Arg.(
    value
    & opt string "native"
    & info [ "b"; "backend" ] ~doc:"Backend: linq, fused or native.")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the demo queries.")
    Term.(const cmd_list $ const ())

let show_cmd =
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Print a query's operator chain, and the QUIL sentence and \
          generated code a Native prepare compiles for it.")
    Term.(const cmd_show $ query_arg $ size)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the run's trace after running: every pipeline stage span \
           and event, and the events summed by name.")

let reps_arg =
  Arg.(
    value & opt int 5
    & info [ "reps" ] ~doc:"Number of prepare+run repetitions.")

let run_pcache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pcache" ] ~docv:"DIR"
        ~doc:
          "Look plugins up in, and publish them to, the on-disk plugin store \
           rooted at $(docv).")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run a demo query on a chosen backend.")
    Term.(
      const cmd_run $ query_arg $ backend_arg $ size $ trace_arg $ run_pcache_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Repeatedly prepare and run a demo query through one engine and \
          report its plugin-cache statistics and per-stage trace \
          roll-up.")
    Term.(const cmd_stats $ query_arg $ backend_arg $ size $ reps_arg)

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Compare backends on a demo query.")
    Term.(const cmd_bench $ query_arg $ size)

let src_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY_TEXT")

let eval_cmd =
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate a textual query, e.g. 'from x in xs where x % 2 = 0 \
          select x * x' (inputs: xs, fs, pairs).")
    Term.(const cmd_eval $ src_arg $ backend_arg $ size)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "For a demo query: show the optimizer's plan before/after and the \
          rewrite rules applied.  For query text: show the QUIL sentence \
          and generated code.")
    Term.(const cmd_explain $ src_arg $ size)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run a demo query under per-operator probes on every available \
          backend and print the optimized plan annotated with actual row \
          counts, indirect-call counts and timings.")
    Term.(const cmd_analyze $ query_arg $ size)

let lint_name_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY")

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Lint every demo query.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static checks (well-formedness, purity, \
          parallelizability, plan lints) on a demo query and print each \
          diagnostic with its rule code.  Exits 1 if any error-level \
          diagnostic fires, 2 for an unknown demo.")
    Term.(const cmd_lint $ lint_name_arg $ all_arg $ size)

let verify_all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Verify every demo query.")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Replay the optimizer on a demo query and discharge each rewrite \
          against the translation validator's law table, printing one \
          line per proof obligation (rule, verdict, law or rejection \
          reason).  Exits 1 if any obligation is rejected, 2 for an \
          unknown demo.")
    Term.(const cmd_verify $ lint_name_arg $ verify_all_arg $ size)

let cost_cmd =
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "Close the profiler-to-optimizer loop on a demo query: prepare \
          it on a profiling adaptive engine, run it to gather per-filter \
          selectivities, dump the statistics store, then prepare it again \
          and print the cost-based decisions (filter reorders, backend \
          choice) the second plan made.  Exits 2 for an unknown demo.")
    Term.(const cmd_cost $ query_arg $ size $ reps_arg)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the demo gallery through a profiling engine and dump the \
          metrics registry in OpenMetrics text format.")
    Term.(const cmd_metrics $ size)

let clients_arg =
  Arg.(
    value & opt int 8
    & info [ "clients" ] ~doc:"Number of simulated client sessions.")

let requests_arg =
  Arg.(
    value & opt int 4
    & info [ "requests" ] ~doc:"Requests submitted per client.")

let admin_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "admin-port" ]
        ~doc:
          "Start the HTTP admin listener on this loopback port (0 = an \
           ephemeral port, announced on stdout) and enable request \
           tracing.  Endpoints: /metrics, /healthz, /traces, /slow.")

let hold_arg =
  Arg.(
    value & opt float 0.
    & info [ "hold" ]
        ~doc:
          "With --admin-port: keep the process (and listener) alive this \
           many seconds after the stress, so an external scraper can hit \
           the endpoints.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Stress the serving layer: simulated tenants submit a demo query \
          concurrently through one Server over one Engine, then the \
          metrics registry (per-tenant run counters and latency \
          histograms, server admission counters) is dumped in OpenMetrics \
          text format.  With --admin-port, also serves the ops plane over \
          HTTP and records request traces.")
    Term.(
      const cmd_serve $ clients_arg $ requests_arg $ size $ admin_port_arg
      $ hold_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Request-scoped traces from a traced, tiered serving workload \
          (every request traced, background tier promotion attributed to \
          the triggering request).")
    [
      Cmd.v
        (Cmd.info "export"
           ~doc:
             "Print the trace ring as Chrome trace_event JSON (load in \
              chrome://tracing or Perfetto).")
        Term.(const cmd_trace_export $ size);
      Cmd.v
        (Cmd.info "slow"
           ~doc:"Print the slow-query ring as text, worst first.")
        Term.(const cmd_trace_slow $ size);
    ]

let pcache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ]
        ~doc:
          "Store root directory (default: \\$STENO_PCACHE_DIR, else the \
           XDG cache directory).")

let pcache_cmd =
  Cmd.group
    (Cmd.info "pcache"
       ~doc:
         "Inspect or clear the persistent compiled-plugin store (the \
          on-disk cache engines configured with a disk_cache read and \
          write).  Scoped to this toolchain's compiler/ABI fingerprint.")
    [
      Cmd.v
        (Cmd.info "stats" ~doc:"Report entry count and bytes on disk.")
        Term.(const cmd_pcache_stats $ pcache_dir_arg);
      Cmd.v
        (Cmd.info "clear"
           ~doc:"Delete every cached plugin for this toolchain.")
        Term.(const cmd_pcache_clear $ pcache_dir_arg);
    ]

let () =
  let doc = "Steno: automatic optimization of declarative queries" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "stenoc" ~doc ~version:"1.0.0")
          [
            list_cmd; show_cmd; run_cmd; bench_cmd; stats_cmd; eval_cmd;
            explain_cmd; analyze_cmd; lint_cmd; verify_cmd; cost_cmd;
            metrics_cmd;
            serve_cmd;
            trace_cmd; pcache_cmd;
          ]))
