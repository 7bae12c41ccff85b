(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 7), plus ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- fig1         -- one experiment
     dune exec bench/main.exe -- fig13 --scale 0.1
   Experiments: fig1 fig13 breakeven fig14 ablation-gba ablation-chain
                ablation-backend par par-agg serve tier adaptive bechamel
   JSON output: --json FILE / --json-profile FILE / --json-par FILE /
                --json-serve FILE (with --clients N --requests R) /
                --json-tier FILE / --json-adaptive FILE

   Absolute numbers differ from the paper (different machine, language and
   runtime); the claims under test are the *shapes*: who wins, by roughly
   what factor, and where the crossovers fall.  EXPERIMENTS.md records
   paper-vs-measured for each experiment. *)

module I = Expr.Infix

let scale = ref 1.0

let scaled n = max 1 (int_of_float (float_of_int n *. !scale))

(* Median-of-runs timing.  A full major collection before each sample
   keeps one backend's allocation debt (e.g. LINQ materializing groups)
   from being charged to the next measurement. *)
let time_ms ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        1000.0 *. (Unix.gettimeofday () -. t0))
  in
  match List.sort compare samples with
  | [] -> assert false
  | s -> List.nth s (List.length s / 2)

let row fmt = Printf.printf fmt

let header title = Printf.printf "\n=== %s ===\n" title

let native = Steno.native_available ()

let require_native name f =
  if native then f ()
  else Printf.printf "(%s skipped: native backend unavailable)\n" name

(* Shared synthetic inputs. *)
let mixture_of_gaussians n =
  (* Two-component 1-D mixture, as in the paper's Group benchmark. *)
  let rng = Random.State.make [| 2011 |] in
  let gauss mean sigma =
    let u1 = Random.State.float rng 1.0 +. 1e-12 in
    let u2 = Random.State.float rng 1.0 in
    mean +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  Array.init n (fun _ ->
      if Random.State.bool rng then gauss 0.3 0.1 else gauss 0.7 0.05)

let uniform_floats n =
  Array.init n (fun i -> float_of_int (i mod 1000) /. 997.0)

(* The four microbenchmark queries of Fig. 13. *)

let sum_query xs = Query.sum_float (Query.of_array Ty.Float xs)

let sum_hand xs () =
  let acc = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    acc := !acc +. xs.(i)
  done;
  !acc

let sumsq_query xs =
  Query.of_array Ty.Float xs
  |> Query.select (fun x -> I.(x *. x))
  |> Query.sum_float

let sumsq_hand xs () =
  let acc = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    acc := !acc +. (x *. x)
  done;
  !acc

let cart_query xs ys =
  Query.of_array Ty.Float xs
  |> Query.select_many (fun x ->
         Query.of_array Ty.Float ys |> Query.select (fun y -> I.(x *. y)))
  |> Query.sum_float

let cart_hand xs ys () =
  let acc = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    for j = 0 to Array.length ys - 1 do
      acc := !acc +. (xs.(i) *. ys.(j))
    done
  done;
  !acc

let bins = 64

let bin_expr x =
  Expr.Prim2
    ( Prim.Max_int,
      Expr.int 0,
      Expr.Prim2
        ( Prim.Min_int,
          Expr.int (bins - 1),
          Expr.Prim1 (Prim.Truncate, I.(x *. Expr.float (float_of_int bins)))
        ) )

let group_query xs =
  (* Binned histogram, written as the paper's GroupBy with a counting
     result selector: the LINQ backend interprets it directly (building
     each group's bag); Steno's specialization pass (§4.3) rewrites it to
     a GroupByAggregate sink holding one count per key. *)
  Query.of_array Ty.Float xs
  |> Query.group_by bin_expr
  |> Query.select (fun g ->
         Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g)))

let group_hand xs () =
  (* Hand-optimized equivalent: single pass over a dictionary of counts
     (the key set is not statically known to a general GroupBy). *)
  let counts = Hashtbl.create 64 in
  for i = 0 to Array.length xs - 1 do
    let b = int_of_float (xs.(i) *. float_of_int bins) in
    let b = if b < 0 then 0 else if b >= bins then bins - 1 else b in
    match Hashtbl.find_opt counts b with
    | Some cell -> incr cell
    | None -> Hashtbl.replace counts b (ref 1)
  done;
  counts

(* One Fig. 13 style row: LINQ / Steno+comp / Steno / hand. *)
type quantities = {
  linq : float;
  steno_incl : float;
  steno_excl : float;
  hand : float;
}

let print_quantities name q =
  row "%-8s %10.1f %14.1f %12.1f %10.1f   | %5.1fx speedup, %+5.1f%% vs hand\n"
    name q.linq q.steno_incl q.steno_excl q.hand (q.linq /. q.steno_excl)
    (100.0 *. ((q.steno_excl /. q.hand) -. 1.0))

let quantities_header () =
  row "%-8s %10s %14s %12s %10s\n" "query" "LINQ(ms)" "Steno+comp(ms)"
    "Steno(ms)" "hand(ms)"

let measure_scalar_quantities (type s) ?(runs = 3) (sq : s Query.sq)
    (hand : unit -> 'h) : quantities =
  Steno.clear_cache ();
  let linq = Steno.prepare_scalar ~backend:Steno.Linq sq in
  let t_linq = time_ms ~runs (fun () -> Steno.Prepared_scalar.run linq) in
  let t_incl =
    time_ms ~runs (fun () ->
        Steno.clear_cache ();
        Steno.scalar ~backend:Steno.Native sq)
  in
  let p = Steno.prepare_scalar ~backend:Steno.Native sq in
  let t_excl = time_ms ~runs (fun () -> Steno.Prepared_scalar.run p) in
  let t_hand = time_ms ~runs hand in
  { linq = t_linq; steno_incl = t_incl; steno_excl = t_excl; hand = t_hand }

let measure_query_quantities ?(runs = 3) q hand : quantities =
  Steno.clear_cache ();
  let linq = Steno.prepare ~backend:Steno.Linq q in
  let t_linq = time_ms ~runs (fun () -> Steno.Prepared.run linq) in
  let t_incl =
    time_ms ~runs (fun () ->
        Steno.clear_cache ();
        Steno.to_array ~backend:Steno.Native q)
  in
  let p = Steno.prepare ~backend:Steno.Native q in
  let t_excl = time_ms ~runs (fun () -> Steno.Prepared.run p) in
  let t_hand = time_ms ~runs hand in
  { linq = t_linq; steno_incl = t_incl; steno_excl = t_excl; hand = t_hand }

(* ------------------------------------------------------------------ *)

let fig1 () =
  header "Figure 1: sum of squares of 10^7 doubles";
  require_native "fig1" @@ fun () ->
  let n = scaled 10_000_000 in
  let xs = uniform_floats n in
  let q = sumsq_query xs in
  let quantities = measure_scalar_quantities q (sumsq_hand xs) in
  row "n = %d\n" n;
  row "LINQ .Sum()   %8.1f ms   (1.00; paper 1.00)\n" quantities.linq;
  row "for loop      %8.1f ms   (%.3f of LINQ; paper 0.135)\n" quantities.hand
    (quantities.hand /. quantities.linq);
  row "Steno .Sum()  %8.1f ms   (%.3f of LINQ; paper 0.136)\n"
    quantities.steno_excl
    (quantities.steno_excl /. quantities.linq);
  row "speedup over LINQ: %.1fx (paper: 7.4x)\n"
    (quantities.linq /. quantities.steno_excl)

let fig13 () =
  header "Figure 13: sequential microbenchmarks";
  require_native "fig13" @@ fun () ->
  let n = scaled 10_000_000 in
  row "Sum/SumSq/Group over %d doubles; Cart over %d x %d\n" n (scaled 100_000)
    1000;
  quantities_header ();
  let xs = uniform_floats n in
  print_quantities "Sum" (measure_scalar_quantities (sum_query xs) (sum_hand xs));
  print_quantities "SumSq"
    (measure_scalar_quantities (sumsq_query xs) (sumsq_hand xs));
  let cx = uniform_floats (scaled 100_000) in
  let cy = uniform_floats 1000 in
  print_quantities "Cart"
    (measure_scalar_quantities (cart_query cx cy) (cart_hand cx cy));
  let gs = mixture_of_gaussians n in
  print_quantities "Group"
    (measure_query_quantities (group_query gs) (group_hand gs));
  row
    "(paper speedups: Sum 3.3x, SumSq 7.4x, Cart ~12x, Group 14.1x; paper\n\
    \ overhead vs hand: Sum +53%%, others < 3%%.  Larger factors here come\n\
    \ from float boxing in the iterator pipeline; see EXPERIMENTS.md.)\n"

let breakeven () =
  header "Section 7.1: one-off optimization cost and break-even input size";
  require_native "breakeven" @@ fun () ->
  let costs =
    List.map
      (fun k ->
        Steno.clear_cache ();
        let q =
          Query.sum_float
            (Query.of_array Ty.Float [| 1.0 |]
            |> Query.select (fun x -> I.(x *. Expr.float (float_of_int k))))
        in
        let p = Steno.prepare_scalar ~backend:Steno.Native q in
        (Steno.Prepared_scalar.compile_info p).Steno.compile_ms)
      [ 1; 2; 3; 4; 5 ]
  in
  let compile_ms = List.fold_left ( +. ) 0.0 costs /. 5.0 in
  row "mean compile+load cost: %.1f ms (paper: 69 ms)\n" compile_ms;
  let n = scaled 10_000_000 in
  let xs = uniform_floats n in
  let q = sum_query xs in
  let t_linq = time_ms (fun () -> Steno.scalar ~backend:Steno.Linq q) in
  let p = Steno.prepare_scalar ~backend:Steno.Native q in
  let t_steno = time_ms (fun () -> Steno.Prepared_scalar.run p) in
  let per_elem_gain = (t_linq -. t_steno) /. float_of_int n in
  let breakeven_n = compile_ms /. per_elem_gain in
  row "Sum of %d doubles: LINQ %.1f ms, Steno %.1f ms\n" n t_linq t_steno;
  row "break-even input size for Sum: %.1e doubles (paper: ~1.2e7)\n"
    breakeven_n

let fig14 () =
  header "Figure 14: distributed k-means, dimension sweep (N x D constant)";
  require_native "fig14" @@ fun () ->
  let budget = scaled 4_000_000 in
  let k = 10 in
  let parts = 8 in
  let cluster = Dryad.create () in
  row "total input: %d doubles (paper: 1e9), k = %d, %d partitions\n" budget k
    parts;
  row
    "(the distance computation is a user-defined function, as in the\n\
    \ paper's DryadLINQ job: the work per element grows with D while the\n\
    \ per-element iterator overhead is fixed)\n";
  row "%6s %10s %16s %14s %9s\n" "dim" "points" "unoptimized(ms)"
    "Steno-opt(ms)" "speedup";
  List.iter
    (fun d ->
      let n = max (k * 4) (budget / d) in
      let rng = Random.State.make [| d |] in
      let points =
        Array.init n (fun _ ->
            Array.init d (fun _ -> Random.State.float rng 100.0))
      in
      let ds = Dataset.of_array ~parts points in
      let centroids = Array.init k (fun j -> Array.copy points.(j * (n / k))) in
      let iteration backend () =
        Kmeans.iterate cluster ~backend ~distance:Kmeans.Udf ~centroids ds
      in
      let t_linq = time_ms ~runs:3 (iteration Steno.Linq) in
      let t_steno = time_ms ~runs:3 (iteration Steno.Native) in
      row "%6d %10d %16.1f %14.1f %8.2fx\n" d n t_linq t_steno
        (t_linq /. t_steno))
    [ 4; 10; 30; 100; 300; 1000 ];
  row
    "(paper: 1.9x at D=10 falling toward 1x at D=1000 as the distance\n\
    \ computation dominates)\n"

let ablation_gba () =
  header "Ablation (section 4.3): GroupByAggregate specialization on vs off";
  require_native "ablation-gba" @@ fun () ->
  let n = scaled 4_000_000 in
  let xs = mixture_of_gaussians n in
  let q = group_query xs in
  let with_flag flag f =
    Specialize.enabled := flag;
    Fun.protect ~finally:(fun () -> Specialize.enabled := true) f
  in
  row "QUIL with pass on:  %s\n" (with_flag true (fun () -> Steno.quil q));
  row "QUIL with pass off: %s\n" (with_flag false (fun () -> Steno.quil q));
  let measure flag =
    with_flag flag (fun () ->
        Steno.clear_cache ();
        let p = Steno.prepare ~backend:Steno.Native q in
        time_ms (fun () -> Steno.Prepared.run p))
  in
  let t_on = measure true in
  let t_off = measure false in
  row "specialized (GroupByAggregate): %8.1f ms\n" t_on;
  row "unspecialized (GroupBy + count): %8.1f ms\n" t_off;
  row "specialization speedup: %.2fx (memory: O(keys) vs O(elements))\n"
    (t_off /. t_on)

let ablation_chain () =
  header "Ablation (section 2): per-element overhead vs operator chain length";
  require_native "ablation-chain" @@ fun () ->
  let n = scaled 2_000_000 in
  let xs = Array.init n (fun i -> i) in
  row "%6s %12s %12s %12s %18s\n" "ops" "LINQ(ms)" "Fused(ms)" "Native(ms)"
    "LINQ ns/elem/op";
  List.iter
    (fun ops ->
      let q =
        let rec add k q =
          if k = 0 then q
          else add (k - 1) (Query.select (fun x -> I.(x + Expr.int 0)) q)
        in
        Query.sum_int (add ops (Query.of_array Ty.Int xs))
      in
      let t_linq = time_ms (fun () -> Steno.scalar ~backend:Steno.Linq q) in
      let t_fused = time_ms (fun () -> Steno.scalar ~backend:Steno.Fused q) in
      let p = Steno.prepare_scalar ~backend:Steno.Native q in
      let t_native = time_ms (fun () -> Steno.Prepared_scalar.run p) in
      row "%6d %12.1f %12.1f %12.1f %18.2f\n" ops t_linq t_fused t_native
        (1e6 *. t_linq /. float_of_int (n * max 1 ops)))
    [ 0; 1; 2; 4; 8; 16 ];
  row
    "(iterator cost grows linearly with chain length; the fused loop stays\n\
    \ flat - the multiplied overhead of section 2)\n"

let ablation_backend () =
  header "Ablation: backend comparison on the Fig. 13 queries";
  require_native "ablation-backend" @@ fun () ->
  let n = scaled 4_000_000 in
  let xs = uniform_floats n in
  let cases =
    [
      ("Sum", fun b -> ignore (Steno.scalar ~backend:b (sum_query xs)));
      ("SumSq", fun b -> ignore (Steno.scalar ~backend:b (sumsq_query xs)));
      ( "Cart",
        let cx = uniform_floats (scaled 50_000) in
        let cy = uniform_floats 1000 in
        fun b -> ignore (Steno.scalar ~backend:b (cart_query cx cy)) );
      ( "Group",
        let gs = mixture_of_gaussians n in
        fun b -> ignore (Steno.to_array ~backend:b (group_query gs)) );
    ]
  in
  row "%-8s %12s %12s %12s\n" "query" "LINQ(ms)" "Fused(ms)" "Native(ms)";
  List.iter
    (fun (name, run) ->
      run Steno.Native;
      let t b = time_ms (fun () -> run b) in
      row "%-8s %12.1f %12.1f %12.1f\n" name (t Steno.Linq) (t Steno.Fused)
        (t Steno.Native))
    cases;
  row
    "(Fused removes iterator state machines but keeps closure calls;\n\
    \ Native removes those too - the gap is the cost of not generating code)\n"

let ablation_join () =
  header "Ablation: equi-join strategy (hash join vs nested loop, section 5)";
  require_native "ablation-join" @@ fun () ->
  let pairs xs = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) xs in
  row "%10s %10s %16s %14s\n" "outer" "inner" "nested-loop(ms)" "hash-join(ms)";
  List.iter
    (fun (no, ni) ->
      let left = pairs (Array.init (scaled no) (fun i -> (i * 7) mod 997, i)) in
      let right = pairs (Array.init (scaled ni) (fun i -> (i * 13) mod 997, i)) in
      let joined =
        left
        |> Query.join ~inner:right
             ~outer_key:(fun l -> Expr.Fst l)
             ~inner_key:(fun r -> Expr.Fst r)
             ~result:(fun l r -> I.(Expr.Snd l + Expr.Snd r))
        |> Query.sum_int
      in
      let measure flag =
        Canon.hash_join_enabled := flag;
        Fun.protect ~finally:(fun () -> Canon.hash_join_enabled := true)
        @@ fun () ->
        Steno.clear_cache ();
        let p = Steno.prepare_scalar ~backend:Steno.Native joined in
        time_ms (fun () -> Steno.Prepared_scalar.run p)
      in
      let t_nested = measure false in
      let t_hash = measure true in
      row "%10d %10d %16.1f %14.1f\n" (scaled no) (scaled ni) t_nested t_hash)
    [ 1_000, 1_000; 4_000, 4_000; 16_000, 4_000 ];
  row "(the nested loop is quadratic; the hash join builds once and probes\n\
    \ per outer element - the trade-off section 5 points at)\n"

let ablation_sorted_group () =
  header "Ablation (section 4.3): sorted one-pass vs hashed GroupByAggregate";
  require_native "ablation-sorted" @@ fun () ->
  let n = scaled 4_000_000 in
  let xs = Array.init n (fun i -> (i * 131) mod 1024) in
  let q =
    Query.of_array Ty.Int xs
    |> Query.order_by (fun x -> I.(x mod Expr.int 1024))
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 1024))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x))
  in
  let measure flag =
    Canon.sorted_group_enabled := flag;
    Fun.protect ~finally:(fun () -> Canon.sorted_group_enabled := true)
    @@ fun () ->
    Steno.clear_cache ();
    let p = Steno.prepare ~backend:Steno.Native q in
    time_ms (fun () -> Steno.Prepared.run p)
  in
  let t_sorted = measure true in
  let t_hash = measure false in
  row "one-pass sorted sink: %8.1f ms\n" t_sorted;
  row "hash-table sink:      %8.1f ms\n" t_hash;
  row "(both include the sort; the sorted sink keeps O(1) aggregation\n\
    \ state - the paper's note on aggregating key sets larger than\n\
    \ memory)\n"

let ablation_early_exit () =
  header "Ablation: early-exit loop generation (Take / First / Any)";
  require_native "ablation-early-exit" @@ fun () ->
  let n = scaled 10_000_000 in
  let xs = Array.init n (fun i -> i) in
  let src = Query.of_array Ty.Int xs in
  let cases =
    [
      ( "take 100 + sum",
        fun b ->
          ignore (Steno.scalar ~backend:b (Query.sum_int (Query.take 100 src)))
      );
      ("first", fun b -> ignore (Steno.scalar ~backend:b (Query.first src)));
      ( "exists (early hit)",
        fun b ->
          ignore
            (Steno.scalar ~backend:b
               (Query.exists (fun x -> I.(x = Expr.int 5)) src)) );
      ( "exists (no hit)",
        fun b ->
          ignore
            (Steno.scalar ~backend:b
               (Query.exists (fun x -> I.(x = Expr.int (-1))) src)) );
    ]
  in
  row "%-20s %12s %12s\n" "query" "LINQ(ms)" "Native(ms)";
  List.iter
    (fun (name, run) ->
      run Steno.Native;
      let t b = time_ms (fun () -> run b) in
      row "%-20s %12.3f %12.3f\n" name (t Steno.Linq) (t Steno.Native))
    cases;
  row "(early-exit queries cost O(answer position), not O(n): the generated\n\
    \ loop breaks with a local exception once the result is determined)\n"

let par_scaling () =
  header "Section 6: multiprocessor scaling of a split aggregate (Agg_i / Agg*)";
  require_native "par" @@ fun () ->
  let n = scaled 8_000_000 in
  let xs = uniform_floats n in
  (* A compute-bound kernel, so the curve shows parallel scaling rather
     than memory bandwidth. *)
  let kernel x = I.(Expr.Prim1 (Prim.Sqrt, x) *. Expr.Prim1 (Prim.Sin, x)) in
  let build part =
    Query.of_array Ty.Float part
    |> Query.select (fun x -> kernel x)
    |> Query.sum_float
  in
  let p = Steno.prepare_scalar ~backend:Steno.Native (build xs) in
  let t_seq = time_ms (fun () -> Steno.Prepared_scalar.run p) in
  row "sequential Steno: %8.1f ms over %d doubles\n" t_seq n;
  row "available cores: %d%s\n"
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () <= 1 then
       " (single-core host: expect ~1x with per-domain overhead, not speedup)"
     else "");
  row "%8s %12s %9s\n" "workers" "parallel(ms)" "speedup";
  List.iter
    (fun workers ->
      (* Partition once (DryadLINQ data lives pre-partitioned); measure
         the per-iteration parallel execution. *)
      let parts = Par.partition ~parts:workers xs in
      let t =
        time_ms (fun () ->
            Par.scalar_per_partition ~backend:Steno.Native ~workers build
              ~combine:( +. ) parts)
      in
      row "%8d %12.1f %8.2fx\n" workers t (t_seq /. t))
    [ 1; 2; 4; 8 ];
  row "(homomorphic prefix per partition, partial sums combined by Agg*)\n"

(* PR 5: partitioned partial aggregation [Agg_i / Agg-star] vs
   sequential on a filtered Average — the (sum, count) pair partial that
   Par.decompose builds, run through Par.scalar_auto. *)
let par_agg_measurements () =
  let n = scaled 10_000_000 in
  let xs = uniform_floats n in
  let sq =
    Query.of_array Ty.Float xs
    |> Query.where (fun x -> I.(x < Expr.float 0.9))
    |> Query.average
  in
  let cores = Domain.recommended_domain_count () in
  let workers = max 4 cores in
  let backend = if native then Steno.Native else Steno.Fused in
  let p = Steno.prepare_scalar ~backend sq in
  let seq_ms = time_ms (fun () -> Steno.Prepared_scalar.run p) in
  (* Warm once so the shared per-partition plan is compiled and cached
     before timing (partitions differ only in the captured source, so
     all of them hit the same plugin). *)
  ignore (Par.scalar_auto ~backend ~workers ~parts:workers sq);
  let par_ms =
    time_ms (fun () -> Par.scalar_auto ~backend ~workers ~parts:workers sq)
  in
  let speedup = seq_ms /. par_ms in
  let meets_target = speedup >= 1.5 in
  let explanation =
    if meets_target then ""
    else if cores <= 1 then
      Printf.sprintf
        "host exposes %d core: the %d worker domains time-slice one CPU, so \
         partitioned execution can at best match sequential time plus \
         domain-scheduling overhead; the 1.5x target needs >= 2 physical cores"
        cores workers
    else
      Printf.sprintf
        "%d cores available but speedup %.2fx < 1.5x: the filtered Average is \
         memory-bandwidth-bound at this scale"
        cores speedup
  in
  (n, workers, cores, seq_ms, par_ms, speedup, meets_target, explanation)

let par_agg () =
  header "PR 5: partitioned vs sequential filtered Average (Agg_i / Agg*)";
  let n, workers, cores, seq_ms, par_ms, speedup, meets_target, explanation =
    par_agg_measurements ()
  in
  row "filtered Average over %d doubles, %d workers on %d core(s)\n" n workers
    cores;
  row "sequential:  %10.1f ms\n" seq_ms;
  row "partitioned: %10.1f ms   (%.2fx)\n" par_ms speedup;
  row "meets 1.5x target: %b%s\n" meets_target
    (if explanation = "" then "" else "\n  " ^ explanation)

let json_par_report file =
  header (Printf.sprintf "partial-aggregation JSON report -> %s" file);
  let n, workers, cores, seq_ms, par_ms, speedup, meets_target, explanation =
    par_agg_measurements ()
  in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  Printf.fprintf oc
    {|{
  "benchmark": "par-agg",
  "query": "filtered-average",
  "rows": %d,
  "scale": %.3f,
  "native_available": %b,
  "workers": %d,
  "cores": %d,
  "seq_ms": %.3f,
  "par_ms": %.3f,
  "speedup": %.3f,
  "meets_target": %b,
  "explanation": %S
}
|}
    n !scale native workers cores seq_ms par_ms speedup meets_target
    explanation;
  close_out oc;
  row "rows = %d, %d workers / %d core(s): seq %.1f ms, par %.1f ms (%.2fx)\n"
    n workers cores seq_ms par_ms speedup

(* ------------------------------------------------------------------ *)
(* The algebraic optimizer on a redundant plan: 3 stacked Wheres, the
   motivating case of the rewrite engine.  Measured on Fused (pure
   run-time effect, no compiler in the loop) plus the Native codegen
   surface via Engine.explain. *)

let stacked_where_query n =
  let xs = Array.init n (fun i -> i mod 1000) in
  Query.of_array Ty.Int xs
  |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
  |> Query.where (fun x -> I.(x > Expr.int 10))
  |> Query.where (fun x -> I.(x < Expr.int 900))

type optimizer_measurements = {
  opt_n : int;
  fused_run_on : float;
  fused_run_off : float;
  fused_prep_run_on : float;
  fused_prep_run_off : float;
  native_ops_on : int;
  native_ops_off : int;
  opt_rules : string list;
}

let measure_optimizer () =
  (* Floored below so the measured difference (a few closure calls per
     element) stays above timer noise even at CI smoke scales. *)
  let n = max 500_000 (scaled 2_000_000) in
  let q = stacked_where_query n in
  (* Sum terminal: the run cost is per-element predicate evaluation, not
     result materialization, so the fused-vs-stacked difference is what
     gets measured. *)
  let sq = Query.sum_int q in
  let engine flag =
    Steno.Engine.(
      create { default_config with backend = Steno.Fused; optimize = flag })
  in
  let e_on = engine true and e_off = engine false in
  let p_on = Steno.Engine.prepare_scalar e_on sq in
  let p_off = Steno.Engine.prepare_scalar e_off sq in
  assert (Steno.Prepared_scalar.run p_on = Steno.Prepared_scalar.run p_off);
  let runs = 9 in
  let fused_run_on =
    time_ms ~runs (fun () -> Steno.Prepared_scalar.run p_on)
  in
  let fused_run_off =
    time_ms ~runs (fun () -> Steno.Prepared_scalar.run p_off)
  in
  let fused_prep_run_on =
    time_ms ~runs (fun () -> Steno.Engine.scalar e_on sq)
  in
  let fused_prep_run_off =
    time_ms ~runs (fun () -> Steno.Engine.scalar e_off sq)
  in
  (* Operator counts of the QUIL plan the Native backend would generate
     code for, with and without rewriting. *)
  let ex_on = Steno.Engine.explain_scalar e_on sq in
  let ex_off = Steno.Engine.explain_scalar e_off sq in
  {
    opt_n = n;
    fused_run_on;
    fused_run_off;
    fused_prep_run_on;
    fused_prep_run_off;
    native_ops_on = ex_on.Steno.Engine.operators_after;
    native_ops_off = ex_off.Steno.Engine.operators_after;
    opt_rules = Steno.Prepared_scalar.rewrite_log p_on;
  }

let optimizer () =
  header "Optimizer: 3 stacked Wheres, rewriting on vs off";
  let m = measure_optimizer () in
  row "n = %d; rules applied: %s\n" m.opt_n (String.concat ", " m.opt_rules);
  row "%-22s %12s %12s\n" "" "opt on" "opt off";
  row "%-22s %10.1f ms %10.1f ms\n" "Fused run" m.fused_run_on m.fused_run_off;
  row "%-22s %10.1f ms %10.1f ms\n" "Fused prepare+run" m.fused_prep_run_on
    m.fused_prep_run_off;
  row "%-22s %12d %12d\n" "Native QUIL operators" m.native_ops_on
    m.native_ops_off;
  row "(one fused predicate evaluates all three tests per element; the\n\
    \ unrewritten plan pays a closure call per Where per element)\n"

(* A Bechamel microbenchmark suite over the Fig. 13 kernels, for
   statistically grounded per-run estimates. *)
let bechamel () =
  header "Bechamel: Fig. 13 kernels (monotonic clock, OLS estimates)";
  require_native "bechamel" @@ fun () ->
  let open Bechamel in
  let open Toolkit in
  let n = scaled 1_000_000 in
  let xs = uniform_floats n in
  let p_sum = Steno.prepare_scalar ~backend:Steno.Native (sum_query xs) in
  let p_sumsq = Steno.prepare_scalar ~backend:Steno.Native (sumsq_query xs) in
  let l_sum = Steno.prepare_scalar ~backend:Steno.Linq (sum_query xs) in
  let l_sumsq = Steno.prepare_scalar ~backend:Steno.Linq (sumsq_query xs) in
  let tests =
    Test.make_grouped ~name:"fig13" ~fmt:"%s %s"
      [
        Test.make ~name:"sum-hand" (Staged.stage (sum_hand xs));
        Test.make ~name:"sum-steno"
          (Staged.stage (fun () -> Steno.Prepared_scalar.run p_sum));
        Test.make ~name:"sum-linq"
          (Staged.stage (fun () -> Steno.Prepared_scalar.run l_sum));
        Test.make ~name:"sumsq-hand" (Staged.stage (sumsq_hand xs));
        Test.make ~name:"sumsq-steno"
          (Staged.stage (fun () -> Steno.Prepared_scalar.run p_sumsq));
        Test.make ~name:"sumsq-linq"
          (Staged.stage (fun () -> Steno.Prepared_scalar.run l_sumsq));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun instance ->
      let results = Analyze.all ols instance raw in
      let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) results []) in
      List.iter
        (fun name ->
          let result = Hashtbl.find results name in
          match Analyze.OLS.estimates result with
          | Some [ est ] -> row "%-24s %12.3f ms/run\n" name (est /. 1e6)
          | Some _ | None -> row "%-24s (no estimate)\n" name)
        names)
    instances

(* Profiled-vs-unprofiled overhead (PR 3): the same query prepared
   through a [profile = false] and a [profile = true] engine, per
   backend, with the hand-written loop as the reference point.  The
   [profile = false] column IS the ordinary execution path — staging
   applies the identity wrapper and generated code carries no probe
   increments — so comparing it against [hand] bounds the cost of
   having the profiling layer compiled in at all. *)
let profile_overhead_rows () =
  let n = scaled 4_000_000 in
  let xs = uniform_floats n in
  let sq = sumsq_query xs in
  let measure backend profile =
    let eng =
      Steno.Engine.(
        create
          {
            default_config with
            backend;
            profile;
            metrics = Metrics.create ();
          })
    in
    let p = Steno.Engine.prepare_scalar eng sq in
    time_ms ~runs:5 (fun () -> Steno.Prepared_scalar.run p)
  in
  let backends =
    [ "linq", Steno.Linq; "fused", Steno.Fused ]
    @ (if native then [ "native", Steno.Native ] else [])
  in
  ( n,
    time_ms ~runs:5 (sumsq_hand xs),
    List.map
      (fun (name, b) ->
        let off = measure b false in
        let on = measure b true in
        name, off, on)
      backends )

let overhead_pct ~off ~on = 100.0 *. ((on /. off) -. 1.0)

let profiling () =
  header "Profiling overhead: profile:false vs profile:true, per backend";
  let n, hand, rows = profile_overhead_rows () in
  row "sumsq over %d doubles (hand loop: %.2f ms), median of 5 runs\n" n hand;
  row "%-8s %12s %12s %10s\n" "backend" "off(ms)" "on(ms)" "overhead";
  List.iter
    (fun (name, off, on) ->
      row "%-8s %12.2f %12.2f %+9.1f%%\n" name off on
        (overhead_pct ~off ~on))
    rows

let json_profile_report file =
  header (Printf.sprintf "profiling JSON report -> %s" file);
  let n, hand, rows = profile_overhead_rows () in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  Printf.fprintf oc
    {|{
  "benchmark": "profile-overhead",
  "query": "sumsq",
  "n": %d,
  "scale": %.3f,
  "native_available": %b,
  "hand_ms": %.3f,
  "backends": {
%s
  }
}
|}
    n !scale native hand
    (String.concat ",\n"
       (List.map
          (fun (name, off, on) ->
            Printf.sprintf
              "    %S: {\"unprofiled_ms\": %.3f, \"profiled_ms\": %.3f, \
               \"overhead_pct\": %.1f}"
              name off on (overhead_pct ~off ~on))
          rows));
  close_out oc;
  List.iter
    (fun (name, off, on) ->
      row "%-8s %.2f ms -> %.2f ms profiled (%+.1f%%)\n" name off on
        (overhead_pct ~off ~on))
    rows

(* ------------------------------------------------------------------ *)
(* PR 6: the serving layer under concurrent load.  Simulated clients on
   the Domain_pool substrate hammer one [Server] over one [Engine] with
   a mixed workload: mostly hot shapes (a handful of query structures,
   compiled once and plugin-cache hits ever after) plus a trickle of
   cold shapes — a unique literal baked into the source gives each cold
   request a cache key nobody else has, i.e. a real compile.  Request
   latency is observed into a log-scale histogram and the percentiles
   are read back from its snapshot, exactly as a scrape would. *)

let serve_clients = ref 64

let serve_requests = ref 10

(* Sampling rate for the traced serve measurement ([--trace-sample],
   default: trace every request). *)
let serve_trace_sample = ref 1.0

(* Smallest bucket bound covering the q-th fraction of observations: the
   percentile as a monitoring system computes it from a histogram. *)
let serve_percentile snap q =
  if snap.Metrics.hs_count = 0 then Float.nan
  else begin
    let target =
      int_of_float (ceil (q *. float_of_int snap.Metrics.hs_count))
    in
    let rec go = function
      | [] -> Float.nan
      | (bound, cum) :: rest -> if cum >= target then bound else go rest
    in
    go snap.Metrics.hs_buckets
  end

type serve_measurements = {
  sv_clients : int;
  sv_requests : int;  (* per client *)
  sv_workers : int;
  sv_inflight : int;
  sv_wall_ms : float;
  sv_throughput : float;  (* completed requests per second *)
  sv_p50 : float;
  sv_p99 : float;
  sv_queue_p99 : float;
  sv_stats : Server.stats;
  sv_compiles : int;
  sv_dedup : int;
  sv_cache : Steno.Engine.cache_stats;
  sv_traces : int;  (* completed traces retained (0 when untraced) *)
  sv_trace_dropped : int;  (* ring overflow head-drops *)
}

let measure_serve ?(tracing = 0.0) () =
  let clients = max 1 !serve_clients in
  let requests = max 1 !serve_requests in
  let reg = Metrics.create () in
  let backend = if native then Steno.Native else Steno.Fused in
  let cfg =
    { Steno.Engine.default_config with
      backend;
      metrics = reg;
      cache_capacity = 128
    }
  in
  let cfg =
    if tracing > 0.0 then
      Steno.Config.with_tracing ~sample:tracing ~slow_ms:50.0 cfg
    else cfg
  in
  let eng = Steno.Engine.create cfg in
  let workers = max 2 (Domain_pool.recommended_workers ()) in
  (* Execution slots match the driver count: with fewer slots than
     drivers (this used to be workers/2, and BENCH_PR6 effectively ran
     one slot against two drivers) every measurement was dominated by
     queue wait rather than query cost.  Admission control still
     engages under a burst: the drivers submit in lockstep. *)
  let inflight = workers in
  let srv =
    Server.create ~max_inflight:inflight ~max_queue:(clients * requests) eng
  in
  let latency =
    Metrics.histogram reg "steno_serve_request_ms"
      ~help:"End-to-end request latency observed by the bench driver"
  in
  let xs = Array.init 512 (fun i -> (i * 37) mod 1009) in
  let hot k =
    Query.sum_int
      (Query.of_array Ty.Int xs |> Query.select (fun x -> I.(x + Expr.int k)))
  in
  let hot_shapes = 4 in
  let cold id =
    let lit = 1_000_000 + id in
    Query.sum_int
      (Query.of_array Ty.Int xs
      |> Query.select (fun x -> I.(x + Expr.int lit)))
  in
  let t0 = Unix.gettimeofday () in
  let per_client =
    Domain_pool.run ~workers ~tasks:clients (fun c ->
        let completed = ref 0 in
        for r = 0 to requests - 1 do
          let id = (c * requests) + r in
          (* One cold request in 16; everything else cycles the hot
             shapes. *)
          let q =
            if id mod 16 = 0 then cold id else hot (id mod hot_shapes)
          in
          let t = Unix.gettimeofday () in
          (match
             Server.submit srv
               ~client_id:(Printf.sprintf "client-%02d" (c mod 32))
               (fun sess -> Steno.Session.scalar sess q)
           with
          | Server.Done _ -> incr completed
          | Server.Rejected _ -> ()
          | Server.Failed e -> raise e);
          Metrics.observe latency (1000.0 *. (Unix.gettimeofday () -. t))
        done;
        !completed)
  in
  let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let completed = Array.fold_left ( + ) 0 per_client in
  let st = Server.stats srv in
  let lat_snap = Metrics.histogram_snapshot latency in
  let queue_snap =
    Metrics.histogram_snapshot
      (Metrics.histogram reg "steno_server_queue_ms")
  in
  {
    sv_clients = clients;
    sv_requests = requests;
    sv_workers = workers;
    sv_inflight = inflight;
    sv_wall_ms = wall_ms;
    sv_throughput = float_of_int completed /. (wall_ms /. 1000.0);
    sv_p50 = serve_percentile lat_snap 0.50;
    sv_p99 = serve_percentile lat_snap 0.99;
    sv_queue_p99 = serve_percentile queue_snap 0.99;
    sv_stats = st;
    sv_compiles =
      Metrics.counter_value
        (Metrics.counter reg "steno_compile" ~labels:[ "result", "ok" ]);
    sv_dedup =
      Metrics.counter_value (Metrics.counter reg "steno_prepare_dedup");
    sv_cache = Steno.Engine.cache_stats eng;
    sv_traces = List.length (Trace.traces (Steno.Engine.tracer eng));
    sv_trace_dropped = Trace.dropped (Steno.Engine.tracer eng);
  }

let serve () =
  header "PR 6: concurrent query service (Server over one shared Engine)";
  let m = measure_serve () in
  row "%d clients x %d requests = %d total; %d pool workers, %d slots\n"
    m.sv_clients m.sv_requests (m.sv_clients * m.sv_requests) m.sv_workers
    m.sv_inflight;
  row "wall time: %.1f ms, throughput: %.0f req/s\n" m.sv_wall_ms
    m.sv_throughput;
  row "latency   p50 %-10.3fms p99 %.3f ms (log-scale histogram buckets)\n"
    m.sv_p50 m.sv_p99;
  row "queue     p99 %.3f ms\n" m.sv_queue_p99;
  row "outcomes: %d completed, %d rejected, %d failed\n"
    m.sv_stats.Server.completed m.sv_stats.Server.rejected
    m.sv_stats.Server.failed;
  row "compiles: %d (flight joins: %d); cache hits %d, misses %d, \
       evictions %d\n"
    m.sv_compiles m.sv_dedup m.sv_cache.Steno.Engine.hits
    m.sv_cache.Steno.Engine.misses m.sv_cache.Steno.Engine.evictions;
  row
    "(hot shapes amortize one compile over every client; single-flight \
     keeps\n\
    \ concurrent cold prepares of one shape down to one compiler run)\n"

let json_serve_report file =
  header (Printf.sprintf "serving-layer JSON report -> %s" file);
  let m = measure_serve () in
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  Printf.fprintf oc
    {|{
  "benchmark": "serve",
  "clients": %d,
  "requests_per_client": %d,
  "total_requests": %d,
  "workers": %d,
  "max_inflight": %d,
  "scale": %.3f,
  "native_available": %b,
  "wall_ms": %s,
  "throughput_rps": %s,
  "p50_ms": %s,
  "p99_ms": %s,
  "queue_p99_ms": %s,
  "accepted": %d,
  "completed": %d,
  "rejected": %d,
  "failed": %d,
  "compiles": %d,
  "dedup_joins": %d,
  "cache": {"hits": %d, "misses": %d, "evictions": %d, "entries": %d}
}
|}
    m.sv_clients m.sv_requests
    (m.sv_clients * m.sv_requests)
    m.sv_workers m.sv_inflight !scale native (fnum m.sv_wall_ms)
    (fnum m.sv_throughput) (fnum m.sv_p50) (fnum m.sv_p99)
    (fnum m.sv_queue_p99) m.sv_stats.Server.accepted
    m.sv_stats.Server.completed m.sv_stats.Server.rejected
    m.sv_stats.Server.failed m.sv_compiles m.sv_dedup
    m.sv_cache.Steno.Engine.hits m.sv_cache.Steno.Engine.misses
    m.sv_cache.Steno.Engine.evictions m.sv_cache.Steno.Engine.entries;
  close_out oc;
  row "%d clients x %d: %.0f req/s, p50 %.3f ms, p99 %.3f ms, %d compiles\n"
    m.sv_clients m.sv_requests m.sv_throughput m.sv_p50 m.sv_p99 m.sv_compiles

(* Machine-readable results for CI trend tracking: the Fig. 1 sumsq
   headline across backends plus the section 7.1 query-cache numbers
   (cold prepare vs cache-hit prepare). *)
let json_report file =
  header (Printf.sprintf "JSON report -> %s" file);
  let n = scaled 10_000_000 in
  let xs = uniform_floats n in
  let sq = sumsq_query xs in
  let t_hand = time_ms (sumsq_hand xs) in
  let linq = Steno.prepare_scalar ~backend:Steno.Linq sq in
  let t_linq = time_ms (fun () -> Steno.Prepared_scalar.run linq) in
  let fused = Steno.prepare_scalar ~backend:Steno.Fused sq in
  let t_fused = time_ms (fun () -> Steno.Prepared_scalar.run fused) in
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let t_native, prepare_cold_ms, prepare_hit_ms =
    if native then begin
      Steno.clear_cache ();
      let p1 = Steno.prepare_scalar ~backend:Steno.Native sq in
      let cold = (Steno.Prepared_scalar.compile_info p1).Steno.prepare_ms in
      let p2 = Steno.prepare_scalar ~backend:Steno.Native sq in
      let hit = (Steno.Prepared_scalar.compile_info p2).Steno.prepare_ms in
      assert (Steno.Prepared_scalar.compile_info p2).Steno.cache_hit;
      time_ms (fun () -> Steno.Prepared_scalar.run p2), cold, hit
    end
    else Float.nan, Float.nan, Float.nan
  in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  let m = measure_optimizer () in
  Printf.fprintf oc
    {|{
  "benchmark": "sumsq",
  "n": %d,
  "scale": %.3f,
  "native_available": %b,
  "linq_ms": %s,
  "fused_ms": %s,
  "native_ms": %s,
  "hand_ms": %s,
  "prepare_cold_ms": %s,
  "prepare_cache_hit_ms": %s,
  "optimizer": {
    "query": "stacked-where-3",
    "n": %d,
    "fused_run_ms_opt": %s,
    "fused_run_ms_noopt": %s,
    "fused_prepare_run_ms_opt": %s,
    "fused_prepare_run_ms_noopt": %s,
    "native_operators_opt": %d,
    "native_operators_noopt": %d,
    "rules": [%s]
  }
}
|}
    n !scale native (fnum t_linq) (fnum t_fused) (fnum t_native) (fnum t_hand)
    (fnum prepare_cold_ms) (fnum prepare_hit_ms) m.opt_n
    (fnum m.fused_run_on) (fnum m.fused_run_off) (fnum m.fused_prep_run_on)
    (fnum m.fused_prep_run_off) m.native_ops_on m.native_ops_off
    (String.concat ", "
       (List.map (Printf.sprintf "%S") m.opt_rules));
  close_out oc;
  row "n = %d: LINQ %.1f ms, Fused %.1f ms, Native %.1f ms, hand %.1f ms\n" n
    t_linq t_fused t_native t_hand;
  row "prepare: %.1f ms cold, %.3f ms on a cache hit\n" prepare_cold_ms
    prepare_hit_ms;
  row
    "optimizer (stacked wheres, n = %d): fused run %.1f -> %.1f ms, \
     operators %d -> %d\n"
    m.opt_n m.fused_run_off m.fused_run_on m.native_ops_off m.native_ops_on

(* {1 PR 7: tiered execution and the persistent plugin cache}

   Three cold-prepare figures for one query shape — full in-process
   compile, compile+publish into a fresh on-disk store, and a cold
   process hitting the warm store — plus a tiering warm-up curve: the
   run-by-run latency of a tiered preparation from its first Fused run
   through the background promotion to Native. *)

type tier_measurements = {
  tm_threshold : int;
  tm_compile_cold_ms : float;  (* fresh engine, no disk cache *)
  tm_pcache_cold_ms : float;  (* fresh store: compile + publish *)
  tm_pcache_warm_ms : float;  (* new engine on the warm store *)
  tm_warm_is_hit : bool;  (* the warm prepare compiled nothing *)
  tm_warm_compiles : int;  (* compiler runs seen by the warm engine *)
  tm_pcache_hits : int;
  tm_promotion_ms : float;  (* threshold crossing -> Native observed *)
  tm_promoted : bool;
  tm_curve : (int * string * float) list;  (* run #, live tier, ms *)
  tm_diverged : bool;  (* any run result != Reference result *)
}

let measure_tier () =
  let xs = Array.init 4096 (fun i -> (i * 31) mod 977) in
  let shape k =
    Query.sum_int
      (Query.of_array Ty.Int xs |> Query.select (fun x -> I.(x + Expr.int k)))
  in
  (* Literals no other experiment uses, so the generated source (and
     hence every cache key) is private to this measurement. *)
  let sq_cache = shape 7_424_242 in
  let sq_tier = shape 7_424_243 in
  let expected =
    Steno.Prepared_scalar.run
      (Steno.prepare_scalar ~backend:Steno.Linq sq_tier)
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "steno-bench-pcache-%d" (Unix.getpid ()))
  in
  let prepare_ms cfg sq =
    let eng = Steno.Engine.create cfg in
    let p = Steno.Engine.prepare_scalar eng sq in
    let i = Steno.Prepared_scalar.compile_info p in
    i.Steno.prepare_ms, i.Steno.cache_hit, eng
  in
  let compile_cold, pcache_cold, pcache_warm, warm_hit, warm_compiles,
      pcache_hits =
    if not native then Float.nan, Float.nan, Float.nan, false, 0, 0
    else begin
      let base reg =
        Steno.Config.(
          default |> with_backend Steno.Native
          |> with_metrics reg)
      in
      let cold_ms, _, _ = prepare_ms (base (Metrics.create ())) sq_cache in
      let store_ms, _, _ =
        prepare_ms
          (base (Metrics.create ()) |> Steno.Config.with_disk_cache ~dir)
          sq_cache
      in
      (* A different engine (fresh LRU, fresh metrics) on the same
         store: this is the restarted process paying only the dynlink
         load. *)
      let warm_reg = Metrics.create () in
      let warm_ms, warm_hit, warm_eng =
        prepare_ms
          (base warm_reg |> Steno.Config.with_disk_cache ~dir)
          sq_cache
      in
      let warm_compiles =
        Metrics.counter_value
          (Metrics.counter warm_reg "steno_compile" ~labels:[ "result", "ok" ])
      in
      let hits =
        match Steno.Engine.pcache_stats warm_eng with
        | Some s -> s.Pcache.st_hits
        | None -> 0
      in
      cold_ms, store_ms, warm_ms, warm_hit, warm_compiles, hits
    end
  in
  (* Best-effort cleanup of the scratch store. *)
  (try
     let rec rm d =
       Sys.readdir d
       |> Array.iter (fun f ->
              let p = Filename.concat d f in
              if Sys.is_directory p then rm p else Sys.remove p);
       Unix.rmdir d
     in
     if Sys.file_exists dir then rm dir
   with _ -> ());
  (* The warm-up curve: a tiered engine (threshold 3) with no disk
     cache, so the promotion pays a real background compile. *)
  let threshold = 3 in
  let tier_eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Steno.Native
        |> with_metrics (Metrics.create ())
        |> with_tiering ~threshold)
  in
  let p = Steno.Engine.prepare_scalar tier_eng sq_tier in
  let diverged = ref false in
  let timed_run n =
    let tier = Steno.backend_name (Steno.Prepared_scalar.backend_used p) in
    let t0 = Unix.gettimeofday () in
    let r = Steno.Prepared_scalar.run p in
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    if r <> expected then diverged := true;
    n, tier, ms
  in
  let head = List.init threshold (fun i -> timed_run (i + 1)) in
  (* The threshold run queued the background compile; wait (bounded)
     for the hot swap, measuring promotion latency as observed by a
     client polling the live tier. *)
  let t_promote = Unix.gettimeofday () in
  let deadline = t_promote +. 10.0 in
  let rec await () =
    if Steno.Prepared_scalar.backend_used p = Steno.Native then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.005;
      await ()
    end
  in
  let promoted = native && await () in
  let promotion_ms =
    if promoted then 1000.0 *. (Unix.gettimeofday () -. t_promote)
    else Float.nan
  in
  let tail =
    List.init 3 (fun i -> timed_run (threshold + i + 1))
  in
  {
    tm_threshold = threshold;
    tm_compile_cold_ms = compile_cold;
    tm_pcache_cold_ms = pcache_cold;
    tm_pcache_warm_ms = pcache_warm;
    tm_warm_is_hit = warm_hit;
    tm_warm_compiles = warm_compiles;
    tm_pcache_hits = pcache_hits;
    tm_promotion_ms = promotion_ms;
    tm_promoted = promoted;
    tm_curve = head @ tail;
    tm_diverged = !diverged;
  }

let tier () =
  header "PR 7: tiered execution + persistent plugin cache";
  let m = measure_tier () in
  if native then begin
    row "cold prepare: %.1f ms compile-only, %.1f ms compile+publish\n"
      m.tm_compile_cold_ms m.tm_pcache_cold_ms;
    row "warm-store prepare (new engine): %.3f ms (%.0fx faster; %d \
         compiler runs, %d disk hits)\n"
      m.tm_pcache_warm_ms
      (m.tm_compile_cold_ms /. m.tm_pcache_warm_ms)
      m.tm_warm_compiles m.tm_pcache_hits
  end
  else row "native compiler unavailable: pcache figures skipped\n";
  row "tiering warm-up (threshold %d):\n" m.tm_threshold;
  List.iter
    (fun (n, tier, ms) -> row "  run %d: %-6s %.3f ms\n" n tier ms)
    m.tm_curve;
  if m.tm_promoted then
    row "promoted to native %.1f ms after the threshold run%s\n"
      m.tm_promotion_ms
      (if m.tm_diverged then "; RESULTS DIVERGED" else "; results identical")
  else row "no promotion (native unavailable or compile failed)\n"

let json_tier_report file =
  header (Printf.sprintf "tiering/pcache JSON report -> %s" file);
  let m = measure_tier () in
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  Printf.fprintf oc
    {|{
  "benchmark": "tier",
  "scale": %.3f,
  "native_available": %b,
  "threshold": %d,
  "compile_cold_prepare_ms": %s,
  "pcache_cold_prepare_ms": %s,
  "pcache_warm_prepare_ms": %s,
  "pcache_speedup": %s,
  "pcache_warm_is_hit": %b,
  "pcache_warm_compiles": %d,
  "pcache_hits": %d,
  "promoted": %b,
  "promotion_ms": %s,
  "diverged": %b,
  "warmup_curve": [%s]
}
|}
    !scale native m.tm_threshold
    (fnum m.tm_compile_cold_ms)
    (fnum m.tm_pcache_cold_ms)
    (fnum m.tm_pcache_warm_ms)
    (fnum (m.tm_compile_cold_ms /. m.tm_pcache_warm_ms))
    m.tm_warm_is_hit m.tm_warm_compiles m.tm_pcache_hits m.tm_promoted
    (fnum m.tm_promotion_ms) m.tm_diverged
    (String.concat ", "
       (List.map
          (fun (n, tier, ms) ->
            Printf.sprintf {|{"run": %d, "tier": %S, "ms": %s}|} n tier
              (fnum ms))
          m.tm_curve));
  close_out oc;
  row "warm-store prepare %s ms vs %s ms compile; promoted: %b\n"
    (fnum m.tm_pcache_warm_ms)
    (fnum m.tm_compile_cold_ms)
    m.tm_promoted

(* {1 PR 8: tracing overhead}

   Two figures.  The serve-layer delta re-runs the PR 6 stress with
   request tracing off and on, comparing throughput and latency — the
   end-to-end price of the ops plane.  The hot-path figure isolates the
   per-request mechanics (trace root, ring push, bridged run span) on a
   fixed-size fused run where query cost dominates, because that is the
   path a production request takes once everything is cached; the CI
   gate holds its overhead under 10%. *)

type trace_overhead = {
  to_run_off_ms : float;  (* median untraced request *)
  to_run_traced_ms : float;  (* median fully-traced request *)
  to_overhead_pct : float;
}

let measure_trace_overhead () =
  (* Fixed size, independent of --scale: the gate compares the trace
     mechanics (microseconds) against a realistic request (hundreds of
     microseconds), and shrinking the query with the scale would turn
     the gate into a measurement of the mechanics alone. *)
  let n = 200_000 in
  let xs = Array.init n (fun i -> i land 1023) in
  let q =
    Query.sum_int
      (Query.of_array Ty.Int xs |> Query.select (fun x -> I.(x * x)))
  in
  let off_eng =
    Steno.Engine.(create { default_config with metrics = Metrics.create () })
  in
  let traced_eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_metrics (Metrics.create ()) |> with_tracing ~sample:1.0)
  in
  let request eng ~traced =
    let p = Steno.Engine.prepare_scalar ~backend:Steno.Fused eng q in
    let tracer = Steno.Engine.tracer eng in
    fun () ->
      if traced then
        Trace.with_trace tracer "request" (fun () ->
            ignore (Steno.Prepared_scalar.run p))
      else ignore (Steno.Prepared_scalar.run p)
  in
  let run_off = request off_eng ~traced:false in
  let run_traced = request traced_eng ~traced:true in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    1000.0 *. (Unix.gettimeofday () -. t0)
  in
  (* Interleave the samples: machine-state drift (GC, frequency, noisy
     neighbours) then lands on both sides equally instead of biasing
     whichever engine was measured second. *)
  run_off ();
  run_traced ();
  let off_samples = ref [] and traced_samples = ref [] in
  for _ = 1 to 21 do
    off_samples := time run_off :: !off_samples;
    traced_samples := time run_traced :: !traced_samples
  done;
  let median samples = List.nth (List.sort compare samples) 10 in
  let off = median !off_samples in
  let traced = median !traced_samples in
  {
    to_run_off_ms = off;
    to_run_traced_ms = traced;
    to_overhead_pct = (if off > 0.0 then 100.0 *. (traced -. off) /. off
                       else Float.nan);
  }

let json_trace_report file =
  header (Printf.sprintf "tracing-overhead JSON report -> %s" file);
  let sample = !serve_trace_sample in
  let m_off = measure_serve () in
  let m_on = measure_serve ~tracing:sample () in
  let hot = measure_trace_overhead () in
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  Printf.fprintf oc
    {|{
  "benchmark": "trace",
  "scale": %.3f,
  "native_available": %b,
  "trace_sample": %.3f,
  "clients": %d,
  "requests_per_client": %d,
  "serve_off": {"throughput_rps": %s, "p50_ms": %s, "p99_ms": %s},
  "serve_traced": {"throughput_rps": %s, "p50_ms": %s, "p99_ms": %s,
                   "traces": %d, "trace_dropped": %d},
  "serve_throughput_delta_pct": %s,
  "hot_run_off_ms": %s,
  "hot_run_traced_ms": %s,
  "hot_overhead_pct": %s
}
|}
    !scale native sample m_off.sv_clients m_off.sv_requests
    (fnum m_off.sv_throughput) (fnum m_off.sv_p50) (fnum m_off.sv_p99)
    (fnum m_on.sv_throughput) (fnum m_on.sv_p50) (fnum m_on.sv_p99)
    m_on.sv_traces m_on.sv_trace_dropped
    (fnum
       (if m_off.sv_throughput > 0.0 then
          100.0
          *. (m_off.sv_throughput -. m_on.sv_throughput)
          /. m_off.sv_throughput
        else Float.nan))
    (fnum hot.to_run_off_ms) (fnum hot.to_run_traced_ms)
    (fnum hot.to_overhead_pct);
  close_out oc;
  row "serve: %.0f req/s untraced vs %.0f req/s traced (sample %.2f, %d \
       traces)\n"
    m_off.sv_throughput m_on.sv_throughput sample m_on.sv_traces;
  row "hot path: %.3f ms -> %.3f ms (%.1f%% overhead)\n" hot.to_run_off_ms
    hot.to_run_traced_ms hot.to_overhead_pct

let trace_bench () =
  header "PR 8: request-tracing overhead";
  let hot = measure_trace_overhead () in
  row "hot path: %.3f ms untraced, %.3f ms traced (%.1f%% overhead)\n"
    hot.to_run_off_ms hot.to_run_traced_ms hot.to_overhead_pct

(* PR 10: the adversarial case for static filter ordering — an
   expensive, almost-always-true predicate written before a cheap,
   highly selective one.  The syntactic optimizer cannot reorder them
   (it has no cost model), so the static plan evaluates the expensive
   predicate on every row.  The adaptive pass measures both
   selectivities during profiled runs and the second preparation puts
   the cheap filter first. *)

let adaptive_input n = Array.init n (fun i -> (i * 37) mod 1009)

(* Expensive and opaque to the interval analysis (a provably-true
   predicate would be deleted, not reordered): an iterated hash
   compared one below the top of its range. *)
let adaptive_expensive x =
  let h = ref I.(x * Expr.int 131 + Expr.int 7) in
  for _ = 1 to 6 do
    h := I.(((!h mod Expr.int 1000003) * Expr.int 131) + Expr.int 7)
  done;
  I.(!h mod Expr.int 1000003 < Expr.int 1000002)

let adaptive_cheap x = I.(x mod Expr.int 997 = Expr.int 0)

type adaptive_measure = {
  ad_rows : int;
  ad_static_ms : float;
  ad_adaptive_ms : float;
  ad_reordered : bool;
  ad_decisions : string list;
}

let measure_adaptive () =
  let n = scaled 200_000 in
  let xs = adaptive_input n in
  let q =
    Query.of_array Ty.Int xs
    |> Query.where adaptive_expensive
    |> Query.where adaptive_cheap
  in
  let eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Steno.Fused |> with_profile true
        |> with_adaptive)
  in
  (* Both preparations run on the same profiled engine, so the probe
     overhead cancels: the first sees no statistics and keeps the
     written (pessimal) order, the second consumes the selectivities
     the first's runs recorded. *)
  let p1 = Steno.Engine.prepare eng q in
  let static_ms = time_ms ~runs:5 (fun () -> Steno.Prepared.run p1) in
  let p2 = Steno.Engine.prepare eng q in
  let adaptive_ms = time_ms ~runs:5 (fun () -> Steno.Prepared.run p2) in
  {
    ad_rows = n;
    ad_static_ms = static_ms;
    ad_adaptive_ms = adaptive_ms;
    ad_reordered =
      (* The log may annotate a repeated firing ("... (x2)"), so match
         the rule name as a prefix. *)
      (let rule = "stats-where-reorder" in
       List.exists
         (fun r ->
           String.length r >= String.length rule
           && String.sub r 0 (String.length rule) = rule)
         (Steno.Prepared.rewrite_log p2));
    ad_decisions = Steno.Prepared.decisions p2;
  }

let adaptive_bench () =
  header "PR 10: cost-based adaptive reorder (statically pessimal filters)";
  let m = measure_adaptive () in
  row "static order:   %.3f ms (%d rows)\n" m.ad_static_ms m.ad_rows;
  row "adaptive order: %.3f ms (reordered: %b, %.2fx)\n" m.ad_adaptive_ms
    m.ad_reordered
    (if m.ad_adaptive_ms > 0.0 then m.ad_static_ms /. m.ad_adaptive_ms
     else Float.nan);
  List.iter (fun d -> row "  %s\n" d) m.ad_decisions

let json_adaptive_report file =
  header (Printf.sprintf "adaptive JSON report -> %s" file);
  let m = measure_adaptive () in
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 2
  in
  Printf.fprintf oc
    {|{
  "benchmark": "adaptive",
  "scale": %.3f,
  "native_available": %b,
  "rows": %d,
  "static_order_ms": %.3f,
  "adaptive_order_ms": %.3f,
  "speedup": %.3f,
  "reordered": %b,
  "decisions": [%s]
}
|}
    !scale native m.ad_rows m.ad_static_ms m.ad_adaptive_ms
    (if m.ad_adaptive_ms > 0.0 then m.ad_static_ms /. m.ad_adaptive_ms
     else 0.0)
    m.ad_reordered
    (String.concat ", " (List.map (Printf.sprintf "%S") m.ad_decisions));
  close_out oc;
  row "static %.3f ms -> adaptive %.3f ms (reordered: %b)\n" m.ad_static_ms
    m.ad_adaptive_ms m.ad_reordered

let experiments =
  [
    "fig1", fig1;
    "fig13", fig13;
    "breakeven", breakeven;
    "fig14", fig14;
    "ablation-gba", ablation_gba;
    "ablation-chain", ablation_chain;
    "ablation-backend", ablation_backend;
    "ablation-join", ablation_join;
    "ablation-sorted", ablation_sorted_group;
    "ablation-early-exit", ablation_early_exit;
    "optimizer", optimizer;
    "par", par_scaling;
    "par-agg", par_agg;
    "profiling", profiling;
    "serve", serve;
    "tier", tier;
    "trace", trace_bench;
    "adaptive", adaptive_bench;
    "bechamel", bechamel;
  ]

let () =
  let args = Array.to_list Sys.argv in
  let json_file = ref None in
  let json_profile_file = ref None in
  let json_par_file = ref None in
  let json_serve_file = ref None in
  let json_tier_file = ref None in
  let json_trace_file = ref None in
  let json_adaptive_file = ref None in
  let rec parse = function
    | [] -> []
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--clients" :: v :: rest ->
      serve_clients := int_of_string v;
      parse rest
    | "--requests" :: v :: rest ->
      serve_requests := int_of_string v;
      parse rest
    | "--trace-sample" :: v :: rest ->
      serve_trace_sample := float_of_string v;
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--json-profile" :: file :: rest ->
      json_profile_file := Some file;
      parse rest
    | "--json-par" :: file :: rest ->
      json_par_file := Some file;
      parse rest
    | "--json-serve" :: file :: rest ->
      json_serve_file := Some file;
      parse rest
    | "--json-tier" :: file :: rest ->
      json_tier_file := Some file;
      parse rest
    | "--json-trace" :: file :: rest ->
      json_trace_file := Some file;
      parse rest
    | "--json-adaptive" :: file :: rest ->
      json_adaptive_file := Some file;
      parse rest
    | [
        ( "--scale" | "--clients" | "--requests" | "--trace-sample" | "--json"
        | "--json-profile" | "--json-par" | "--json-serve" | "--json-tier"
        | "--json-trace" | "--json-adaptive" ) as flag;
      ] ->
      Printf.eprintf "%s requires a value\n" flag;
      exit 2
    | x :: rest -> x :: parse rest
  in
  let picks = parse (List.tl args) in
  let json_requested =
    [
      !json_file; !json_profile_file; !json_par_file; !json_serve_file;
      !json_tier_file; !json_trace_file; !json_adaptive_file;
    ]
    |> List.exists Option.is_some
  in
  let named =
    match picks with
    | [] when json_requested ->
      [] (* a --json* flag alone: just those measurements *)
    | [] -> List.map fst experiments
    | picks -> picks
  in
  Printf.printf "Steno benchmark harness (scale = %.2f, native = %b)\n" !scale
    native;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments)))
    named;
  Option.iter json_report !json_file;
  Option.iter json_profile_report !json_profile_file;
  Option.iter json_par_report !json_par_file;
  Option.iter json_serve_report !json_serve_file;
  Option.iter json_tier_report !json_tier_file;
  Option.iter json_trace_report !json_trace_file;
  Option.iter json_adaptive_report !json_adaptive_file
