(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 7), plus ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- fig1         -- one experiment
     dune exec bench/main.exe -- fig13 --scale 0.1
   Experiments: fig1 fig13 breakeven fig14 ablation-gba ablation-chain
                ablation-backend ablation-join ablation-dense ablation-sorted
                ablation-early-exit optimizer par par-agg profiling tier
                trace adaptive bechamel
   Exit status: 2 for an unknown experiment name (nothing runs), 1 when
   a gated experiment (trace, adaptive) misses its bound, 0 otherwise.
   Served latency, cold prepare and warm restart are measured by
   stenobench/ (python3 stenobench/run.py), not here.

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

(* Gated experiments report a missed bound here and keep going; the
   harness exits 1 at the end if any did. *)
let failures = ref 0

let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        flush stdout;
        Printf.eprintf "FAIL: %s\n%!" msg
      end)
    fmt

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

(* Per-call time of a short run, in microseconds: the median of five
   batches of calls, each batch about 20 ms long.  No collection runs
   between calls, so a run's share of the major GC work its allocations
   cause is in the figure. *)
let time_us f =
  let batch () =
    let t0 = Unix.gettimeofday () in
    let calls = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.02 do
      for _ = 1 to 50 do
        ignore (Sys.opaque_identity (f ()))
      done;
      calls := !calls + 50
    done;
    1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int !calls
  in
  let samples = List.sort compare (List.init 5 (fun _ -> batch ())) in
  List.nth samples 2

let ablation_dense () =
  header "Ablation: bounded int keys vs hashed keys, by rows and key range";
  require_native "ablation-dense" @@ fun () ->
  (* The same keys both ways: adding a captured 0 leaves each key's
     value unchanged but makes its interval unbounded, so it is hashed.
     The bounded key indexes an array when its range has at most 256
     slots, and past that only in a run of at least [slots / 2] rows
     (Codegen.key_table); otherwise it is hashed too. *)
  let zero = Expr.capture Ty.Int 0 in
  let rng = Random.State.make [| 4242 |] in
  let input n = Array.init n (fun _ -> Random.State.int rng 1_000_000) in
  let expect name src needle =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length src && (String.sub src i n = needle || at (i + 1))
    in
    if not (at 0) then
      failwith (Printf.sprintf "ablation-dense: %s lacks %s" name needle)
  in
  row "%6s %6s %7s %12s %12s %12s %12s\n" "mod" "slots" "rows"
    "group bound" "group hash" "join bound" "join hash";
  List.iter
    (fun m ->
      let key hashed x =
        if hashed then I.((x mod Expr.int m) + zero) else I.(x mod Expr.int m)
      in
      List.iter
        (fun n ->
          let xs = input n and ys = input n in
          let group hashed =
            let q =
              Query.of_array Ty.Int xs
              |> Query.group_by_agg ~key:(key hashed) ~seed:(Expr.int 0)
                   ~step:(fun acc x -> I.(acc + x))
            in
            expect "group" (Steno.generated_source q)
              (if hashed then "Steno_rt.Int_tbl" else "Stdlib.Array.get");
            let p = Steno.prepare ~backend:Steno.Native q in
            time_us (fun () -> Steno.Prepared.run p)
          in
          let join hashed =
            let q =
              Query.of_array Ty.Int xs
              |> Query.join ~inner:(Query.of_array Ty.Int ys)
                   ~outer_key:(key hashed) ~inner_key:(key hashed)
                   ~result:(fun x y -> I.(x + y))
              |> Query.sum_int
            in
            expect "join" (Steno.generated_source_scalar q)
              (if hashed then "Steno_rt.Int_tbl" else "Stdlib.Array.get");
            let p = Steno.prepare_scalar ~backend:Steno.Native q in
            time_us (fun () -> Steno.Prepared_scalar.run p)
          in
          let gd = group false and gh = group true in
          let jd = join false and jh = join true in
          row "%6d %6d %7d %12.2f %12.2f %12.2f %12.2f\n" m ((2 * m) - 1) n gd
            gh jd jh)
        [ 16; 64; 256; 1024; 4096; 16384 ])
    [ 128; 512; 4096 ];
  row "(microseconds per run; keys are x mod m over uniform x >= 0, whose\n\
    \ interval is [-(m-1), m-1]; a join has as many inner rows as outer)\n"

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
let par_agg () =
  header "PR 5: partitioned vs sequential filtered Average (Agg_i / Agg*)";
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
  row "filtered Average over %d doubles, %d workers on %d core(s)\n" n workers
    cores;
  row "sequential:  %10.1f ms\n" seq_ms;
  row "partitioned: %10.1f ms   (%.2fx)\n" par_ms speedup;
  let explanation =
    if speedup >= 1.5 then ""
    else if cores <= 1 then
      Printf.sprintf
        "\n  host exposes %d core: the %d worker domains time-slice one CPU, \
         so partitioned execution can at best match sequential time plus \
         domain-scheduling overhead; the 1.5x target needs >= 2 physical \
         cores"
        cores workers
    else
      Printf.sprintf
        "\n  %d cores available but speedup %.2fx < 1.5x: the filtered \
         Average is memory-bandwidth-bound at this scale"
        cores speedup
  in
  row "meets 1.5x target: %b%s\n" (speedup >= 1.5) explanation

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

let optimizer () =
  header "Optimizer: 3 stacked Wheres, rewriting on vs off";
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
  let run_on = time_ms ~runs (fun () -> Steno.Prepared_scalar.run p_on) in
  let run_off = time_ms ~runs (fun () -> Steno.Prepared_scalar.run p_off) in
  let prep_run_on = time_ms ~runs (fun () -> Steno.Engine.scalar e_on sq) in
  let prep_run_off = time_ms ~runs (fun () -> Steno.Engine.scalar e_off sq) in
  (* Operator counts of the QUIL plan the Native backend would generate
     code for, with and without rewriting. *)
  let ops e = (Steno.Engine.explain_scalar e sq).Steno.Engine.operators_after in
  row "n = %d; rules applied: %s\n" n
    (String.concat ", " (Steno.Prepared_scalar.rewrite_log p_on));
  row "%-22s %12s %12s\n" "" "opt on" "opt off";
  row "%-22s %10.1f ms %10.1f ms\n" "Fused run" run_on run_off;
  row "%-22s %10.1f ms %10.1f ms\n" "Fused prepare+run" prep_run_on
    prep_run_off;
  row "%-22s %12d %12d\n" "Native QUIL operators" (ops e_on) (ops e_off);
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
let profiling () =
  header "Profiling overhead: profile:false vs profile:true, per backend";
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
  row "sumsq over %d doubles (hand loop: %.2f ms), median of 5 runs\n" n
    (time_ms ~runs:5 (sumsq_hand xs));
  row "%-8s %12s %12s %10s\n" "backend" "off(ms)" "on(ms)" "overhead";
  List.iter
    (fun (name, b) ->
      let off = measure b false in
      let on = measure b true in
      row "%-8s %12.2f %12.2f %+9.1f%%\n" name off on
        (100.0 *. ((on /. off) -. 1.0)))
    backends

(* {1 PR 7: tiered execution}

   The tiering warm-up curve: the run-by-run latency of a tiered
   preparation from its first Fused run through the background promotion
   to Native.  The persistent plugin cache's cold/warm prepare is
   measured by stenobench's cold-prepare and warm-restart workloads, and
   its 10x floor is asserted by test/test_pcache.ml. *)

let tier () =
  header "PR 7: tiered execution warm-up";
  let xs = Array.init 4096 (fun i -> (i * 31) mod 977) in
  (* A literal no other experiment uses, so the generated source (and
     hence every cache key) is private to this measurement. *)
  let sq =
    Query.sum_int
      (Query.of_array Ty.Int xs
      |> Query.select (fun x -> I.(x + Expr.int 7_424_243)))
  in
  let expected =
    Steno.Prepared_scalar.run (Steno.prepare_scalar ~backend:Steno.Linq sq)
  in
  (* A tiered engine (threshold 3) with no disk cache, so the promotion
     pays a real background compile. *)
  let threshold = 3 in
  let eng =
    Steno.Engine.create
      Steno.Config.(
        default |> with_backend Steno.Native
        |> with_metrics (Metrics.create ())
        |> with_tiering ~threshold)
  in
  let p = Steno.Engine.prepare_scalar eng sq in
  let diverged = ref false in
  let timed_run n =
    let tier = Steno.backend_name (Steno.Prepared_scalar.backend_used p) in
    let t0 = Unix.gettimeofday () in
    let r = Steno.Prepared_scalar.run p in
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    if r <> expected then diverged := true;
    row "  run %d: %-6s %.3f ms\n" n tier ms
  in
  row "tiering warm-up (threshold %d):\n" threshold;
  for i = 1 to threshold do
    timed_run i
  done;
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
  let promotion_ms = 1000.0 *. (Unix.gettimeofday () -. t_promote) in
  for i = 1 to 3 do
    timed_run (threshold + i)
  done;
  if promoted then
    row "promoted to native %.1f ms after the threshold run%s\n" promotion_ms
      (if !diverged then "; RESULTS DIVERGED" else "; results identical")
  else row "no promotion (native unavailable or compile failed)\n"

(* {1 PR 8: tracing overhead}

   The hot-path figure isolates the per-request mechanics (trace root,
   ring push, bridged run span) on a fixed-size fused run where query
   cost dominates, because that is the path a production request takes
   once everything is cached.  The experiment fails (exit 1) when the
   overhead reaches 10%.  The served end-to-end price of tracing is
   stenobench's [trace_overhead_pct] (serve-mixed with --trace 0|1). *)

let trace_bench () =
  header "PR 8: request-tracing overhead";
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
  let overhead_pct = 100.0 *. (traced -. off) /. off in
  row "hot path: %.3f ms untraced, %.3f ms traced (%.1f%% overhead)\n" off
    traced overhead_pct;
  (* Negative values are measurement noise and pass. *)
  gate (overhead_pct < 10.0) "trace: hot-path tracing overhead %.1f%% >= 10%%"
    overhead_pct

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

let adaptive_bench () =
  header "PR 10: cost-based adaptive reorder (statically pessimal filters)";
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
  (* The log may annotate a repeated firing ("... (x2)"), so match the
     rule name as a prefix. *)
  let reordered =
    List.exists
      (String.starts_with ~prefix:"stats-where-reorder")
      (Steno.Prepared.rewrite_log p2)
  in
  let decisions = Steno.Prepared.decisions p2 in
  let speedup = static_ms /. adaptive_ms in
  row "static order:   %.3f ms (%d rows)\n" static_ms n;
  row "adaptive order: %.3f ms (reordered: %b, %.2fx)\n" adaptive_ms reordered
    speedup;
  List.iter (fun d -> row "  %s\n" d) decisions;
  (* The expensive predicate is ~30x the cheap one, so 1.2x is a loose
     floor for a real win. *)
  gate reordered "adaptive: the second preparation never reordered the filters";
  gate (speedup >= 1.2) "adaptive: speedup %.2fx < 1.2x floor" speedup;
  gate
    (List.exists (String.starts_with ~prefix:"reordered: ") decisions)
    "adaptive: no \"reordered: \" decision line surfaced"

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
    "ablation-dense", ablation_dense;
    "ablation-sorted", ablation_sorted_group;
    "ablation-early-exit", ablation_early_exit;
    "optimizer", optimizer;
    "par", par_scaling;
    "par-agg", par_agg;
    "profiling", profiling;
    "tier", tier;
    "trace", trace_bench;
    "adaptive", adaptive_bench;
    "bechamel", bechamel;
  ]

let () =
  let rec parse = function
    | [] -> []
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | [ "--scale" ] ->
      prerr_endline "--scale requires a value";
      exit 2
    | x :: rest -> x :: parse rest
  in
  let named =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | picks -> picks
  in
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) named with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment %s; available: %s\n"
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat ", " (List.map fst experiments));
    exit 2);
  Printf.printf "Steno benchmark harness (scale = %.2f, native = %b)\n" !scale
    native;
  List.iter (fun name -> (List.assoc name experiments) ()) named;
  if !failures > 0 then begin
    Printf.eprintf "%d benchmark gate(s) failed\n" !failures;
    exit 1
  end
