(* Workload [kernels]: steady-state generated code against hand-written
   loops (the paper's "Steno is as fast as a for loop", Fig. 1 and
   Fig. 13).  Seven queries are prepared on the Native backend in set-up;
   the measured loop runs them round-robin on one domain, each hand loop
   interleaved right after its query, with no forced collection between
   runs.  No prepare layer runs while measuring.  Times are at the
   reference host speed ([Common.timed]). *)

module I = Expr.Infix

type value =
  | F of float
  | N of int
  | B of bool
  | G of (int * int) array

(* Floats within a relative 1e-9, as in the differential suites; groups
   as key-sorted sets, since a hand loop need not emit them in the
   query's order. *)
let same a b =
  let by_key g =
    let g = Array.copy g in
    Array.sort compare g;
    g
  in
  match a, b with
  | F x, F y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs y)
  | G x, G y -> by_key x = by_key y
  | _ -> a = b

type kernel = {
  name : string;
  rows : int;  (** input rows one run reads *)
  prepare : Steno.Engine.t -> unit -> value;
  reference : unit -> value;
  hand : (unit -> value) option;
}

let bins = 64

let bin x =
  Expr.Prim2
    ( Prim.Max_int,
      Expr.int 0,
      Expr.Prim2
        ( Prim.Min_int,
          Expr.int (bins - 1),
          Expr.Prim1 (Prim.Truncate, I.(x *. Expr.float (float_of_int bins))) ) )

let hand_bin x = max 0 (min (bins - 1) (int_of_float (x *. float_of_int bins)))

(* A scalar query, its answer wrapped by [wrap]. *)
let scalar ~name ~rows ?hand wrap sq =
  {
    name;
    rows;
    prepare =
      (fun eng ->
        let p = Steno.Engine.prepare_scalar eng sq in
        fun () -> wrap (Steno.Prepared_scalar.run p));
    reference = (fun () -> wrap (Reference.scalar sq));
    hand;
  }

(* Sizes put each run between about 1 and 10 ms on one core. *)
let inputs ~seed =
  let rng = Random.State.make [| 0x4b; seed |] in
  let n = 1 lsl 20 in
  let n_group = 1 lsl 17 and n_where = 1 lsl 18 in
  let floats = Array.init n (fun _ -> Random.State.float rng 1.) in
  let cart_x = Array.init 4_000 (fun _ -> Random.State.float rng 1.) in
  let cart_y = Array.init 1_000 (fun _ -> Random.State.float rng 1.) in
  (* The paper's Group input: a two-component Gaussian mixture. *)
  let gauss mean sigma =
    let u1 = Random.State.float rng 1. +. 1e-12 in
    let u2 = Random.State.float rng 1. in
    mean +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
  in
  let mixture =
    Array.init n_group (fun _ ->
        if Random.State.bool rng then gauss 0.3 0.1 else gauss 0.7 0.05)
  in
  let ints = Array.init n_where (fun _ -> Random.State.int rng 1_000_000) in
  let outer = Array.init 16_384 (fun _ -> Random.State.int rng 1_000_000) in
  let inner = Array.init 4_096 (fun j -> j + (4_096 * Random.State.int rng 200)) in
  (* Near the middle of the ints' range, so the third filter keeps about
     half its rows whatever the seed: how fast the filter runs depends on
     how predictable it is. *)
  let c = 450_000 + Random.State.int rng 100_000 in
  let fsrc xs = Query.of_array Ty.Float xs in
  let isrc xs = Query.of_array Ty.Int xs in
  let f v = F v and i v = N v in
  (* GroupBy with a counting result selector; specialization (section
     4.3) turns it into a GroupByAggregate sink. *)
  let group_q =
    fsrc mixture
    |> Query.group_by bin
    |> Query.select (fun g ->
           Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g)))
  in
  [|
    scalar ~name:"sum" ~rows:n f
      ~hand:(fun () ->
        let acc = ref 0. in
        for a = 0 to Array.length floats - 1 do
          acc := !acc +. floats.(a)
        done;
        F !acc)
      (Query.sum_float (fsrc floats));
    scalar ~name:"sumsq" ~rows:n f
      ~hand:(fun () ->
        let acc = ref 0. in
        for a = 0 to Array.length floats - 1 do
          let x = floats.(a) in
          acc := !acc +. (x *. x)
        done;
        F !acc)
      (fsrc floats |> Query.select (fun x -> I.(x *. x)) |> Query.sum_float);
    scalar ~name:"cart"
      ~rows:(Array.length cart_x * Array.length cart_y)
      f
      ~hand:(fun () ->
        let acc = ref 0. in
        for a = 0 to Array.length cart_x - 1 do
          for b = 0 to Array.length cart_y - 1 do
            acc := !acc +. (cart_x.(a) *. cart_y.(b))
          done
        done;
        F !acc)
      (fsrc cart_x
      |> Query.select_many (fun x ->
             fsrc cart_y |> Query.select (fun y -> I.(x *. y)))
      |> Query.sum_float);
    {
      name = "group";
      rows = n_group;
      prepare =
        (fun eng ->
          let p = Steno.Engine.prepare eng group_q in
          fun () -> G (Steno.Prepared.run p));
      reference = (fun () -> G (Array.of_list (Reference.to_list group_q)));
      hand =
        Some
          (fun () ->
            let counts = Array.make bins 0 in
            Array.iter
              (fun x ->
                let b = hand_bin x in
                counts.(b) <- counts.(b) + 1)
              mixture;
            G
              (Array.of_list
                 (List.filter_map
                    (fun b -> if counts.(b) > 0 then Some (b, counts.(b)) else None)
                    (List.init bins Fun.id))));
    };
    scalar ~name:"where3" ~rows:n_where i
      (isrc ints
      |> Query.where (fun x -> I.(x mod Expr.int 3 <> Expr.int 0))
      |> Query.where (fun x -> I.(x mod Expr.int 5 <> Expr.int 0))
      |> Query.where (fun x -> I.(x > Expr.int c))
      |> Query.count);
    scalar ~name:"join"
      ~rows:(Array.length outer + Array.length inner)
      i
      (isrc outer
      |> Query.join ~inner:(isrc inner)
           ~outer_key:(fun x -> I.(x mod Expr.int 4_096))
           ~inner_key:(fun y -> I.(y mod Expr.int 4_096))
           ~result:(fun x y -> I.(x + y))
      |> Query.sum_int);
    scalar ~name:"exists" ~rows:n_where
      (fun v -> B v)
      (isrc ints |> Query.exists (fun x -> I.(x < Expr.int 0)));
  |]

let names = [ "sum"; "sumsq"; "cart"; "group"; "where3"; "join"; "exists" ]
let with_hand = [ "sum"; "sumsq"; "cart"; "group" ]

(* The per-layer metrics this workload adds, with their units. *)
let extras =
  List.map (fun n -> ("kernels." ^ n ^ ".run_ms_p50", "ms")) names
  @ List.map (fun n -> ("kernels." ^ n ^ ".hand_ms_p50", "ms")) with_hand
  @ [ ("kernels.hand_ratio_geomean", "ratio"); ("run.alloc_words_per_row", "words") ]

type state = {
  ks : kernel array;
  eng : Steno.Engine.t;
  runs : (unit -> value) array;
  layers : Layers.t;
}

(* Prepare (compile) every query and run each once. *)
let setup ks ~traced layers =
  let eng = Steno.Engine.create (Common.config ~traced Steno.Config.default) in
  let runs = Array.map (fun k -> k.prepare eng) ks in
  Array.iter (fun run -> ignore (Sys.opaque_identity (run ()))) runs;
  { ks; eng; runs; layers }

let p50 a = match Stats.percentile 0.5 a with Ok p -> p.Stats.value | Error _ -> 0.

(* The upper percentile of each query's run times. *)
let tail_q = 0.9

let measure st ~seconds =
  let tracer = Steno.Engine.tracer st.eng in
  let nk = Array.length st.ks in
  let run_ms = Array.make nk [] and hand_ms = Array.make nk [] in
  let first = Array.make nk None and hand_first = Array.make nk None in
  let failed = ref 0 and attempted = ref 0 in
  let words = ref 0. and rows = ref 0 in
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let deadline = Common.now_ms () +. (1000. *. seconds) in
  while Common.now_ms () < deadline do
    Array.iteri
      (fun i k ->
        incr attempted;
        let v, ms =
          Common.timed (fun () ->
              let w0 = allocated () in
              let v = Layers.traced st.layers tracer st.runs.(i) in
              words := !words +. (allocated () -. w0);
              v)
        in
        rows := !rows + k.rows;
        run_ms.(i) <- ms :: run_ms.(i);
        (* Every run must give the first run's answer; the first is
           checked against Reference after the loop. *)
        (match first.(i) with
        | None -> first.(i) <- Some v
        | Some v0 -> if not (same v v0) then incr failed);
        Option.iter
          (fun hand ->
            let hv, ms = Common.timed hand in
            hand_ms.(i) <- ms :: hand_ms.(i);
            if hand_first.(i) = None then hand_first.(i) <- Some hv)
          k.hand)
      st.ks
  done;
  let rss_kb = Common.peak_rss_kb () in
  Array.iteri
    (fun i k ->
      match first.(i) with
      | None -> ()
      | Some v ->
        let expected = k.reference () in
        let hand_ok =
          match hand_first.(i) with None -> true | Some hv -> same hv expected
        in
        if not (Common.check (same v expected && hand_ok)) then incr failed)
    st.ks;
  let runs = Array.map Array.of_list run_ms in
  let hands = Array.map Array.of_list hand_ms in
  let geo q =
    Array.fold_left
      (fun acc a ->
        Result.bind acc (fun vs -> Result.map (fun v -> v :: vs) (Common.percentile q a)))
      (Ok []) runs
    |> Result.map (fun vs -> Stats.geomean (Array.of_list vs))
  in
  let busy_s = Array.fold_left (fun acc a -> acc +. Stats.sum a) 0. runs /. 1000. in
  let all = List.init nk Fun.id in
  let handed = List.filter (fun i -> st.ks.(i).hand <> None) all in
  let named i suffix = "kernels." ^ st.ks.(i).name ^ suffix in
  let extra =
    List.map (fun i -> (named i ".run_ms_p50", p50 runs.(i), "ms")) all
    @ List.map (fun i -> (named i ".hand_ms_p50", p50 hands.(i), "ms")) handed
    @ [
        ( "kernels.hand_ratio_geomean",
          Stats.geomean
            (Array.of_list
               (List.map (fun i -> p50 runs.(i) /. p50 hands.(i)) handed)),
          "ratio" );
        ("run.alloc_words_per_row", !words /. float_of_int (max 1 !rows), "words");
      ]
  in
  if Trace.enabled tracer then Common.record_engine st.layers st.eng;
  {
    Common.p50 = geo 0.5;
    tail = geo tail_q;
    throughput = float_of_int !rows /. busy_s;
    attempted = !attempted;
    failed = !failed;
    rss_kb;
    extra;
  }
