(* Differential testing: the Reference list semantics, the LINQ iterator
   pipeline, the Fused closure backend and Steno-generated native code
   must agree on every query — including raising the same exception on
   empty seedless aggregates. *)

module I = Expr.Infix

let backends =
  if Steno.native_available () then [ Steno.Linq; Steno.Fused; Steno.Native ]
  else [ Steno.Linq; Steno.Fused ]

let backend_name = function
  | Steno.Linq -> "linq"
  | Steno.Fused -> "fused"
  | Steno.Native -> "native"

let show : type a. a Ty.t -> a -> string =
 fun ty v -> Format.asprintf "%a" (Ty.pp_value ty) v

let check_q name (q : 'a Query.t) =
  let ty = Ty.Array (Query.elem_ty q) in
  let expected = Array.of_list (Reference.to_list q) in
  List.iter
    (fun b ->
      let got = Steno.to_array ~backend:b q in
      if Ty.compare_values ty got expected <> 0 then
        Alcotest.failf "%s/%s: got %s, want %s" name (backend_name b)
          (show ty got) (show ty expected))
    backends

let check_sq name (sq : 's Query.sq) =
  let ty = Query.scalar_ty sq in
  let expected =
    match Reference.scalar sq with
    | v -> Ok v
    | exception Iterator.No_such_element -> Error `Empty
  in
  List.iter
    (fun b ->
      let got =
        match Steno.scalar ~backend:b sq with
        | v -> Ok v
        | exception Iterator.No_such_element -> Error `Empty
      in
      match expected, got with
      | Ok e, Ok g ->
        if Ty.compare_values ty g e <> 0 then
          Alcotest.failf "%s/%s: got %s, want %s" name (backend_name b)
            (show ty g) (show ty e)
      | Error `Empty, Error `Empty -> ()
      | Ok e, Error `Empty ->
        Alcotest.failf "%s/%s: raised on non-empty (want %s)" name
          (backend_name b) (show ty e)
      | Error `Empty, Ok g ->
        Alcotest.failf "%s/%s: got %s, want empty-sequence failure" name
          (backend_name b) (show ty g))
    backends

let ints xs = Query.of_array Ty.Int xs

let floats xs = Query.of_array Ty.Float xs

let sample_ints = [| 5; 3; 8; 1; 9; 2; 8; 3; 7; 0 |]

let sample_floats = [| 1.5; -2.25; 3.0; 0.5; -1.0; 4.75 |]

(* Element-wise pipelines *)

let test_elementwise () =
  check_q "select" (ints sample_ints |> Query.select (fun x -> I.(x * x)));
  check_q "where"
    (ints sample_ints |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 1)));
  check_q "where-select"
    (ints sample_ints
    |> Query.where (fun x -> I.(x > Expr.int 2))
    |> Query.select (fun x -> I.(x + Expr.int 100)));
  check_q "select-where-select"
    (ints sample_ints
    |> Query.select (fun x -> I.(x * Expr.int 3))
    |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
    |> Query.select (fun x -> I.(x - Expr.int 1)));
  check_q "float pipeline"
    (floats sample_floats
    |> Query.select (fun x -> I.((x *. x) +. Expr.float 1.0))
    |> Query.where (fun x -> I.(x > Expr.float 2.0)))

let test_stateful_preds () =
  check_q "take" (ints sample_ints |> Query.take 4);
  check_q "take 0" (ints sample_ints |> Query.take 0);
  check_q "take beyond" (ints sample_ints |> Query.take 99);
  check_q "skip" (ints sample_ints |> Query.skip 4);
  check_q "skip beyond" (ints sample_ints |> Query.skip 99);
  check_q "take-skip mix"
    (ints sample_ints |> Query.skip 2 |> Query.take 5 |> Query.skip 1);
  check_q "take_while" (ints sample_ints |> Query.take_while (fun x -> I.(x > Expr.int 0)));
  check_q "skip_while" (ints sample_ints |> Query.skip_while (fun x -> I.(x > Expr.int 2)));
  check_q "take_while after select"
    (ints sample_ints
    |> Query.select (fun x -> I.(x - Expr.int 4))
    |> Query.take_while (fun x -> I.(not (x = Expr.int 0))))

let test_indexed_ops () =
  check_q "select_i"
    (ints sample_ints |> Query.select_i (fun i x -> I.((i * Expr.int 100) + x)));
  check_q "where_i (even positions)"
    (ints sample_ints |> Query.where_i (fun i _ -> I.(i mod Expr.int 2 = Expr.int 0)));
  check_q "where then select_i (positions after filter)"
    (ints sample_ints
    |> Query.where (fun x -> I.(x > Expr.int 2))
    |> Query.select_i (fun i x -> Expr.Pair (i, x)));
  check_q "select_i after skip"
    (ints sample_ints |> Query.skip 3 |> Query.select_i (fun i x -> I.(i + x)))

let test_positional_aggregates () =
  check_sq "last" (Query.last (ints sample_ints));
  check_sq "last filtered"
    (Query.last (ints sample_ints |> Query.where (fun x -> I.(x < Expr.int 5))));
  check_sq "last empty" (Query.last (ints [||]));
  check_sq "element_at 0" (Query.element_at 0 (ints sample_ints));
  check_sq "element_at mid" (Query.element_at 5 (ints sample_ints));
  check_sq "element_at out of range" (Query.element_at 99 (ints sample_ints));
  check_sq "sum_by_int" (Query.sum_by_int (fun x -> I.(x * x)) (ints sample_ints));
  check_sq "average_by"
    (Query.average_by (fun x -> I.(x *. x)) (floats sample_floats));
  check_sq "count_where" (Query.count_where (fun x -> I.(x > Expr.int 4)) (ints sample_ints))

let test_sources () =
  check_q "range" (Query.range ~start:(-3) ~count:7);
  check_q "range empty" (Query.range ~start:0 ~count:0);
  check_q "repeat" (Query.repeat Ty.Int 42 ~count:5);
  check_q "range pipeline"
    (Query.range ~start:0 ~count:20
    |> Query.where (fun x -> I.(x mod Expr.int 3 = Expr.int 0))
    |> Query.select (fun x -> I.(x * x)));
  check_q "empty source" (ints [||] |> Query.select (fun x -> x))

let test_sinks () =
  check_q "order_by" (ints sample_ints |> Query.order_by (fun x -> x));
  check_q "order_by desc"
    (ints sample_ints |> Query.order_by ~order:Query.Descending (fun x -> x));
  check_q "order_by key"
    (ints sample_ints |> Query.order_by (fun x -> I.(x mod Expr.int 3)));
  check_q "distinct" (ints sample_ints |> Query.distinct);
  check_q "rev" (ints sample_ints |> Query.rev);
  check_q "materialize" (ints sample_ints |> Query.materialize);
  check_q "distinct then sort"
    (ints sample_ints |> Query.distinct |> Query.order_by (fun x -> x));
  check_q "sort then take"
    (ints sample_ints |> Query.order_by (fun x -> x) |> Query.take 3);
  check_q "where then sort then select"
    (ints sample_ints
    |> Query.where (fun x -> I.(x > Expr.int 1))
    |> Query.order_by (fun x -> I.(Expr.int 0 - x))
    |> Query.select (fun x -> I.(x * Expr.int 2)))

let test_group_by () =
  check_q "group_by" (ints sample_ints |> Query.group_by (fun x -> I.(x mod Expr.int 3)));
  check_q "group_by_elem"
    (ints sample_ints
    |> Query.group_by_elem ~key:(fun x -> I.(x mod Expr.int 3)) ~elem:(fun x -> I.(x * x)));
  check_q "group_by_agg count"
    (ints sample_ints
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 3))
         ~seed:(Expr.int 0)
         ~step:(fun acc _ -> I.(acc + Expr.int 1)));
  check_q "group_by_agg sum"
    (ints sample_ints
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 2))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x)));
  check_q "group then project key"
    (ints sample_ints
    |> Query.group_by (fun x -> I.(x mod Expr.int 3))
    |> Query.select (fun g -> Expr.Fst g));
  check_q "group-having (GROUP BY ... HAVING)"
    (ints sample_ints
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 3))
         ~seed:(Expr.int 0)
         ~step:(fun acc _ -> I.(acc + Expr.int 1))
    |> Query.where (fun g -> I.(Expr.Snd g > Expr.int 2)))

let test_join_strategies () =
  let pairs xs = Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) xs in
  let left = pairs (Array.init 30 (fun i -> i mod 7, i)) in
  let right = pairs (Array.init 20 (fun i -> i mod 7, 100 + i)) in
  let joined =
    left
    |> Query.join ~inner:right
         ~outer_key:(fun l -> Expr.Fst l)
         ~inner_key:(fun r -> Expr.Fst r)
         ~result:(fun l r -> Expr.Pair (Expr.Snd l, Expr.Snd r))
  in
  check_q "join (hash strategy)" joined;
  Canon.hash_join_enabled := false;
  Fun.protect ~finally:(fun () -> Canon.hash_join_enabled := true) (fun () ->
      check_q "join (nested-loop strategy)" joined);
  (* A join whose build side has its own pipeline. *)
  check_q "join with filtered inner"
    (left
    |> Query.join
         ~inner:(right |> Query.where (fun r -> I.(Expr.Snd r mod Expr.int 2 = Expr.int 0)))
         ~outer_key:(fun l -> Expr.Fst l)
         ~inner_key:(fun r -> Expr.Fst r)
         ~result:(fun l r -> Expr.Pair (Expr.Snd l, Expr.Snd r)))

(* Key edges for the hash tables behind GroupBy, Distinct and the hash
   join: int keys take a type-specialized table, other key types the
   generic one.  Every backend must match [Reference]
   exactly: groups in first-appearance order, the first-appearing key
   kept, the same multiplicities.  The marshalled representations are
   compared too, since [compare] does not tell [0.] from [-0.]. *)
let check_exact name (q : 'a Query.t) =
  let ty = Ty.Array (Query.elem_ty q) in
  let expected = Array.of_list (Reference.to_list q) in
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  let want = bits expected in
  List.iter
    (fun b ->
      let got = Steno.to_array ~backend:b q in
      if Ty.compare_values ty got expected <> 0 || bits got <> want then
        Alcotest.failf "%s/%s: got %s, want %s" name (backend_name b)
          (show ty got) (show ty expected))
    backends

(* The five hashing operators over [keys] (each element is its own
   key), the join probing an index of [keys] with [probes]. *)
let check_key_ops label (ty : 'k Ty.t) (keys : 'k array) (probes : 'k array) =
  let src = Query.of_array ty keys in
  let count acc _ = I.(acc + Expr.int 1) in
  check_exact (label ^ " group_by") (src |> Query.group_by (fun x -> x));
  check_exact (label ^ " group_by_elem")
    (src
    |> Query.group_by_elem ~key:(fun x -> x) ~elem:(fun x ->
           Expr.Pair (x, Expr.int 1)));
  check_exact (label ^ " group_by_agg")
    (src |> Query.group_by_agg ~key:(fun x -> x) ~seed:(Expr.int 0) ~step:count);
  check_exact (label ^ " distinct") (src |> Query.distinct);
  let indexed =
    Query.of_array (Ty.Pair (ty, Ty.Int)) (Array.mapi (fun i k -> k, i) keys)
  in
  let joined =
    Query.of_array ty probes
    |> Query.join ~inner:indexed
         ~outer_key:(fun p -> p)
         ~inner_key:(fun r -> Expr.Fst r)
         ~result:(fun p r -> Expr.Pair (p, Expr.Snd r))
  in
  check_exact (label ^ " join") joined;
  Canon.hash_join_enabled := false;
  Fun.protect ~finally:(fun () -> Canon.hash_join_enabled := true) (fun () ->
      check_exact (label ^ " join (nested-loop)") joined)

let test_key_edges_int () =
  check_key_ops "int edges" Ty.Int
    [| 3; -1; min_int; 0; max_int; -1; min_int; 3; max_int; -7; 0 |]
    [| 0; -1; max_int; 5; min_int; -7; 3 |];
  (* 2^16 distinct multiples of 2^20, each twice, in a scrambled order:
     keys that share their low 20 bits, which an identity hash would put
     in one bucket. *)
  let n = 1 lsl 16 in
  check_key_ops "int 2^16" Ty.Int
    (Array.init (2 * n) (fun i -> ((i * 40503) land (n - 1)) lsl 20))
    (Array.init 32 (fun i -> (i * 2111) lsl 20))

let test_key_edges_float () =
  check_key_ops "float edges" Ty.Float
    [| 1.5; Float.nan; 0.; -0.; infinity; Float.nan; neg_infinity; -0.; 0.;
       infinity; 1.5; neg_infinity |]
    [| Float.nan; -0.; 0.; infinity; neg_infinity; 2.5; 1.5 |];
  (* The first appearance of a zero decides the group's key. *)
  check_key_ops "float -0. first" Ty.Float [| -0.; 0.; -0.; 2.; 0. |]
    [| 0.; -0. |]

let test_key_edges_string () =
  check_key_ops "string" Ty.String
    [| "b"; ""; "ab"; "a"; "b"; ""; "ba"; String.make 100 'x'; "ab";
       String.make 100 'x' |]
    [| ""; "ab"; "zz"; String.make 100 'x'; "b" |]

let test_key_edges_pair () =
  check_key_ops "(int * string)" (Ty.Pair (Ty.Int, Ty.String))
    [| 1, "a"; 1, "b"; -1, "a"; 1, "a"; min_int, ""; -1, "a"; max_int, "" |]
    [| 1, "a"; min_int, ""; 2, "a"; -1, "a" |]

(* {2 Interval facts}

   Int keys with a small bounded range index an array, and cheap total
   filters in front of a Count or an int Sum add a 0/1 mask.  Each case
   first checks that the generated code takes the path under test. *)

let check_source name src needle =
  let nl = String.length needle and sl = String.length src in
  let rec found i =
    i + nl <= sl && (String.sub src i nl = needle || found (i + 1))
  in
  if not (found 0) then Alcotest.failf "%s: source lacks %S:\n%s" name needle src

(* [table] names the code the keys must take. *)
let dense_table = "Stdlib.Array.make"
let hash_table = "Steno_rt.Int_tbl"

(* The shared engines fall back to Fused when a plugin fails to build;
   this one raises instead, so the new code is what runs. *)
let strict_native =
  lazy
    (Steno.Engine.create
       Steno.Config.(
         default |> with_backend Steno.Native |> with_fallback false))

(* Over an empty captured input the optimizer drops the operator under
   test, so the engine builds no such code; [~unoptimized] checks the
   code of the chain as written, which an engine with [optimize] off
   builds. *)
let unoptimized_source q = (Codegen.generate (Canon.of_query q)).Codegen.source

let unoptimized_source_sq sq =
  (Codegen.generate (Canon.of_scalar sq)).Codegen.source

let checked ?(unoptimized = false) table name q =
  check_source name
    (if unoptimized then unoptimized_source q else Steno.generated_source q)
    table;
  check_exact name q;
  if Steno.native_available () then begin
    let ty = Ty.Array (Query.elem_ty q) in
    let expected = Array.of_list (Reference.to_list q) in
    let got = Steno.Engine.to_array (Lazy.force strict_native) q in
    if Ty.compare_values ty got expected <> 0 then
      Alcotest.failf "%s/strict native: got %s, want %s" name (show ty got)
        (show ty expected)
  end

let checked_sq ?(unoptimized = false) name (sq : int Query.sq) =
  check_source name
    (if unoptimized then unoptimized_source_sq sq
     else Steno.generated_source_scalar sq)
    "Stdlib.Bool.to_int";
  check_sq name sq;
  if Steno.native_available () then
    Alcotest.(check int)
      (name ^ "/strict native")
      (Reference.scalar sq)
      (Steno.Engine.scalar (Lazy.force strict_native) sq)

let clamp lo hi x =
  Expr.Prim2 (Prim.Max_int, Expr.int lo, Expr.Prim2 (Prim.Min_int, Expr.int hi, x))

(* The three grouping sinks over the same key. *)
let groupings table label key xs =
  let src = ints xs in
  checked table (label ^ " group_by") (src |> Query.group_by key);
  checked table (label ^ " group_by_elem")
    (src |> Query.group_by_elem ~key ~elem:(fun x -> I.(x * Expr.int 2)));
  checked table (label ^ " group_by_agg")
    (src
    |> Query.group_by_agg ~key ~seed:(Expr.int 0) ~step:(fun acc x -> I.(acc + x)))

let signed = Array.init 200 (fun i -> ((i * 7919) mod 401) - 200)

let test_dense_keys () =
  let m7 x = I.(x mod Expr.int 7) in
  groupings dense_table "x mod 7, negative inputs" m7 signed;
  groupings dense_table "x mod 7, all negative" m7
    (Array.map (fun x -> -1 - abs x) signed);
  groupings dense_table "clamp both ends" (fun x -> clamp (-3) 3 x)
    [| 10; -10; 0; 3; -3; max_int; min_int; 2; -2; 4; -4 |];
  (* 8192 slots is the cap: the array is used in a run of at least 4096
     rows, the hash table in a shorter one; one more slot is hashed. *)
  let edges = [| 0; 8191; 8192; -1; 5000; max_int; 8191; min_int; 1 |] in
  let long =
    Array.append edges (Array.init 4096 (fun i -> ((i * 7919) mod 9000) - 400))
  in
  groupings dense_table "8192 slots, short run" (fun x -> clamp 0 8191 x) edges;
  groupings dense_table "8192 slots, long run" (fun x -> clamp 0 8191 x) long;
  groupings hash_table "8193 slots" (fun x -> clamp 0 8192 x) long

let test_dense_joins () =
  let join ~outer_key ~inner_key outer inner =
    ints outer
    |> Query.join ~inner:(ints inner) ~outer_key ~inner_key
         ~result:(fun x y -> Expr.Pair (x, y))
  in
  let m5 x = I.(x mod Expr.int 5) in
  (* 8191 slots: the outer side's length picks the array or the table. *)
  let m4096 x = I.(x mod Expr.int 4096) in
  let wide = Array.init 4100 (fun i -> ((i * 7919) mod 20011) - 10000) in
  checked dense_table "8191 slots, long outer"
    (join ~outer_key:m4096 ~inner_key:m4096 wide signed);
  checked dense_table "8191 slots, short outer"
    (join ~outer_key:m4096 ~inner_key:m4096 signed wide);
  checked dense_table "8191 slots, unbounded long outer"
    (join ~outer_key:(fun x -> x) ~inner_key:m4096 wide signed);
  checked dense_table "signed keys, outer range inside"
    (join ~outer_key:m5 ~inner_key:m5 signed signed);
  checked ~unoptimized:true dense_table "empty inner"
    (join ~outer_key:m5 ~inner_key:m5 signed [||]);
  checked ~unoptimized:true dense_table "empty outer"
    (join ~outer_key:m5 ~inner_key:m5 [||] signed);
  (* Duplicate inner keys keep their inner order within a bucket. *)
  checked dense_table "duplicate inner keys"
    (join ~outer_key:m5 ~inner_key:m5 [| 1; -1; 6; 3 |]
       [| 1; 11; -4; 6; 21; 1; -9 |]);
  (* An unbounded outer key probes outside the build side's range. *)
  checked dense_table "outer range outside"
    (join ~outer_key:(fun x -> x) ~inner_key:m5
       [| 0; 4; -4; 5; -5; 100; max_int; min_int; 1 |]
       [| 3; -3; 4; 14; -14; 0; 1 |])

(* [abs min_int] is [min_int] and [max_int + 1] is [min_int], so these
   keys can be negative however they look: their tables must cover the
   negative slots, and a join probing with them must keep its range
   test. *)
let test_wrapping_keys () =
  let abs_mod x = I.(Expr.Prim1 (Prim.Abs_int, x) mod Expr.int 7) in
  let succ_mod x =
    I.((Expr.Prim2 (Prim.Max_int, x, Expr.int 0) + Expr.int 1) mod Expr.int 7)
  in
  let with_ends = [| 3; min_int; -10; 12; min_int; max_int; 0; -3 |] in
  groupings dense_table "abs x mod 7" abs_mod with_ends;
  groupings dense_table "(max x 0 + 1) mod 7" succ_mod with_ends;
  let join outer inner =
    ints outer
    |> Query.join ~inner:(ints inner) ~outer_key:abs_mod ~inner_key:abs_mod
         ~result:(fun x y -> Expr.Pair (x, y))
  in
  checked dense_table "join, min_int outer" (join with_ends [| 4; 10; 0; 3; 11 |]);
  checked dense_table "join, min_int inner" (join [| 4; 10; 0; 3 |] with_ends)

let test_masked_filters () =
  let data = Array.init 300 (fun i -> ((i * 37) mod 211) - 105) in
  let evens = Array.map (fun x -> 2 * x) data in
  let odds = Array.map (fun x -> (2 * x) + 1) data in
  let chain xs =
    ints xs
    |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
    |> Query.where (fun x -> I.(x > Expr.int (-1000)))
  in
  List.iter
    (fun (label, xs) ->
      List.iter
        (fun (agg, sq) ->
          checked_sq ~unoptimized:(xs = [||])
            (Printf.sprintf "%s %s" agg label)
            sq)
        [ "count", Query.count (chain xs); "sum", Query.sum_int (chain xs) ])
    [ "0%", odds; "50%", data; "100%", evens; "empty", [||] ];
  (* [&&] inside one test, a [||] masked whole, and extreme elements
     under the mask. *)
  let extremes = [| max_int; min_int; -1; 0; 1; max_int; min_int + 1 |] in
  checked_sq "sum, extremes"
    (ints extremes
    |> Query.where (fun x ->
           I.((x <> Expr.int 0) && (x mod Expr.int 3 <> Expr.int 1)))
    |> Query.sum_int);
  checked_sq "count, or"
    (ints data
    |> Query.where (fun x -> I.((x < Expr.int (-50)) || (x > Expr.int 50)))
    |> Query.count);
  (* The second test divides by the element: it must stay behind the
     first, and no backend may raise. *)
  let guarded xs =
    ints xs
    |> Query.where (fun x -> I.(x <> Expr.int 0))
    |> Query.where (fun x -> I.(Expr.int 100 / x > Expr.int 3))
    |> Query.count
  in
  let src = Steno.generated_source_scalar (guarded [| 1 |]) in
  check_source "guarded division" src "then begin";
  check_sq "guarded division" (guarded [| 0; 5; 0; -5; 20; 40; 0; 1 |]);
  if Steno.native_available () then
    Alcotest.(check int) "guarded division/strict native" 3
      (Steno.Engine.scalar (Lazy.force strict_native)
         (guarded [| 0; 5; 0; -5; 20; 40; 0; 1 |]))

let test_sorted_group_agg () =
  let q =
    ints sample_ints
    |> Query.order_by (fun x -> I.(x mod Expr.int 3))
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 3))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x))
  in
  check_q "sorted group-aggregate" q;
  Canon.sorted_group_enabled := false;
  Fun.protect ~finally:(fun () -> Canon.sorted_group_enabled := true)
    (fun () -> check_q "hash sink on sorted input" q)

let test_nested () =
  check_q "select_many"
    (ints [| 1; 2; 3 |]
    |> Query.select_many (fun x -> Query.range ~start:0 ~count:3 |> Query.select (fun y -> I.(y + (x * Expr.int 10)))));
  check_q "select_many over captured"
    (ints [| 1; 2 |]
    |> Query.select_many (fun x ->
           Query.of_array Ty.Int [| 10; 20 |] |> Query.select (fun y -> I.(x + y))));
  check_q "select_many_result"
    (ints [| 1; 2; 3 |]
    |> Query.select_many_result
         (fun x -> Query.range ~start:0 ~count:2 |> Query.where (fun y -> I.(not (y = x))))
         (fun x y -> I.((x * Expr.int 100) + y)));
  check_q "triple nesting (cartesian)"
    (ints [| 1; 2 |]
    |> Query.select_many (fun x ->
           ints [| 3; 4 |]
           |> Query.select_many (fun y ->
                  ints [| 5; 6 |] |> Query.select (fun z -> I.((x * Expr.int 100) + (y * Expr.int 10) + z)))));
  check_q "nested with inner sink"
    (ints [| 3; 1 |]
    |> Query.select_many (fun x ->
           ints [| 2; 1; 2 |] |> Query.distinct |> Query.select (fun y -> I.(x + y))));
  check_q "select_sq (scalar subquery)"
    (ints [| 1; 2; 3 |]
    |> Query.select_sq (fun x ->
           Query.range ~start:0 ~count:4 |> Query.select (fun y -> I.(y * x)) |> Query.sum_int));
  check_q "where_sq (exists subquery)"
    (ints sample_ints
    |> Query.where_sq (fun x ->
           Query.of_array Ty.Int [| 2; 5; 8 |] |> Query.exists (fun y -> I.(y = x))));
  check_q "join"
    (Query.join
       ~inner:(Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) [| 1, 10; 2, 20; 1, 30 |])
       ~outer_key:(fun p -> Expr.Fst p)
       ~inner_key:(fun o -> Expr.Fst o)
       ~result:(fun p o -> Expr.Pair (Expr.Snd p, Expr.Snd o))
       (Query.of_array (Ty.Pair (Ty.Int, Ty.Int)) [| 1, 100; 3, 300 |]))

let test_aggregates () =
  let q = ints sample_ints in
  check_sq "sum_int" (Query.sum_int q);
  check_sq "sum_float" (Query.sum_float (floats sample_floats));
  check_sq "count" (Query.count q);
  check_sq "average" (Query.average (floats sample_floats));
  check_sq "min int" (Query.min_elt q);
  check_sq "max int" (Query.max_elt q);
  check_sq "min float" (Query.min_elt (floats sample_floats));
  check_sq "max float" (Query.max_elt (floats sample_floats));
  check_sq "min pair (generic)"
    (Query.min_elt (q |> Query.select (fun x -> Expr.Pair (I.(x mod Expr.int 3), x))));
  check_sq "min_by" (Query.min_by (fun x -> I.(x mod Expr.int 4)) q);
  check_sq "max_by" (Query.max_by (fun x -> I.(x mod Expr.int 4)) q);
  check_sq "first" (Query.first q);
  check_sq "first filtered" (Query.first (q |> Query.where (fun x -> I.(x > Expr.int 7))));
  check_sq "any" (Query.any q);
  check_sq "any empty" (Query.any (ints [||]));
  check_sq "exists true" (Query.exists (fun x -> I.(x = Expr.int 9)) q);
  check_sq "exists false" (Query.exists (fun x -> I.(x = Expr.int 99)) q);
  check_sq "for_all" (Query.for_all (fun x -> I.(x >= Expr.int 0)) q);
  check_sq "contains" (Query.contains (Expr.int 7) q);
  check_sq "aggregate" (Query.aggregate ~seed:(Expr.int 1) ~step:(fun a x -> I.(a + (x * Expr.int 2))) q);
  check_sq "aggregate_full"
    (Query.aggregate_full ~seed:(Expr.int 0) ~step:(fun a x -> I.(a + x))
       ~result:(fun a -> I.(a * Expr.int 7)) q);
  check_sq "sum after pipeline"
    (Query.sum_int
       (q |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0)) |> Query.select (fun x -> I.(x * x))))

let test_map_scalar () =
  let q = ints sample_ints |> Query.where (fun x -> I.(x > Expr.int 2)) in
  check_sq "map_scalar over sum"
    (Query.sum_int q |> Query.map_scalar (fun s -> I.(s * Expr.int 3)));
  check_sq "map_scalar over count"
    (Query.count q |> Query.map_scalar (fun c -> Expr.Pair (c, c)));
  check_sq "map_scalar over min (empty raises through)"
    (Query.min_elt (ints [||]) |> Query.map_scalar (fun m -> I.(m + Expr.int 1)));
  (* As a nested subquery post-processing (what the textual front end
     produces for embedded aggregates). *)
  check_q "select_sq with map_scalar"
    (ints [| 1; 2; 3 |]
    |> Query.select_sq (fun x ->
           Query.sum_int (Query.range ~start:0 ~count:4)
           |> Query.map_scalar (fun s -> I.(s + x))))

let test_empty_aggregates () =
  let e = ints [||] in
  check_sq "min empty" (Query.min_elt e);
  check_sq "max empty" (Query.max_elt e);
  check_sq "first empty" (Query.first e);
  check_sq "average empty" (Query.average (floats [||]));
  check_sq "min_by empty" (Query.min_by (fun x -> x) e);
  check_sq "min filtered-to-empty"
    (Query.min_elt (ints sample_ints |> Query.where (fun x -> I.(x > Expr.int 100))))

let test_nested_aggregate_positions () =
  (* Aggregates over nested queries: the outer Agg's update sits in the
     innermost loop (section 5's Sum-of-SelectMany example). *)
  check_sq "sum of cartesian"
    (Query.sum_int
       (ints [| 1; 2; 3 |]
       |> Query.select_many (fun x ->
              ints [| 10; 20 |] |> Query.select (fun y -> I.(x * y)))));
  check_sq "count of nested filtered"
    (Query.count
       (ints sample_ints
       |> Query.select_many (fun x ->
              Query.range ~start:0 ~count:5 |> Query.where (fun y -> I.(y < x)))));
  check_sq "min_by over subquery sums"
    (Query.min_by
       (fun p -> Expr.Snd p)
       (ints [| 3; 1; 2 |]
       |> Query.select_sq (fun x ->
              Query.range ~start:0 ~count:3
              |> Query.aggregate_full ~seed:(Expr.int 0)
                   ~step:(fun a y -> I.(a + (y * x)))
                   ~result:(fun a -> Expr.Pair (x, a)))))

(* Random pipelines over int arrays: all four implementations agree. *)
let random_query_agree =
  QCheck.Test.make ~name:"random pipelines agree across all backends" ~count:20
    (QCheck.make Plan_gen.pipeline)
    (fun plan ->
      let q = Plan_gen.build plan in
      let expected = Reference.to_list q in
      List.for_all
        (fun b -> Steno.to_list ~backend:b q = expected)
        backends)

let random_scalar_agree =
  let open QCheck in
  let wrap_gen =
    Gen.oneofl
      [
        (fun q -> `I (Query.sum_int q));
        (fun q -> `I (Query.count q));
        (fun q -> `I (Query.min_elt q));
        (fun q -> `I (Query.max_elt q));
        (fun q -> `B (Query.any q));
        (fun q -> `B (Query.exists (fun x -> I.(x > Expr.int 10)) q));
        (fun q -> `B (Query.for_all (fun x -> I.(x >= Expr.int 0)) q));
        (fun q -> `I (Query.first q));
      ]
  in
  let gen = Gen.(pair wrap_gen (array_size (int_bound 10) (int_bound 30))) in
  Test.make ~name:"random scalar queries agree across all backends" ~count:20
    (make gen)
    (fun (wrap, data) ->
      let base = ints data |> Query.where (fun x -> I.(x mod Expr.int 2 = Expr.int 0)) in
      let agree : type s. s Query.sq -> bool =
       fun sq ->
        let expected =
          match Reference.scalar sq with
          | v -> Ok v
          | exception Iterator.No_such_element -> Error `Empty
        in
        List.for_all
          (fun b ->
            let got =
              match Steno.scalar ~backend:b sq with
              | v -> Ok v
              | exception Iterator.No_such_element -> Error `Empty
            in
            got = expected)
          backends
      in
      match wrap base with `I sq -> agree sq | `B sq -> agree sq)

let random_float_pipelines_agree =
  let open QCheck in
  let op_gen =
    Gen.oneof
      [
        Gen.map
          (fun k q ->
            Query.select (fun x -> I.(x +. Expr.float (float_of_int k))) q)
          Gen.small_int;
        Gen.map
          (fun k q ->
            Query.select
              (fun x -> I.(x *. Expr.float (float_of_int Stdlib.(1 + (k mod 3)))))
              q)
          Gen.small_int;
        Gen.return (fun q -> Query.select (fun x -> I.(x *. x)) q);
        Gen.map
          (fun k q ->
            Query.where
              (fun x -> I.(x > Expr.float (float_of_int Stdlib.(k mod 10))))
              q)
          Gen.small_int;
        Gen.map (fun n q -> Query.take (n mod 10) q) Gen.small_int;
        Gen.return (fun q -> Query.order_by (fun x -> x) q);
      ]
  in
  let gen =
    Gen.(
      pair
        (list_size (int_bound 4) op_gen)
        (array_size (int_bound 12) (map float_of_int (int_bound 40))))
  in
  Test.make ~name:"random float pipelines agree (sum)" ~count:20 (make gen)
    (fun (ops, data) ->
      let q = List.fold_left (fun q op -> op q) (floats data) ops in
      let sq = Query.sum_float q in
      let expected = Reference.scalar sq in
      List.for_all
        (fun b ->
          Float.abs (Steno.scalar ~backend:b sq -. expected)
          <= 1e-9 *. Float.max 1.0 (Float.abs expected))
        backends)

let () =
  Alcotest.run "backends"
    [
      ( "differential",
        [
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "stateful preds" `Quick test_stateful_preds;
          Alcotest.test_case "indexed ops" `Quick test_indexed_ops;
          Alcotest.test_case "positional aggregates" `Quick test_positional_aggregates;
          Alcotest.test_case "sources" `Quick test_sources;
          Alcotest.test_case "sinks" `Quick test_sinks;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "nested" `Quick test_nested;
          Alcotest.test_case "join strategies" `Quick test_join_strategies;
          Alcotest.test_case "key edges int" `Quick test_key_edges_int;
          Alcotest.test_case "key edges float" `Quick test_key_edges_float;
          Alcotest.test_case "key edges string" `Quick test_key_edges_string;
          Alcotest.test_case "key edges pair" `Quick test_key_edges_pair;
          Alcotest.test_case "sorted group agg" `Quick test_sorted_group_agg;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "map_scalar" `Quick test_map_scalar;
          Alcotest.test_case "empty aggregates" `Quick test_empty_aggregates;
          Alcotest.test_case "nested aggregates" `Quick test_nested_aggregate_positions;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "dense keys" `Quick test_dense_keys;
          Alcotest.test_case "dense joins" `Quick test_dense_joins;
          Alcotest.test_case "wrapping keys" `Quick test_wrapping_keys;
          Alcotest.test_case "masked filters" `Quick test_masked_filters;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest random_query_agree;
          QCheck_alcotest.to_alcotest random_scalar_agree;
          QCheck_alcotest.to_alcotest random_float_pipelines_agree;
        ] );
    ]
