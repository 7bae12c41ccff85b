(* The encoder oracle's corpus: random pipelines from [Plan_gen], the
   shapes of the seven stenobench kernels, and the queries of the
   quickstart and cartesian examples.

   Each query first runs on the Native backend, through the compile
   worker and so through the encoder, and must equal [Reference]; its
   plugin source then goes to stdout, for [oracle.exe] to assemble both
   in-process and with [as].  Output: the marshalled [(name, source)
   list], after the runtime interface the sources compile against. *)

module I = Expr.Infix

let engine =
  lazy
    (Steno.Engine.create
       Steno.Config.(default |> with_backend Steno.Native |> with_fallback false))

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline s)
    fmt

let native_ok name compile_info =
  if compile_info.Steno.backend <> Steno.Native then
    fail "%s: ran on %s, not Native" name (Steno.backend_name compile_info.Steno.backend)

let close x y = Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs y)

type case =
  | Rows : string * 'a Query.t * ('a list -> 'a list -> bool) -> case
  | Scalar : string * 's Query.sq * ('s -> 's -> bool) -> case

let run_case = function
  | Rows (name, q, same) ->
    let p = Steno.Engine.prepare (Lazy.force engine) q in
    native_ok name (Steno.Prepared.compile_info p);
    if not (same (Array.to_list (Steno.Prepared.run p)) (Reference.to_list q)) then
      fail "%s: Native differs from Reference" name;
    (name, Steno.generated_source q)
  | Scalar (name, sq, same) ->
    let p = Steno.Engine.prepare_scalar (Lazy.force engine) sq in
    native_ok name (Steno.Prepared_scalar.compile_info p);
    if not (same (Steno.Prepared_scalar.run p) (Reference.scalar sq)) then
      fail "%s: Native differs from Reference" name;
    (name, Steno.generated_source_scalar sq)

let plans =
  QCheck.Gen.generate ~rand:(Random.State.make [| 26 |]) ~n:220 Plan_gen.pipeline
  |> List.mapi (fun i plan ->
         Rows (Printf.sprintf "plan %d" i, Plan_gen.build plan, ( = )))

(* stenobench's [kernels] queries, over small inputs of the same kinds. *)
let kernels =
  let rng = Random.State.make [| 0x4b |] in
  let floats n = Array.init n (fun _ -> Random.State.float rng 1.) in
  let ints n = Array.init n (fun _ -> Random.State.int rng 1_000_000) in
  let fsrc xs = Query.of_array Ty.Float xs and isrc xs = Query.of_array Ty.Int xs in
  let xs = floats 512 and ys = floats 64 and ns = ints 512 in
  let bins = 64 in
  let bin x =
    Expr.Prim2
      ( Prim.Max_int,
        Expr.int 0,
        Expr.Prim2
          ( Prim.Min_int,
            Expr.int (bins - 1),
            Expr.Prim1 (Prim.Truncate, I.(x *. Expr.float (float_of_int bins))) ) )
  in
  let inner = Array.init 256 (fun j -> j + (4_096 * Random.State.int rng 200)) in
  [
    Scalar ("kernel sum", Query.sum_float (fsrc xs), close);
    Scalar
      ( "kernel sumsq",
        fsrc xs |> Query.select (fun x -> I.(x *. x)) |> Query.sum_float,
        close );
    Scalar
      ( "kernel cart",
        fsrc xs
        |> Query.select_many (fun x -> fsrc ys |> Query.select (fun y -> I.(x *. y)))
        |> Query.sum_float,
        close );
    Rows
      ( "kernel group",
        fsrc xs
        |> Query.group_by bin
        |> Query.select (fun g -> Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g))),
        fun a b -> List.sort compare a = List.sort compare b );
    Scalar
      ( "kernel where3",
        isrc ns
        |> Query.where (fun x -> I.(x mod Expr.int 3 <> Expr.int 0))
        |> Query.where (fun x -> I.(x mod Expr.int 5 <> Expr.int 0))
        |> Query.where (fun x -> I.(x > Expr.int 500_000))
        |> Query.count,
        ( = ) );
    Scalar
      ( "kernel join",
        isrc ns
        |> Query.join ~inner:(isrc inner)
             ~outer_key:(fun x -> I.(x mod Expr.int 4_096))
             ~inner_key:(fun y -> I.(y mod Expr.int 4_096))
             ~result:(fun x y -> I.(x + y))
        |> Query.sum_int,
        ( = ) );
    Scalar ("kernel exists", isrc ns |> Query.exists (fun x -> I.(x < Expr.int 0)), ( = ));
  ]

(* examples/quickstart.ml and examples/cartesian.ml. *)
let examples =
  let open Query.Pipe in
  let xs = Array.init 20 Fun.id in
  let fs n k =
    Array.init n (fun i -> float_of_int (i + k) /. float_of_int (97 - (4 * k)))
  in
  let pairs = Query.of_array (Ty.Pair (Ty.Int, Ty.Float)) in
  [
    Rows
      ( "quickstart even squares",
        ints xs
        |> where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
        |> select (fun x -> I.(x * x)),
        ( = ) );
    Rows
      ( "quickstart redundant",
        ints xs
        |> where (fun x -> I.(x >= Expr.int 2))
        |> where (fun x -> I.(x < Expr.int 18))
        |> take 10 |> take 5,
        ( = ) );
    Scalar
      ( "quickstart sum of squares",
        floats (Array.init 1000 float_of_int) |> select (fun x -> I.(x *. x)) |> sum_float,
        close );
    Scalar
      ( "cartesian product",
        Query.of_array Ty.Float (fs 30 1)
        |> Query.select_many (fun x ->
               Query.of_array Ty.Float (fs 10 2)
               |> Query.select_many (fun y ->
                      Query.of_array Ty.Float (fs 5 3)
                      |> Query.select (fun z -> I.(x *. y *. z))))
        |> Query.sum_float,
        close );
    Scalar
      ( "cartesian join",
        pairs (Array.init 500 (fun i -> (i mod 40, float_of_int i)))
        |> Query.join
             ~inner:(pairs (Array.init 300 (fun i -> (i mod 40, float_of_int (i * 2)))))
             ~outer_key:(fun l -> Expr.Fst l)
             ~inner_key:(fun r -> Expr.Fst r)
             ~result:(fun l r -> I.(Expr.Snd l +. Expr.Snd r))
        |> Query.sum_float,
        close );
  ]

let () =
  if not (Steno.native_available ()) then
    prerr_endline "corpus: no native compiler, so no Native run is held against Reference";
  let cases = plans @ kernels @ examples in
  let sources =
    List.map
      (fun c ->
        if Steno.native_available () then run_case c
        else
          match c with
          | Rows (name, q, _) -> (name, Steno.generated_source q)
          | Scalar (name, sq, _) -> (name, Steno.generated_source_scalar sq))
      cases
  in
  if !failures > 0 then begin
    Printf.eprintf "corpus: %d of %d queries failed\n" !failures (List.length cases);
    exit 1
  end;
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (Steno_rt_cmi.contents, sources) [];
  flush stdout
