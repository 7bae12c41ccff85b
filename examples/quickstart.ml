(* Quickstart: build a declarative query with the pipeline builders,
   inspect what Steno does with it, and run it on every backend.

   Run with: dune exec examples/quickstart.exe *)

module I = Expr.Infix
open Query.Pipe

let () =
  (* The motivating query of the paper's section 2:
       from x in xs where x % 2 = 0 select x * x *)
  let xs = Array.init 20 (fun i -> i) in
  let even_squares =
    ints xs
    |> where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
    |> select (fun x -> I.(x * x))
  in

  Format.printf "Operator chain:   %a@." Query.pp even_squares;
  Printf.printf "QUIL sentence:    %s\n\n" (Steno.quil even_squares);

  Printf.printf "Generated code:\n%s\n" (Steno.generated_source even_squares);

  let show name arr =
    Printf.printf "%-18s [%s]\n" name
      (String.concat "; " (Array.to_list (Array.map string_of_int arr)))
  in
  show "LINQ (iterators):" (Steno.to_array ~backend:Steno.Linq even_squares);
  show "Fused (closures):" (Steno.to_array ~backend:Steno.Fused even_squares);
  if Steno.native_available () then begin
    let p = Steno.prepare ~backend:Steno.Native even_squares in
    show "Steno (native):  " (Steno.Prepared.run p);
    let info = Steno.Prepared.compile_info p in
    Printf.printf
      "\nOne-off optimization cost: %.1f ms (codegen %.2f ms, compile+load \
       %.1f ms)\n"
      info.Steno.prepare_ms info.Steno.codegen_ms info.Steno.compile_ms;
    (* A structurally identical query over different data reuses the
       compiled plugin (the paper's cached query object, section 7.1). *)
    let ys = Array.init 1000 (fun i -> 1000 - i) in
    let same_shape =
      ints ys
      |> where (fun x -> I.(x mod Expr.int 2 = Expr.int 0))
      |> select (fun x -> I.(x * x))
    in
    let p2 = Steno.prepare ~backend:Steno.Native same_shape in
    Printf.printf "Second query with the same shape: cache hit = %b\n"
      (Steno.Prepared.compile_info p2).Steno.cache_hit
  end
  else print_endline "(native backend unavailable: no compile worker)";

  (* A redundant operator chain: the algebraic optimizer fuses the
     stacked Wheres and Takes before any backend sees the plan. *)
  let redundant =
    ints xs
    |> where (fun x -> I.(x >= Expr.int 2))
    |> where (fun x -> I.(x < Expr.int 18))
    |> take 10 |> take 5
  in
  let ex = Steno.Engine.explain (Steno.default_engine ()) redundant in
  Printf.printf "\nOptimizer on a redundant chain (%d -> %d operators):\n%s"
    ex.Steno.Engine.operators_before ex.Steno.Engine.operators_after
    (Steno.Engine.explain_to_string ex);

  (* A scalar query: sum of squares (Fig. 1). *)
  let sum_sq =
    floats (Array.init 1000 float_of_int)
    |> select (fun x -> I.(x *. x))
    |> sum_float
  in
  Printf.printf "\nSum of squares of 0..999 = %.0f\n" (Steno.scalar sum_sq)
