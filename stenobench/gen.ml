(* The seeded query generator shared by every workload that prepares
   queries it has not seen before (cold-prepare, warm-restart and the cold
   requests of serve-mixed).

   Draw [i] of stream [seed] depends only on [(seed, i)], so two processes
   that walk the same stream build identical queries: the warm-restart
   set-up populates the plugin store from one process and the measured
   passes look the same plans up from others.  Every draw starts with a
   [select] carrying a literal unique to [i], so no two draws share
   generated source and each one compiles.  Element types stay [int] from
   source to sink, which keeps results exactly comparable with
   [Reference]; no draw can raise (no [min]/[max]/[first] terminals). *)

module I = Expr.Infix

type query =
  | Rows of int Query.t
  | Scalar of int Query.sq

type draw = { index : int; query : query }

let rows = 256

let int_array rng n bound = Array.init n (fun _ -> Random.State.int rng bound)

(* One operator of the generated pipeline.  [select_many] multiplies the
   row count by the inner array's length, so a draw uses it at most once. *)
let operator rng ~many_used : (int Query.t -> int Query.t) * bool =
  let r = Random.State.int rng in
  let choice = r (if many_used then 9 else 10) in
  let op : int Query.t -> int Query.t =
    match choice with
    | 0 ->
      let m = 2 + r 5 in
      let k = r m in
      Query.where (fun x -> I.(x mod Expr.int m <> Expr.int k))
    | 1 ->
      let a = 1 + r 9 in
      let b = r 1000 in
      Query.select (fun x ->
          I.(((x * Expr.int a) + Expr.int b) mod Expr.int 1000))
    | 2 -> Query.take (8 + r 200)
    | 3 -> Query.skip (r 40)
    | 4 ->
      let c = r 1000 in
      Query.take_while (fun x -> I.(x <> Expr.int c))
    | 5 -> Query.distinct
    | 6 ->
      let k = 2 + r 11 in
      let order = if r 2 = 0 then Query.Ascending else Query.Descending in
      Query.order_by ~order (fun x -> I.(x mod Expr.int k))
    | 7 ->
      let g = 2 + r 30 in
      fun q ->
        Query.group_by (fun x -> I.(x mod Expr.int g)) q
        |> Query.select (fun grp ->
               I.((Expr.Fst grp * Expr.int 1000)
                  + Expr.Array_length (Expr.Snd grp)))
    | 8 ->
      (* Inner keys [y mod 64] are distinct, so each outer row matches at
         most once. *)
      let inner = Array.init 32 (fun j -> j + (64 * r 15)) in
      Query.join
        ~inner:(Query.of_array Ty.Int inner)
        ~outer_key:(fun x -> I.(x mod Expr.int 64))
        ~inner_key:(fun y -> I.(y mod Expr.int 64))
        ~result:(fun x y -> I.((x + y) mod Expr.int 1000))
    | _ ->
      let inner = int_array rng 3 1000 in
      Query.select_many (fun x ->
          Query.of_array Ty.Int inner
          |> Query.select (fun y -> I.((x + y) mod Expr.int 1000)))
  in
  (op, choice = 9)

let terminal rng ~kind (q : int Query.t) : query =
  match kind with
  | 0 | 1 -> Rows q
  | 2 -> Scalar (Query.sum_int q)
  | 3 -> Scalar (Query.count q)
  | _ ->
    let seed = Random.State.int rng 1000 in
    Scalar
      (Query.aggregate ~seed:(Expr.int seed)
         ~step:(fun acc x -> I.(((acc * Expr.int 31) + x) mod Expr.int 1_000_003))
         q)

let draw ~seed index =
  let rng = Random.State.make [| 0x57e0; seed; index |] in
  let data = int_array rng rows 1000 in
  let unique = 1_000_000 + index in
  let a = 1 + Random.State.int rng 9 in
  let first =
    Query.of_array Ty.Int data
    |> Query.select (fun x ->
           I.(((x * Expr.int a) + Expr.int unique) mod Expr.int 1000))
  in
  (* 2 to 6 operators in all, counting the unique-literal select.  The
     count and the terminal's kind cycle with the index, so every 25
     consecutive draws hold each combination once and the mix of query
     sizes does not change from seed to seed; the seed picks the
     operators, literals and data.  (Set-up draws use negative indices.) *)
  let slot = ((index mod 25) + 25) mod 25 in
  let extra = 1 + (slot mod 5) in
  let rec build q n many_used =
    if n = 0 then q
    else
      let op, many = operator rng ~many_used in
      build (op q) (n - 1) (many_used || many)
  in
  { index; query = terminal rng ~kind:(slot / 5) (build first extra false) }

(* The draw's generated OCaml source: the plan text that decides the
   plugin cache key, literals included. *)
let source d =
  match d.query with
  | Rows q -> Steno.generated_source q
  | Scalar q -> Steno.generated_source_scalar q
