(* Random int pipelines, shared by the differential tests: up to four
   operators applied in order to a short int array.  Each operator's
   literal ends up in the generated code, so most plans compile to a
   plugin of their own. *)

module I = Expr.Infix

let op : (int Query.t -> int Query.t) QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun k q -> Query.select (fun x -> I.(x + Expr.int k)) q) small_int;
      map
        (fun k q -> Query.select (fun x -> I.(x * Expr.int Stdlib.(1 + (k mod 3)))) q)
        small_int;
      map
        (fun k q ->
          Query.where (fun x -> I.(x mod Expr.int Stdlib.(2 + (k mod 3)) = Expr.int 0)) q)
        small_int;
      map (fun n q -> Query.take (n mod 12) q) small_int;
      map (fun n q -> Query.skip (n mod 6) q) small_int;
      return (fun q -> Query.distinct q);
      return (fun q -> Query.rev q);
      return (fun q -> Query.order_by (fun x -> I.(x mod Expr.int 5)) q);
      return (fun q -> Query.materialize q);
      map
        (fun k q -> Query.take_while (fun x -> I.(not (x = Expr.int Stdlib.(k mod 7)))) q)
        small_int;
    ]

let pipeline =
  QCheck.Gen.(pair (list_size (int_bound 4) op) (array_size (int_bound 12) (int_bound 20)))

let build (ops, data) = List.fold_left (fun q op -> op q) (Query.of_array Ty.Int data) ops

(* Pipelines of up to eight operators biased toward what the rewrite
   rules fire on: decidable predicates, redundant Distinct, Rev and
   OrderBy pairs, stacked truncations, and [range] sources (distinct and
   sorted).  Shared by the optimizer and translation-validation
   properties; [op] and [pipeline] above stay as they are, since the
   encoder oracle's corpus is drawn from them. *)
let redundant_op : (int Query.t -> int Query.t) QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun k q -> Query.select (fun x -> I.(x + Expr.int k)) q) small_int;
      map
        (fun k q ->
          Query.where (fun x -> I.(x mod Expr.int Stdlib.(2 + (k mod 3)) = Expr.int 0)) q)
        small_int;
      return (fun q -> Query.where (fun _ -> Expr.bool true) q);
      return (fun q -> Query.where (fun _ -> Expr.bool false) q);
      return (fun q -> Query.where (fun x -> I.(x mod Expr.int 10 < Expr.int 10)) q);
      map (fun n q -> Query.take (n mod 12) q) small_int;
      map (fun n q -> Query.skip (n mod 6) q) small_int;
      return (fun q -> Query.distinct q);
      return (fun q -> Query.distinct (Query.distinct q));
      return (fun q -> Query.rev q);
      return (fun q -> Query.rev (Query.rev q));
      return (fun q -> Query.order_by (fun x -> x) q);
      return (fun q -> Query.order_by (fun x -> I.(x mod Expr.int 5)) q);
      return (fun q -> Query.materialize q);
      return (fun q -> Query.take_while (fun _ -> Expr.bool true) q);
    ]

let redundant_source : int Query.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (Query.of_array Ty.Int) (array_size (int_bound 12) (int_bound 20));
        map (fun n -> Query.range ~start:0 ~count:(n mod 16)) (int_bound 1000);
      ])

let redundant : int Query.t QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun (ops, src) -> List.fold_left (fun q op -> op q) src ops)
      (pair (list_size (int_bound 8) redundant_op) redundant_source))
