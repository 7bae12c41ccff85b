type render = Expr.name_env -> Expr.Capture_table.t -> string

type lam1 = {
  bind1 : string -> Expr.name_env -> Expr.name_env;
  body1 : render;
}

type lam2 = {
  bind2 : string -> string -> Expr.name_env -> Expr.name_env;
  body2 : render;
}

type src =
  | Src_array of { elem_ty : string; array : render }
  | Src_range of { start : render; count : render }
  | Src_repeat of { value : render; count : render }

type stateful_pred =
  | Take_n of render
  | Skip_n of render
  | Take_while_p of lam1
  | Skip_while_p of lam1

type sink =
  | Group_by_sink of { key : lam1; key_ty : string }
  | Group_by_elem_sink of { key : lam1; key_ty : string; elem : lam1 }
  | Group_by_agg_sink of {
      key : lam1;
      key_ty : string;
      seed : render;
      step : lam2;
    }
  | Group_by_agg_sorted_sink of {
      key : lam1;
      key_default : string;
      seed : render;
      step : lam2;
    }
  | Order_by_sink of { key : lam1; descending : bool }
  | Distinct_sink of { elem_ty : string }
  | Reverse_sink
  | To_array_sink

type acc = {
  seed : render;
  step : accs:string list -> elem:string -> render;
  first : (elem:string -> render) option;
}

type agg = {
  accs : acc list;
  first_element : bool;
  require_nonempty : bool;
  early_exit : (accs:string list -> render) option;
  result : accs:string list -> render;
}

type op =
  | Trans of lam1
  | Trans_nested of nested_scalar
  | Pred of lam1
  | Pred_nested of nested_scalar
  | Pred_stateful of stateful_pred
  | Trans_idx of lam2
  | Pred_idx of lam2
  | Nested of nested
  | Hash_join of hash_join
  | Sink of sink
  | Agg of agg

and hash_join = {
  join_inner : chain;
  join_inner_key : lam1;
  join_outer_key : lam1;
  join_key_ty : string;
  join_result : lam2;
}

and nested = {
  bind_outer : string -> Expr.name_env -> Expr.name_env;
  inner : chain;
  result2 : lam2 option;
}

and nested_scalar = {
  bind_outer_s : string -> Expr.name_env -> Expr.name_env;
  inner_s : chain;
}

and chain = {
  src : src;
  ops : op list;
}

let returns_scalar chain =
  match List.rev chain.ops with
  | Agg _ :: _ -> true
  | _ -> false

let rec symbol_string chain =
  String.concat " " (("Src" :: List.map op_symbol chain.ops) @ [ "Ret" ])

and op_symbol = function
  | Trans _ -> "Trans"
  | Trans_idx _ -> "Trans"
  | Trans_nested n -> Printf.sprintf "Trans[%s]" (symbol_string n.inner_s)
  | Pred _ -> "Pred"
  | Pred_idx _ -> "Pred"
  | Pred_nested n -> Printf.sprintf "Pred[%s]" (symbol_string n.inner_s)
  | Pred_stateful _ -> "Pred"
  | Nested n -> Printf.sprintf "[%s]" (symbol_string n.inner)
  | Hash_join j -> Printf.sprintf "HashJoin[%s]" (symbol_string j.join_inner)
  | Sink (Group_by_sink _) -> "Sink:GroupBy"
  | Sink (Group_by_elem_sink _) -> "Sink:GroupBy"
  | Sink (Group_by_agg_sink _) -> "Sink:GroupByAggregate"
  | Sink (Group_by_agg_sorted_sink _) -> "Sink:GroupByAggregateSorted"
  | Sink (Order_by_sink _) -> "Sink:OrderBy"
  | Sink (Distinct_sink _) -> "Sink:Distinct"
  | Sink Reverse_sink -> "Sink:Reverse"
  | Sink To_array_sink -> "Sink:ToArray"
  | Agg _ -> "Agg"

let rec operator_count chain =
  let op_count = function
    | Trans _ | Trans_idx _ | Pred _ | Pred_idx _ | Pred_stateful _
    | Sink _ | Agg _ ->
      1
    | Trans_nested n | Pred_nested n -> 1 + operator_count n.inner_s
    | Nested n -> 1 + operator_count n.inner
    | Hash_join j -> 1 + operator_count j.join_inner
  in
  1 + List.fold_left (fun acc op -> acc + op_count op) 0 chain.ops

let map_nested f = function
  | Trans_nested n -> Trans_nested { n with inner_s = f n.inner_s }
  | Pred_nested n -> Pred_nested { n with inner_s = f n.inner_s }
  | Nested n -> Nested { n with inner = f n.inner }
  | Hash_join j -> Hash_join { j with join_inner = f j.join_inner }
  | (Trans _ | Trans_idx _ | Pred _ | Pred_idx _ | Pred_stateful _
    | Sink _ | Agg _) as op ->
    op
