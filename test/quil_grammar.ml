(* The QUIL grammar (Fig. 4) as a structural walk over the chain:
   [(query) ::= Src (Trans | Pred | Sink | (query))* Agg? Ret],
   recursively for nested chains, where a nested scalar chain must end in
   [Agg].  The library recognizes chains only with the pushdown automaton
   ([Check.Pda]); this independent implementation is the oracle the
   tests hold the automaton to. *)

let rec validate (chain : Quil.chain) =
  let rec go = function
    | [] -> Ok ()
    | Quil.Agg _ :: (_ :: _ as rest) ->
      Error
        (Printf.sprintf
           "Agg must be the penultimate symbol (followed only by Ret), but \
            %d operators follow it"
           (List.length rest))
    | Quil.Agg _ :: [] -> Ok ()
    | Quil.Trans _ :: rest
    | Quil.Trans_idx _ :: rest
    | Quil.Pred _ :: rest
    | Quil.Pred_idx _ :: rest
    | Quil.Pred_stateful _ :: rest
    | Quil.Sink _ :: rest ->
      go rest
    | Quil.Trans_nested n :: rest | Quil.Pred_nested n :: rest -> (
      match validate n.Quil.inner_s with
      | Error _ as e -> e
      | Ok () ->
        if Quil.returns_scalar n.Quil.inner_s then go rest
        else
          Error "nested Trans/Pred sub-query must return a scalar (end in Agg)")
    | Quil.Nested n :: rest -> (
      match validate n.Quil.inner with
      | Error _ as e -> e
      | Ok () ->
        if Quil.returns_scalar n.Quil.inner then
          Error "SelectMany sub-query must return a collection, not a scalar"
        else go rest)
    | Quil.Hash_join j :: rest -> (
      match validate j.Quil.join_inner with
      | Error _ as e -> e
      | Ok () ->
        if Quil.returns_scalar j.Quil.join_inner then
          Error "hash-join build side must be a collection"
        else go rest)
  in
  go chain.Quil.ops
