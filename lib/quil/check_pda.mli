(** QUIL well-formedness: the paper's pushdown automaton (section 4.2,
    Fig. 6), the library's one recognizer of the grammar.

    It linearizes a chain into the six-symbol token stream (plus
    explicit brackets for nested sub-queries) and runs the PDA
    transition relation over it.  Code generation refuses any chain it
    rejects, the engine asserts acceptance at prepare time
    ([Check.assert_well_formed]), and the token-level entry point {!run}
    lets tests feed the automaton raw symbol strings that no builder
    could produce.  Re-exported as [Check.Pda]. *)

(** Whether a (sub-)chain produces a collection or a scalar: [Ret] after
    a [Sink]/[Trans]/[Pred] body accepts a collection, [Ret] immediately
    after [Agg] accepts a scalar. *)
type kind =
  | Collection
  | Scalar

type token =
  | Src
  | Trans
  | Pred
  | Sink
  | Agg
  | Ret
  | Open of kind
      (** Start of a nested sub-query; carries the kind the embedding
          operator requires it to produce ([Scalar] for nested
          Trans/Pred, [Collection] for SelectMany and the hash-join
          build side). *)
  | Close

val token_string : token -> string

val tokens_of_chain : Quil.chain -> token list
(** Flatten a chain to the symbol stream the PDA consumes, nested
    sub-queries bracketed by [Open]/[Close]. *)

val run : token list -> (kind, string) result
(** The transition relation itself.  States: expecting [Src]; in the
    operator body ([Trans]/[Pred]/[Sink] self-loop); after [Agg] (only
    [Ret] may follow); accepted.  [Open] pushes the required kind and
    restarts in the initial state; [Close] pops and checks the kind the
    sub-query actually produced.  Accepts iff the stream ends in the
    accepting state with an empty stack. *)

val accepts : Quil.chain -> (kind, string) result
(** [run (tokens_of_chain c)]. *)
