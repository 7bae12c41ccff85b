exception Invalid_chain of string

let empty_sequence_prefix = "steno: sequence contains no elements"

let empty_sequence_message = empty_sequence_prefix

type output = {
  source : string;
  table : Expr.Capture_table.t;
  symbols : string;
}

(* Profiling support: when generating under [?probe], the emitted code
   increments one cell of a captured [int array] per operator {e edge} —
   after the Src element binding and after each top-level operator — so a
   profiled run yields exact rows-in/rows-out per operator.  The counter
   array reaches the plugin through an ordinary capture slot, and the
   increments are part of the source text, so profiled and unprofiled
   compilations can never alias in the plugin cache. *)
type probe = {
  probe_rows : int array;  (* one cell per edge, mutated by the plugin *)
  probe_labels : string array;  (* edge labels, Src first *)
}

let probe_of_chain (chain : Quil.chain) =
  (* One edge per top-level operator that passes elements downstream; a
     terminal Agg produces a scalar, not an edge.  Nested chains run
     inside their enclosing operator and are not separate edges. *)
  let labels =
    "Src"
    :: List.filter_map
         (function Quil.Agg _ -> None | op -> Some (Quil.op_symbol op))
         chain.Quil.ops
  in
  {
    probe_rows = Array.make (List.length labels) 0;
    probe_labels = Array.of_list labels;
  }

(* Generation context: a name counter and the capture table that render
   closures register slots into; [probe_var]/[probe_on]/[next_edge] carry
   the profiling state ([probe_on] is cleared while generating nested
   chains, which are not top-level edges). *)
type ctx = {
  mutable counter : int;
  tbl : Expr.Capture_table.t;
  mutable probe_var : string option;
  mutable probe_on : bool;
  mutable next_edge : int;
}

let mark_edge ctx block =
  match ctx.probe_var with
  | Some var when ctx.probe_on ->
    let e = ctx.next_edge in
    ctx.next_edge <- e + 1;
    Block.linef block
      "Stdlib.Array.unsafe_set %s %d (Stdlib.Array.unsafe_get %s %d + 1);"
      var e var e
  | _ -> ()

(* A sink's edge is counted in one step at ω, where the materialized
   array's length is the row count. *)
let mark_edge_len ctx block arr =
  match ctx.probe_var with
  | Some var when ctx.probe_on ->
    let e = ctx.next_edge in
    ctx.next_edge <- e + 1;
    Block.linef block
      "Stdlib.Array.unsafe_set %s %d (Stdlib.Array.unsafe_get %s %d + \
       Stdlib.Array.length %s);"
      var e var e arr
  | _ -> ()

let with_probe_off ctx f =
  let saved = ctx.probe_on in
  ctx.probe_on <- false;
  let r = f () in
  ctx.probe_on <- saved;
  r

let fresh ctx prefix =
  let n = ctx.counter in
  ctx.counter <- n + 1;
  Printf.sprintf "__%s%d" prefix n

(* Exception constructors must be capitalized, so the break exceptions
   cannot share the [__]-prefixed namespace. *)
let fresh_exception ctx =
  let n = ctx.counter in
  ctx.counter <- n + 1;
  Printf.sprintf "Steno_brk%d" n

(* One level of the insertion-point stack (Fig. 9): the loop prelude,
   body and postlude of the innermost loop under construction, plus the
   local exception that breaks out of this loop (used by early-exiting
   operators: Take, First, Any, ...). *)
type frame = {
  alpha : Block.t;
  mu : Block.t;
  omega : Block.t;
  brk : string;
}

let render ctx nenv (r : Quil.render) = r nenv ctx.tbl

(* Whether the loop about to be opened must support breaking out early.
   The scan covers exactly the operators that execute inside this loop's
   frame: it stops at a sink (subsequent operators run in a fresh loop
   over the materialized collection) and does not descend into nested
   chains (those open their own loops). *)
let rec needs_break : Quil.op list -> bool = function
  | [] -> false
  | Quil.Pred_stateful (Quil.Take_n _ | Quil.Take_while_p _) :: _ -> true
  | Quil.Pred_stateful (Quil.Skip_n _ | Quil.Skip_while_p _) :: rest ->
    needs_break rest
  | Quil.Agg a :: _ -> a.Quil.early_exit <> None
  | Quil.Sink _ :: _ -> false
  | ( Quil.Trans _ | Quil.Trans_idx _ | Quil.Pred _ | Quil.Pred_idx _
    | Quil.Trans_nested _ | Quil.Pred_nested _ )
    :: rest ->
    needs_break rest
  | Quil.Nested _ :: rest -> needs_break rest
  | Quil.Hash_join _ :: rest -> needs_break rest

(* Where generation of an operator chain ends up (the PDA state at Ret):
   ITERATING exposes the current element inside the innermost loop body;
   AGGREGATING exposes the reduced value, bound in the loop postlude;
   SINKING exposes the materialized intermediate collection. *)
type final =
  | Final_iter of { elem : string; mu : Block.t }
  | Final_scalar of { var : string }
  | Final_array of { var : string }

(* Open a loop at insertion point [at], returning the new frame and the
   current-element variable: the Src transition. *)
let gen_loop ctx ~at ~breakable nenv (src : Quil.src) =
  let alpha = Block.inline at in
  let elem = fresh ctx "elem" in
  let ix = fresh ctx "ix" in
  let brk = if breakable then fresh_exception ctx else "" in
  let open_loop header bind_elem =
    (* The exception wrapper costs the optimizer (it defeats accumulator
       unboxing across the handler), so it is only emitted for chains
       containing an early-exiting operator. *)
    let loop =
      if breakable then begin
        Block.linef at "let exception %s in" brk;
        Block.line at "(try";
        let loop = Block.indented at in
        Block.linef at "with %s -> ());" brk;
        loop
      end
      else Block.inline at
    in
    Block.line loop header;
    let mu = Block.indented loop in
    Block.line mu bind_elem;
    Block.line loop "done;";
    let omega = Block.inline at in
    { alpha; mu; omega; brk }, elem
  in
  match src with
  | Quil.Src_array { elem_ty; array } ->
    let src_var = fresh ctx "src" in
    Block.linef alpha "let %s : %s array = %s in" src_var elem_ty
      (render ctx nenv array);
    open_loop
      (Printf.sprintf "for %s = 0 to Stdlib.Array.length %s - 1 do" ix
         src_var)
      (Printf.sprintf "let %s = Stdlib.Array.unsafe_get %s %s in" elem
         src_var ix)
  | Quil.Src_range { start; count } ->
    let start_var = fresh ctx "start" in
    let count_var = fresh ctx "count" in
    Block.linef alpha "let %s : int = %s in" start_var (render ctx nenv start);
    Block.linef alpha "let %s : int = %s in" count_var (render ctx nenv count);
    open_loop
      (Printf.sprintf "for %s = 0 to %s - 1 do" ix count_var)
      (Printf.sprintf "let %s = %s + %s in" elem start_var ix)
  | Quil.Src_repeat { value; count } ->
    let value_var = fresh ctx "value" in
    let count_var = fresh ctx "count" in
    Block.linef alpha "let %s = %s in" value_var (render ctx nenv value);
    Block.linef alpha "let %s : int = %s in" count_var (render ctx nenv count);
    open_loop
      (Printf.sprintf "for %s = 1 to %s do" ix count_var)
      (Printf.sprintf "let %s = %s in" elem value_var)

(* A loop over an already-materialized array variable (iterating a sink
   collection, or a flattened inner collection). *)
let gen_array_loop ctx ~at ~breakable var =
  let alpha = Block.inline at in
  let elem = fresh ctx "elem" in
  let ix = fresh ctx "ix" in
  let brk = if breakable then fresh_exception ctx else "" in
  let loop =
    if breakable then begin
      Block.linef at "let exception %s in" brk;
      Block.line at "(try";
      let loop = Block.indented at in
      Block.linef at "with %s -> ());" brk;
      loop
    end
    else Block.inline at
  in
  Block.linef loop "for %s = 0 to Stdlib.Array.length %s - 1 do" ix var;
  let mu = Block.indented loop in
  Block.linef mu "let %s = Stdlib.Array.unsafe_get %s %s in" elem var ix;
  Block.line loop "done;";
  let omega = Block.inline at in
  { alpha; mu; omega; brk }, elem

(* Render a one-parameter inlined lambda applied to the element. *)
let app1 ctx nenv (l : Quil.lam1) elem = l.Quil.body1 (l.Quil.bind1 elem nenv) ctx.tbl

let app2 ctx nenv (l : Quil.lam2) a b = l.Quil.body2 (l.Quil.bind2 a b nenv) ctx.tbl

(* Aggregation (Fig. 7a): declarations at α, update at µ, result bound at
   ω.  Returns the name holding the result. *)
let gen_agg ctx frame nenv elem (agg : Quil.agg) =
  let base = fresh ctx "agg" in
  let acc_vars =
    List.mapi (fun i _ -> Printf.sprintf "%s_%d" base i) agg.Quil.accs
  in
  let acc_exprs = List.map (fun v -> Printf.sprintf "(!%s)" v) acc_vars in
  List.iter2
    (fun var (acc : Quil.acc) ->
      Block.linef frame.alpha "let %s = ref (%s) in" var
        (render ctx nenv acc.Quil.seed))
    acc_vars agg.Quil.accs;
  let needs_flag = agg.Quil.first_element || agg.Quil.require_nonempty in
  let has_var = if needs_flag then fresh ctx "has" else "" in
  if needs_flag then Block.linef frame.alpha "let %s = ref false in" has_var;
  (* Update: compute every new accumulator value from the old ones before
     assigning, so multi-accumulator steps see a consistent snapshot. *)
  let emit_steps block =
    let temps =
      List.map2
        (fun (acc : Quil.acc) _ ->
          let t = fresh ctx "t" in
          t, acc)
        agg.Quil.accs acc_vars
    in
    List.iter
      (fun (t, (acc : Quil.acc)) ->
        Block.linef block "let %s = %s in" t
          (acc.Quil.step ~accs:acc_exprs ~elem nenv ctx.tbl))
      temps;
    List.iter2
      (fun var (t, _) -> Block.linef block "%s := %s;" var t)
      acc_vars temps
  in
  if agg.Quil.first_element then begin
    Block.linef frame.mu "if !%s then begin" has_var;
    let then_b = Block.indented frame.mu in
    emit_steps then_b;
    Block.line frame.mu "end else begin";
    let else_b = Block.indented frame.mu in
    List.iter2
      (fun var (acc : Quil.acc) ->
        match acc.Quil.first with
        | Some first -> Block.linef else_b "%s := %s;" var (first ~elem nenv ctx.tbl)
        | None ->
          Block.linef else_b "%s := %s;" var
            (acc.Quil.step ~accs:acc_exprs ~elem nenv ctx.tbl))
      acc_vars agg.Quil.accs;
    Block.linef else_b "%s := true;" has_var;
    Block.line frame.mu "end;"
  end
  else begin
    emit_steps frame.mu;
    if needs_flag then Block.linef frame.mu "%s := true;" has_var
  end;
  (match agg.Quil.early_exit with
  | Some cond ->
    Block.linef frame.mu "if %s then Stdlib.raise_notrace %s;"
      (cond ~accs:acc_exprs nenv ctx.tbl)
      frame.brk
  | None -> ());
  if agg.Quil.require_nonempty then
    Block.linef frame.omega
      "if not !%s then Stdlib.raise (Stdlib.Failure %S);" has_var
      empty_sequence_message;
  let ret = fresh ctx "ret" in
  Block.linef frame.omega "let %s = %s in" ret
    (agg.Quil.result ~accs:acc_exprs nenv ctx.tbl);
  ret

(* The hash table for keys of printed type [ty] (a sink's [key_ty]): the
   analog of the paper's [Dictionary<K,V>], a table precompiled once and
   specialized to the key type.  Int keys use the host's
   [Steno_rt.Int_tbl], which calls neither [caml_hash] nor the
   polymorphic [compare]; any other key type uses [Stdlib.Hashtbl].  Both
   modules share one API, so only the module path varies. *)
let table_module = function
  | "int" -> "Steno_rt.Int_tbl"
  | _ -> "Stdlib.Hashtbl"

(* Sink operators (Fig. 7b): accumulate at µ into state declared at α,
   materialize the intermediate collection at ω.  Returns the name of the
   materialized array. *)
let gen_sink ctx frame nenv elem (sink : Quil.sink) =
  let base = fresh ctx "sink" in
  let out = Printf.sprintf "%s_arr" base in
  (* Grouping: one cell per key, found with [find] (no option allocated
     per row); the order list holds each new key with its cell, so ω
     needs no second lookup. *)
  let group ~key_ty ~key ~hit ~miss ~finish =
    let tbl = table_module key_ty in
    Block.linef frame.alpha "let %s_tbl = %s.create 64 in" base tbl;
    Block.linef frame.alpha "let %s_order = ref [] in" base;
    let k = fresh ctx "k" in
    Block.linef frame.mu "let %s = %s in" k (app1 ctx nenv key elem);
    Block.linef frame.mu
      "(match %s.find %s_tbl %s with __cell -> %s | exception \
       Stdlib.Not_found -> let __cell = ref (%s) in %s.add %s_tbl %s __cell; \
       %s_order := (%s, __cell) :: !%s_order);"
      tbl base k hit miss tbl base k base k base;
    Block.linef frame.omega
      "let %s = Stdlib.Array.of_list (Stdlib.List.rev_map (fun (__k, __cell) \
       -> (__k, %s)) !%s_order) in"
      out finish base
  in
  (* GroupBy: each key's cell is a reversed bag of [stored] values. *)
  let bags ~key_ty ~key stored =
    group ~key_ty ~key
      ~hit:(Printf.sprintf "__cell := %s :: !__cell" stored)
      ~miss:(Printf.sprintf "[ %s ]" stored)
      ~finish:"Stdlib.Array.of_list (Stdlib.List.rev !__cell)"
  in
  (match sink with
  | Quil.Group_by_sink { key; key_ty } -> bags ~key_ty ~key elem
  | Quil.Group_by_elem_sink { key; key_ty; elem = e } ->
    bags ~key_ty ~key (app1 ctx nenv e elem)
  | Quil.Group_by_agg_sink { key; key_ty; seed; step } ->
    group ~key_ty ~key
      ~hit:(Printf.sprintf "__cell := %s" (app2 ctx nenv step "(!__cell)" elem))
      ~miss:
        (app2 ctx nenv step (Printf.sprintf "(%s)" (render ctx nenv seed)) elem)
      ~finish:"!__cell"
  | Quil.Group_by_agg_sorted_sink { key; key_default; seed; step } ->
    (* Input is sorted by the key: one sequential pass, one live key and
       one live accumulator; finished groups go straight to the output
       buffer. *)
    Block.linef frame.alpha "let %s_has = ref false in" base;
    Block.linef frame.alpha "let %s_key = ref (%s) in" base key_default;
    Block.linef frame.alpha "let %s_acc = ref (%s) in" base
      (render ctx nenv seed);
    Block.linef frame.alpha "let %s_buf = ref [] in" base;
    let k = fresh ctx "k" in
    Block.linef frame.mu "let %s = %s in" k (app1 ctx nenv key elem);
    Block.linef frame.mu "if not !%s_has then begin %s_has := true; %s_key \
                          := %s; %s_acc := %s end"
      base base base k base
      (app2 ctx nenv step (Printf.sprintf "(%s)" (render ctx nenv seed)) elem);
    Block.linef frame.mu "else if %s = !%s_key then %s_acc := %s" k base base
      (app2 ctx nenv step (Printf.sprintf "(!%s_acc)" base) elem);
    Block.linef frame.mu
      "else begin %s_buf := (!%s_key, !%s_acc) :: !%s_buf; %s_key := %s; \
       %s_acc := %s end;"
      base base base base base k base
      (app2 ctx nenv step (Printf.sprintf "(%s)" (render ctx nenv seed)) elem);
    Block.linef frame.omega
      "if !%s_has then %s_buf := (!%s_key, !%s_acc) :: !%s_buf;" base base
      base base base;
    Block.linef frame.omega
      "let %s = Stdlib.Array.of_list (Stdlib.List.rev !%s_buf) in" out base
  | Quil.Order_by_sink { key; descending } ->
    Block.linef frame.alpha "let %s_buf = ref [] in" base;
    Block.linef frame.mu "%s_buf := %s :: !%s_buf;" base elem base;
    let cmp =
      if descending then "Stdlib.compare __k2 __k1"
      else "Stdlib.compare __k1 __k2"
    in
    Block.linef frame.omega
      "let %s = let __arr = Stdlib.Array.of_list (Stdlib.List.rev !%s_buf) \
       in let __dec = Stdlib.Array.mapi (fun __i __x -> (%s, __i, __x)) \
       __arr in Stdlib.Array.sort (fun (__k1, __i1, _) (__k2, __i2, _) -> \
       let __c = %s in if __c <> 0 then __c else Stdlib.compare __i1 __i2) \
       __dec; Stdlib.Array.map (fun (_, _, __x) -> __x) __dec in"
      out base
      (app1 ctx nenv key "__x")
      cmp
  | Quil.Distinct_sink { elem_ty } ->
    let tbl = table_module elem_ty in
    Block.linef frame.alpha "let %s_tbl = %s.create 64 in" base tbl;
    Block.linef frame.alpha "let %s_buf = ref [] in" base;
    Block.linef frame.mu
      "if not (%s.mem %s_tbl %s) then begin %s.add %s_tbl %s (); %s_buf := \
       %s :: !%s_buf end;"
      tbl base elem tbl base elem base elem base;
    Block.linef frame.omega
      "let %s = Stdlib.Array.of_list (Stdlib.List.rev !%s_buf) in" out base
  | Quil.Reverse_sink ->
    Block.linef frame.alpha "let %s_buf = ref [] in" base;
    Block.linef frame.mu "%s_buf := %s :: !%s_buf;" base elem base;
    Block.linef frame.omega "let %s = Stdlib.Array.of_list !%s_buf in" out
      base
  | Quil.To_array_sink ->
    Block.linef frame.alpha "let %s_buf = ref [] in" base;
    Block.linef frame.mu "%s_buf := %s :: !%s_buf;" base elem base;
    Block.linef frame.omega
      "let %s = Stdlib.Array.of_list (Stdlib.List.rev !%s_buf) in" out base);
  out

(* The operator-chain transitions of the automaton. *)
let rec gen_ops ctx frame nenv elem (ops : Quil.op list) : final =
  match ops with
  | [] -> Final_iter { elem; mu = frame.mu }
  | Quil.Agg agg :: rest ->
    if rest <> [] then
      raise (Invalid_chain "Agg must be the last operator before Ret");
    let var = gen_agg ctx frame nenv elem agg in
    Final_scalar { var }
  | Quil.Trans lam :: rest ->
    let elem' = fresh ctx "elem" in
    Block.linef frame.mu "let %s = %s in" elem' (app1 ctx nenv lam elem);
    mark_edge ctx frame.mu;
    gen_ops ctx frame nenv elem' rest
  | Quil.Trans_idx lam2 :: rest ->
    (* Indexed transform: a position counter in the loop prelude. *)
    let idx = fresh ctx "pos" in
    Block.linef frame.alpha "let %s = ref (-1) in" idx;
    Block.linef frame.mu "Stdlib.incr %s;" idx;
    let elem' = fresh ctx "elem" in
    Block.linef frame.mu "let %s = %s in" elem'
      (app2 ctx nenv lam2 (Printf.sprintf "(!%s)" idx) elem);
    mark_edge ctx frame.mu;
    gen_ops ctx frame nenv elem' rest
  | Quil.Pred lam :: rest ->
    (* Fig. 6b: the paper emits [if (!p) continue]; structurally, the rest
       of the loop body moves inside the conditional instead. *)
    Block.linef frame.mu "if %s then begin" (app1 ctx nenv lam elem);
    let body = Block.indented frame.mu in
    Block.line frame.mu "end;";
    mark_edge ctx body;
    gen_ops ctx { frame with mu = body } nenv elem rest
  | Quil.Pred_idx lam2 :: rest ->
    let idx = fresh ctx "pos" in
    Block.linef frame.alpha "let %s = ref (-1) in" idx;
    Block.linef frame.mu "Stdlib.incr %s;" idx;
    Block.linef frame.mu "if %s then begin"
      (app2 ctx nenv lam2 (Printf.sprintf "(!%s)" idx) elem);
    let body = Block.indented frame.mu in
    Block.line frame.mu "end;";
    mark_edge ctx body;
    gen_ops ctx { frame with mu = body } nenv elem rest
  | Quil.Pred_stateful sp :: rest -> (
    match sp with
    | Quil.Take_n n ->
      let c = fresh ctx "taken" in
      let n_var = fresh ctx "take_n" in
      Block.linef frame.alpha "let %s : int = %s in" n_var (render ctx nenv n);
      Block.linef frame.alpha "let %s = ref 0 in" c;
      Block.linef frame.mu
        "if !%s >= %s then Stdlib.raise_notrace %s else Stdlib.incr %s;" c
        n_var frame.brk c;
      mark_edge ctx frame.mu;
      gen_ops ctx frame nenv elem rest
    | Quil.Skip_n n ->
      let c = fresh ctx "skipped" in
      let n_var = fresh ctx "skip_n" in
      Block.linef frame.alpha "let %s : int = %s in" n_var (render ctx nenv n);
      Block.linef frame.alpha "let %s = ref 0 in" c;
      Block.linef frame.mu "if !%s < %s then Stdlib.incr %s else begin" c
        n_var c;
      let body = Block.indented frame.mu in
      Block.line frame.mu "end;";
      mark_edge ctx body;
      gen_ops ctx { frame with mu = body } nenv elem rest
    | Quil.Take_while_p p ->
      Block.linef frame.mu "if not %s then Stdlib.raise_notrace %s;"
        (app1 ctx nenv p elem) frame.brk;
      mark_edge ctx frame.mu;
      gen_ops ctx frame nenv elem rest
    | Quil.Skip_while_p p ->
      let skipping = fresh ctx "skipping" in
      Block.linef frame.alpha "let %s = ref true in" skipping;
      Block.linef frame.mu "if !%s && %s then () else begin %s := false;"
        skipping (app1 ctx nenv p elem) skipping;
      let body = Block.indented frame.mu in
      Block.line frame.mu "end;";
      mark_edge ctx body;
      gen_ops ctx { frame with mu = body } nenv elem rest)
  | Quil.Sink sink :: rest -> (
    let arr = gen_sink ctx frame nenv elem sink in
    mark_edge_len ctx frame.omega arr;
    match rest with
    | [] -> Final_array { var = arr }
    | _ :: _ ->
      (* SINKING state: open a new loop over the materialized collection
         at ω and reset the insertion pointers relative to it. *)
      let frame', elem' =
        gen_array_loop ctx ~at:frame.omega ~breakable:(needs_break rest) arr
      in
      gen_ops ctx frame' nenv elem' rest)
  | Quil.Trans_nested ns :: rest ->
    let var =
      with_probe_off ctx (fun () -> gen_nested_scalar ctx frame nenv elem ns)
    in
    mark_edge ctx frame.mu;
    gen_ops ctx frame nenv var rest
  | Quil.Pred_nested ns :: rest ->
    let var =
      with_probe_off ctx (fun () -> gen_nested_scalar ctx frame nenv elem ns)
    in
    Block.linef frame.mu "if %s then begin" var;
    let body = Block.indented frame.mu in
    Block.line frame.mu "end;";
    mark_edge ctx body;
    gen_ops ctx { frame with mu = body } nenv elem rest
  | Quil.Hash_join j :: rest ->
    (* Build phase (once, in the loop prelude): index the inner chain's
       elements by key, preserving inner order within each bucket. *)
    let tbl = fresh ctx "jtbl" in
    let m = table_module j.Quil.join_key_ty in
    Block.linef frame.alpha "let %s = %s.create 64 in" tbl m;
    let build = Block.inline frame.alpha in
    let build_frame, build_elem =
      gen_loop ctx ~at:build
        ~breakable:(needs_break j.Quil.join_inner.Quil.ops)
        nenv j.Quil.join_inner.Quil.src
    in
    let add_to_table mu ielem =
      let k = fresh ctx "k" in
      Block.linef mu "let %s = %s in" k
        (app1 ctx nenv j.Quil.join_inner_key ielem);
      Block.linef mu
        "(match %s.find %s %s with __b -> __b := %s :: !__b | exception \
         Stdlib.Not_found -> %s.add %s %s (ref [ %s ]));"
        m tbl k ielem m tbl k ielem
    in
    (* The build side is a nested chain, not a top-level edge. *)
    (match
       with_probe_off ctx (fun () ->
           gen_ops ctx build_frame nenv build_elem j.Quil.join_inner.Quil.ops)
     with
    | Final_iter { elem = ie; mu = im } -> add_to_table im ie
    | Final_array { var } ->
      let f, e = gen_array_loop ctx ~at:build_frame.omega ~breakable:false var in
      add_to_table f.mu e
    | Final_scalar _ ->
      raise (Invalid_chain "hash-join build side returned a scalar"));
    Block.linef frame.alpha
      "%s.iter (fun _ __b -> __b := Stdlib.List.rev !__b) %s;" m tbl;
    (* Probe phase: per outer element, iterate the matching bucket. *)
    let bucket = fresh ctx "bucket" in
    Block.linef frame.mu
      "let %s = match %s.find %s %s with __b -> !__b | exception \
       Stdlib.Not_found -> [] in"
      bucket m tbl
      (app1 ctx nenv j.Quil.join_outer_key elem);
    let probe_elem = fresh ctx "elem" in
    Block.linef frame.mu "Stdlib.List.iter (fun %s ->" probe_elem;
    let body = Block.indented frame.mu in
    Block.linef frame.mu ") %s;" bucket;
    let joined = fresh ctx "elem" in
    Block.linef body "let %s = %s in" joined
      (app2 ctx nenv j.Quil.join_result elem probe_elem);
    mark_edge ctx body;
    gen_ops ctx { frame with mu = body } nenv joined rest
  | Quil.Nested n :: rest -> (
    (* SelectMany (Fig. 11): generate the inner loop inside the current
       loop body; the continuation of the outer chain consumes elements
       inside the inner loop body, while declarations and returns keep
       using the outer α and ω. *)
    let nenv' = n.Quil.bind_outer elem nenv in
    let inner_frame, inner_elem =
      gen_loop ctx ~at:frame.mu
        ~breakable:(needs_break n.Quil.inner.Quil.ops)
        nenv' n.Quil.inner.Quil.src
    in
    (* The inner chain's operators are not top-level edges; the Nested
       edge itself counts flattened elements at the continuation point. *)
    let inner_final =
      with_probe_off ctx (fun () ->
          gen_ops ctx inner_frame nenv' inner_elem n.Quil.inner.Quil.ops)
    in
    let continue_at mu inner_elem =
      let elem', mu' =
        match n.Quil.result2 with
        | None -> inner_elem, mu
        | Some res ->
          let e = fresh ctx "elem" in
          Block.linef mu "let %s = %s in" e (app2 ctx nenv res elem inner_elem);
          e, mu
      in
      mark_edge ctx mu';
      gen_ops ctx { frame with mu = mu' } nenv elem' rest
    in
    match inner_final with
    | Final_iter { elem = ie; mu = im } -> continue_at im ie
    | Final_array { var } ->
      (* The inner chain ended in a sink: its collection materializes once
         per outer element (in the inner ω, i.e. inside the outer µ); loop
         over it there. *)
      let f, e = gen_array_loop ctx ~at:inner_frame.omega ~breakable:false var in
      ignore f.alpha;
      continue_at f.mu e
    | Final_scalar _ ->
      raise (Invalid_chain "SelectMany sub-query returned a scalar"))

(* A nested scalar sub-query (Trans/Pred position, Fig. 10): the whole
   inner loop lives in the outer loop body, and the aggregate is bound in
   the inner postlude, which shares the outer body's scope. *)
and gen_nested_scalar ctx frame nenv elem (ns : Quil.nested_scalar) =
  let nenv' = ns.Quil.bind_outer_s elem nenv in
  let inner_frame, inner_elem =
    gen_loop ctx ~at:frame.mu
      ~breakable:(needs_break ns.Quil.inner_s.Quil.ops)
      nenv' ns.Quil.inner_s.Quil.src
  in
  match gen_ops ctx inner_frame nenv' inner_elem ns.Quil.inner_s.Quil.ops with
  | Final_scalar { var } -> var
  | Final_iter _ | Final_array _ ->
    raise (Invalid_chain "nested Trans/Pred sub-query must end in Agg")

let generate ?probe chain =
  (match Check_pda.accepts chain with
  | Ok _ -> ()
  | Error msg -> raise (Invalid_chain msg));
  let ctx =
    {
      counter = 0;
      tbl = Expr.Capture_table.create ();
      probe_var = None;
      probe_on = true;
      next_edge = 0;
    }
  in
  (match probe with
  | None -> ()
  | Some pr ->
    let slot =
      Expr.Capture_table.register ctx.tbl Ty.(Array Int) pr.probe_rows
    in
    ctx.probe_var <- Some (Expr.Capture_table.slot_name slot));
  let top = Block.create () in
  let captures_block = Block.inline top in
  let body = Block.inline top in
  let nenv = Expr.name_env_empty in
  let frame, elem =
    gen_loop ctx ~at:body
      ~breakable:(needs_break chain.Quil.ops)
      nenv chain.Quil.src
  in
  mark_edge ctx frame.mu;
  (match gen_ops ctx frame nenv elem chain.Quil.ops with
  | Final_scalar { var } ->
    Block.linef body "__result := Stdlib.Obj.repr %s;" var
  | Final_array { var } ->
    Block.linef body "__result := Stdlib.Obj.repr %s;" var
  | Final_iter { elem; mu } ->
    (* Collection result: materialize into an array (footnote 3). *)
    let buf = fresh ctx "out" in
    Block.linef frame.alpha "let %s = ref [] in" buf;
    Block.linef mu "%s := %s :: !%s;" buf elem buf;
    Block.linef body
      "__result := Stdlib.Obj.repr (Stdlib.Array.of_list (Stdlib.List.rev \
       !%s));"
      buf);
  (* Capture slots are known only now that every render has run. *)
  Array.iteri
    (fun i entry ->
      Block.line captures_block (Expr.Capture_table.slot_binding i entry))
    (Expr.Capture_table.entries ctx.tbl);
  let source =
    String.concat "\n"
      [
        "(* Generated by Steno - do not edit. *)";
        "[@@@ocaml.warning \"-a\"]";
        "";
        "exception Steno_result of Stdlib.Obj.t";
        "";
        "let __query (__env : Stdlib.Obj.t array) : Stdlib.Obj.t =";
        "  let _ = __env in";
        "  let __result = Stdlib.ref (Stdlib.Obj.repr ()) in";
        Block.render ~indent:1 top;
        "  !__result";
        "";
        "let () = Stdlib.raise (Steno_result (Stdlib.Obj.repr __query))";
        "";
      ]
  in
  { source; table = ctx.tbl; symbols = Quil.symbol_string chain }

let body_only output =
  (* Everything between the function header and the result read. *)
  let lines = String.split_on_char '\n' output.source in
  let rec drop_to_header = function
    | [] -> []
    | l :: rest ->
      if String.length l >= 11 && String.sub l 0 11 = "let __query" then rest
      else drop_to_header rest
  in
  let rec take_body acc = function
    | [] -> List.rev acc
    | l :: _ when String.trim l = "!__result" -> List.rev acc
    | l :: rest -> take_body (l :: acc) rest
  in
  String.concat "\n" (take_body [] (drop_to_header lines))
