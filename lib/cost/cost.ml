(* Per-plan runtime statistics.  See cost.mli for the design notes. *)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* Predicate digests: a readable rendering, since [stenoc cost] prints
   them.  Variable ids are globally unique per [Expr.fresh_var] call, so
   two structurally identical predicates built separately never share
   ids; the rendering renames every id to its first-occurrence index,
   making it alpha-invariant.  Captured values render as their type
   only: a predicate over different data shares one digest. *)

type fpctx = {
  buf : Buffer.t;
  vars : (int, int) Hashtbl.t;
  mutable next : int;
}

let fpctx_create () =
  { buf = Buffer.create 256; vars = Hashtbl.create 16; next = 0 }

let fp_var ctx (v : _ Expr.var) =
  let idx =
    match Hashtbl.find_opt ctx.vars v.Expr.id with
    | Some i -> i
    | None ->
      let i = ctx.next in
      ctx.next <- i + 1;
      Hashtbl.add ctx.vars v.Expr.id i;
      i
  in
  Buffer.add_string ctx.buf "v";
  Buffer.add_string ctx.buf (string_of_int idx)

let fp_str ctx s = Buffer.add_string ctx.buf s

let rec fp_expr : type a. fpctx -> a Expr.t -> unit =
 fun ctx e ->
  let p = fp_str ctx in
  match e with
  | Expr.Var v -> fp_var ctx v
  | Expr.Const_unit -> p "()"
  | Expr.Const_bool b -> p (if b then "true" else "false")
  | Expr.Const_int i ->
    p "(int ";
    p (string_of_int i);
    p ")"
  | Expr.Const_float f ->
    p "(float ";
    p (string_of_float f);
    p ")"
  | Expr.Const_string s ->
    p "(string ";
    p (String.escaped s);
    p ")"
  | Expr.Capture (ty, _) ->
    p "(capture ";
    p (Ty.to_string ty);
    p ")"
  | Expr.If (c, t, e') ->
    p "(if ";
    fp_expr ctx c;
    p " ";
    fp_expr ctx t;
    p " ";
    fp_expr ctx e';
    p ")"
  | Expr.Let (v, rhs, body) ->
    p "(let ";
    fp_var ctx v;
    p " ";
    fp_expr ctx rhs;
    p " ";
    fp_expr ctx body;
    p ")"
  | Expr.Pair (a, b) ->
    p "(pair ";
    fp_expr ctx a;
    p " ";
    fp_expr ctx b;
    p ")"
  | Expr.Fst e' ->
    p "(fst ";
    fp_expr ctx e';
    p ")"
  | Expr.Snd e' ->
    p "(snd ";
    fp_expr ctx e';
    p ")"
  | Expr.Triple (a, b, c) ->
    p "(triple ";
    fp_expr ctx a;
    p " ";
    fp_expr ctx b;
    p " ";
    fp_expr ctx c;
    p ")"
  | Expr.Proj3_1 e' ->
    p "(p31 ";
    fp_expr ctx e';
    p ")"
  | Expr.Proj3_2 e' ->
    p "(p32 ";
    fp_expr ctx e';
    p ")"
  | Expr.Proj3_3 e' ->
    p "(p33 ";
    fp_expr ctx e';
    p ")"
  | Expr.Prim1 (op, a) ->
    p "(";
    p (Prim.name1 op);
    p " ";
    fp_expr ctx a;
    p ")"
  | Expr.Prim2 (op, a, b) ->
    p "(";
    p (Prim.name2 op);
    p " ";
    fp_expr ctx a;
    p " ";
    fp_expr ctx b;
    p ")"
  | Expr.Array_get (arr, i) ->
    p "(get ";
    fp_expr ctx arr;
    p " ";
    fp_expr ctx i;
    p ")"
  | Expr.Array_length arr ->
    p "(len ";
    fp_expr ctx arr;
    p ")"
  | Expr.Apply (f, x) ->
    p "(apply ";
    fp_expr ctx f;
    p " ";
    fp_expr ctx x;
    p ")"

let fp_lam ctx (l : (_, _) Expr.lam) =
  fp_str ctx "(lam ";
  fp_var ctx l.Expr.param;
  fp_str ctx " ";
  fp_expr ctx l.Expr.body;
  fp_str ctx ")"

let pred_digest (l : (_, bool) Expr.lam) =
  let ctx = fpctx_create () in
  fp_lam ctx l;
  Buffer.contents ctx.buf

let pred_label (l : (_, bool) Expr.lam) =
  let ctx = fpctx_create () in
  (* Pre-register the parameter so the body renders with v0 bound, then
     show the body alone: the (lam v0 ...) wrapper is noise here. *)
  fp_var ctx l.Expr.param;
  Buffer.clear ctx.buf;
  fp_expr ctx l.Expr.body;
  let s = Buffer.contents ctx.buf in
  if String.length s <= 48 then s else String.sub s 0 45 ^ "..."

(* Plan keys.  One compact walk serves two tables: the statistics store
   ([plan_key]: a capture is its type only, so one plan over different
   data shares statistics) and the engine's plan memo ([shape]: a
   capture also carries its alias class, and a captured source array its
   length, because those are the only facts about captured values the
   optimizer, the checks and code generation read).

   The encoding is prefix-free: one tag byte per node (tags are unique
   within the expression, query and type alphabets, and a node's
   position says which alphabet applies), then the node's children in a
   fixed order; names and strings are length-prefixed, integers binary.
   Variables are renumbered by first occurrence, where their type is
   written too, so alpha-equivalent plans share a key and every
   sub-term's type follows from the key. *)

type enc = {
  b : Buffer.t;
  mutable vars : (int * int) list;  (* variable id -> index *)
  mutable nvars : int;
  values : bool;  (* [shape]: alias classes and source lengths *)
  mutable caps : Obj.t list;  (* one value per alias class, newest first *)
  mutable ncaps : int;
  mutable sized : int list;
}

let tag e c = Buffer.add_char e.b c

let rec uint e n =
  if n < 0x80 then Buffer.add_uint8 e.b n
  else begin
    Buffer.add_uint8 e.b (n land 0x7f lor 0x80);
    uint e (n lsr 7)
  end

let str e s =
  uint e (String.length s);
  Buffer.add_string e.b s

let rec enc_ty : type a. enc -> a Ty.t -> unit =
 fun e t ->
  match t with
  | Ty.Unit -> tag e 'u'
  | Ty.Bool -> tag e 'b'
  | Ty.Int -> tag e 'i'
  | Ty.Float -> tag e 'f'
  | Ty.String -> tag e 's'
  | Ty.Pair (a, b) ->
    tag e 'p';
    enc_ty e a;
    enc_ty e b
  | Ty.Triple (a, b, c) ->
    tag e 't';
    enc_ty e a;
    enc_ty e b;
    enc_ty e c
  | Ty.Array a ->
    tag e 'a';
    enc_ty e a
  | Ty.List a ->
    tag e 'l';
    enc_ty e a
  | Ty.Option a ->
    tag e 'o';
    enc_ty e a
  | Ty.Func (a, b) ->
    tag e 'F';
    enc_ty e a;
    enc_ty e b

let enc_var e (v : _ Expr.var) =
  let rec find = function
    | [] -> None
    | (id, i) :: rest -> if id = v.Expr.id then Some i else find rest
  in
  match find e.vars with
  | Some i -> uint e i
  | None ->
    let i = e.nvars in
    e.vars <- (v.Expr.id, i) :: e.vars;
    e.nvars <- i + 1;
    uint e i;
    enc_ty e v.Expr.var_ty

(* Captures are grouped by physical identity, as [Expr.alpha_equal]
   compares them; with the type written beside each occurrence this also
   fixes which captures [Expr.Capture_table] merges (same type, same
   value).  Classes are numbered by first occurrence. *)
let capture_class e v =
  let r = Obj.repr v in
  let rec find i = function
    | [] -> None
    | x :: rest -> if x == r then Some i else find (i - 1) rest
  in
  match find (e.ncaps - 1) e.caps with
  | Some i -> i
  | None ->
    e.caps <- r :: e.caps;
    e.ncaps <- e.ncaps + 1;
    e.ncaps - 1

let rec enc_expr : type a. enc -> a Expr.t -> unit =
 fun e x ->
  match x with
  | Expr.Var v ->
    tag e 'v';
    enc_var e v
  | Expr.Const_unit -> tag e '0'
  | Expr.Const_bool b -> tag e (if b then 'T' else 'F')
  | Expr.Const_int i ->
    tag e 'i';
    Buffer.add_int64_le e.b (Int64.of_int i)
  | Expr.Const_float f ->
    tag e 'f';
    Buffer.add_int64_le e.b (Int64.bits_of_float f)
  | Expr.Const_string s ->
    tag e 's';
    str e s
  | Expr.Capture (ty, v) ->
    tag e 'c';
    enc_ty e ty;
    if e.values then uint e (capture_class e v)
  | Expr.If (c, a, b) ->
    tag e '?';
    enc_expr e c;
    enc_expr e a;
    enc_expr e b
  | Expr.Let (v, rhs, body) ->
    tag e 'L';
    enc_var e v;
    enc_expr e rhs;
    enc_expr e body
  | Expr.Pair (a, b) ->
    tag e 'p';
    enc_expr e a;
    enc_expr e b
  | Expr.Fst a ->
    tag e '<';
    enc_expr e a
  | Expr.Snd a ->
    tag e '>';
    enc_expr e a
  | Expr.Triple (a, b, c) ->
    tag e 't';
    enc_expr e a;
    enc_expr e b;
    enc_expr e c
  | Expr.Proj3_1 a ->
    tag e '1';
    enc_expr e a
  | Expr.Proj3_2 a ->
    tag e '2';
    enc_expr e a
  | Expr.Proj3_3 a ->
    tag e '3';
    enc_expr e a
  | Expr.Prim1 (op, a) ->
    tag e 'u';
    str e (Prim.name1 op);
    enc_expr e a
  | Expr.Prim2 (op, a, b) ->
    tag e 'b';
    str e (Prim.name2 op);
    enc_expr e a;
    enc_expr e b
  | Expr.Array_get (a, i) ->
    tag e 'g';
    enc_expr e a;
    enc_expr e i
  | Expr.Array_length a ->
    tag e 'n';
    enc_expr e a
  | Expr.Apply (f, a) ->
    tag e 'A';
    enc_expr e f;
    enc_expr e a

let enc_lam e (l : (_, _) Expr.lam) =
  enc_var e l.Expr.param;
  enc_expr e l.Expr.body

let enc_lam2 e (l : (_, _, _) Expr.lam2) =
  enc_var e l.Expr.param1;
  enc_var e l.Expr.param2;
  enc_expr e l.Expr.body2

let rec enc_query : type a. enc -> a Query.t -> unit =
 fun e q ->
  match q with
  | Query.Of_array (ty, arr) -> (
    tag e 'a';
    enc_ty e ty;
    enc_expr e arr;
    match arr with
    | Expr.Capture (_, xs) when e.values ->
      e.sized <- capture_class e xs :: e.sized;
      uint e (Array.length xs)
    | _ -> ())
  | Query.Range (start, count) ->
    tag e 'r';
    enc_expr e start;
    enc_expr e count
  | Query.Repeat (ty, v, count) ->
    tag e 'R';
    enc_ty e ty;
    enc_expr e v;
    enc_expr e count
  | Query.Select (q0, l) ->
    tag e 's';
    enc_query e q0;
    enc_lam e l
  | Query.Select_i (q0, l) ->
    tag e 'S';
    enc_query e q0;
    enc_lam2 e l
  | Query.Select_q (q0, v, sq) ->
    tag e 'x';
    enc_query e q0;
    enc_var e v;
    enc_sq e sq
  | Query.Where (q0, l) ->
    tag e 'w';
    enc_query e q0;
    enc_lam e l
  | Query.Where_i (q0, l) ->
    tag e 'W';
    enc_query e q0;
    enc_lam2 e l
  | Query.Where_q (q0, v, sq) ->
    tag e 'y';
    enc_query e q0;
    enc_var e v;
    enc_sq e sq
  | Query.Take (q0, n) ->
    tag e 't';
    enc_query e q0;
    enc_expr e n
  | Query.Skip (q0, n) ->
    tag e 'k';
    enc_query e q0;
    enc_expr e n
  | Query.Take_while (q0, l) ->
    tag e 'T';
    enc_query e q0;
    enc_lam e l
  | Query.Skip_while (q0, l) ->
    tag e 'K';
    enc_query e q0;
    enc_lam e l
  | Query.Select_many (q0, v, inner) ->
    tag e 'm';
    enc_query e q0;
    enc_var e v;
    enc_query e inner
  | Query.Select_many_result (q0, v, inner, l) ->
    tag e 'M';
    enc_query e q0;
    enc_var e v;
    enc_query e inner;
    enc_lam2 e l
  | Query.Join (outer, inner, ko, ki, sel) ->
    tag e 'j';
    enc_query e outer;
    enc_query e inner;
    enc_lam e ko;
    enc_lam e ki;
    enc_lam2 e sel
  | Query.Group_by (q0, k) ->
    tag e 'g';
    enc_query e q0;
    enc_lam e k
  | Query.Group_by_elem (q0, k, el) ->
    tag e 'G';
    enc_query e q0;
    enc_lam e k;
    enc_lam e el
  | Query.Group_by_agg (q0, k, seed, step) ->
    tag e 'h';
    enc_query e q0;
    enc_lam e k;
    enc_expr e seed;
    enc_lam2 e step
  | Query.Order_by (q0, k, ord) ->
    tag e (match ord with Query.Ascending -> 'o' | Query.Descending -> 'O');
    enc_query e q0;
    enc_lam e k
  | Query.Distinct q0 ->
    tag e 'd';
    enc_query e q0
  | Query.Rev q0 ->
    tag e 'v';
    enc_query e q0
  | Query.Materialize q0 ->
    tag e 'z';
    enc_query e q0

and enc_sq : type s. enc -> s Query.sq -> unit =
 fun e sq ->
  match sq with
  | Query.Aggregate (q0, seed, step) ->
    tag e 'a';
    enc_query e q0;
    enc_expr e seed;
    enc_lam2 e step
  | Query.Aggregate_full (q0, seed, step, sel) ->
    tag e 'A';
    enc_query e q0;
    enc_expr e seed;
    enc_lam2 e step;
    enc_lam e sel
  | Query.Aggregate_combinable (q0, seed, step, _combine) ->
    (* The combiner is an opaque host closure that only the parallel
       layer calls; it contributes nothing to the key. *)
    tag e 'C';
    enc_query e q0;
    enc_expr e seed;
    enc_lam2 e step
  | Query.Sum_int q0 ->
    tag e 's';
    enc_query e q0
  | Query.Sum_float q0 ->
    tag e 'S';
    enc_query e q0
  | Query.Count q0 ->
    tag e 'n';
    enc_query e q0
  | Query.Average q0 ->
    tag e 'v';
    enc_query e q0
  | Query.Min q0 ->
    tag e 'm';
    enc_query e q0
  | Query.Max q0 ->
    tag e 'M';
    enc_query e q0
  | Query.Min_by (q0, k) ->
    tag e 'b';
    enc_query e q0;
    enc_lam e k
  | Query.Max_by (q0, k) ->
    tag e 'B';
    enc_query e q0;
    enc_lam e k
  | Query.First q0 ->
    tag e 'f';
    enc_query e q0
  | Query.Last q0 ->
    tag e 'l';
    enc_query e q0
  | Query.Element_at (q0, i) ->
    tag e 'e';
    enc_query e q0;
    enc_expr e i
  | Query.Any q0 ->
    tag e 'y';
    enc_query e q0
  | Query.Exists (q0, l) ->
    tag e 'x';
    enc_query e q0;
    enc_lam e l
  | Query.For_all (q0, l) ->
    tag e 'r';
    enc_query e q0;
    enc_lam e l
  | Query.Contains (q0, x) ->
    tag e 'c';
    enc_query e q0;
    enc_expr e x
  | Query.Map_scalar (sq0, l) ->
    tag e 'p';
    enc_sq e sq0;
    enc_lam e l

(* The first byte holds the flags the key covers, the second the plan
   kind. *)
let encode (type r) ~values ~flags (r : r Query.root) =
  let e =
    {
      b = Buffer.create 128;
      vars = [];
      nvars = 0;
      values;
      caps = [];
      ncaps = 0;
      sized = [];
    }
  in
  Buffer.add_uint8 e.b flags;
  (match r with
  | Query.Rows q ->
    tag e 'Q';
    enc_query e q
  | Query.Scalar sq ->
    tag e 'S';
    enc_sq e sq);
  e

let plan_key ~optimize r =
  Buffer.contents (encode ~values:false ~flags:(Bool.to_int optimize) r).b

type shape = { key : string; captures : Obj.t array; sized : int list }

let shape ~optimize ~strict r =
  let flags = 4 lor (Bool.to_int strict lsl 1) lor Bool.to_int optimize in
  let e = encode ~values:true ~flags r in
  {
    key = Buffer.contents e.b;
    captures = Array.of_list (List.rev e.caps);
    sized = e.sized;
  }

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type pred_obs = { mutable ob_tested : int; mutable ob_passed : int }

type entry = {
  mutable e_epoch : int;
  mutable e_runs : int;
  mutable e_source_rows : int;
  e_preds : (string, pred_obs) Hashtbl.t;
}

type t = { mu : Mutex.t; tbl : (string, entry) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 16 }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let entry_of t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e -> e
  | None ->
    let e =
      { e_epoch = 0; e_runs = 0; e_source_rows = 0;
        e_preds = Hashtbl.create 4 }
    in
    Hashtbl.add t.tbl key e;
    e

type pred_delta = { pd_digest : string; pd_tested : int; pd_passed : int }

let record t ~key ~source_rows deltas =
  with_lock t (fun () ->
      let e = entry_of t key in
      e.e_runs <- e.e_runs + 1;
      e.e_source_rows <- e.e_source_rows + max 0 source_rows;
      List.iter
        (fun d ->
          let ob =
            match Hashtbl.find_opt e.e_preds d.pd_digest with
            | Some ob -> ob
            | None ->
              let ob = { ob_tested = 0; ob_passed = 0 } in
              Hashtbl.add e.e_preds d.pd_digest ob;
              ob
          in
          ob.ob_tested <- ob.ob_tested + max 0 d.pd_tested;
          ob.ob_passed <- ob.ob_passed + max 0 d.pd_passed)
        deltas)

let retire t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> ()
      | Some e ->
        e.e_epoch <- e.e_epoch + 1;
        e.e_runs <- 0;
        e.e_source_rows <- 0;
        Hashtbl.reset e.e_preds)

let epoch t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> 0
      | Some e -> e.e_epoch)

let runs t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> 0
      | Some e -> e.e_runs)

let avg_source_rows t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> None
      | Some e ->
        (* Zero-row guard: no runs yet means no average to report. *)
        if e.e_runs <= 0 then None
        else Some (float_of_int e.e_source_rows /. float_of_int e.e_runs))

let observed t ~key ~digest =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> None
      | Some e ->
        (match Hashtbl.find_opt e.e_preds digest with
        | None -> None
        | Some ob -> Some (ob.ob_tested, ob.ob_passed)))

let selectivity t ~key ~digest =
  match observed t ~key ~digest with
  | None -> None
  | Some (tested, passed) ->
    (* Zero-row guard: a predicate never tested on a row (empty source,
       upstream filter passed nothing) has no observable selectivity. *)
    if tested <= 0 then None
    else Some (float_of_int passed /. float_of_int tested)

type pred_snapshot = {
  sn_digest : string;
  sn_tested : int;
  sn_passed : int;
}

type snapshot = {
  sn_epoch : int;
  sn_runs : int;
  sn_source_rows : int;
  sn_preds : pred_snapshot list;
}

let snapshot t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> None
      | Some e ->
        let preds =
          Hashtbl.fold
            (fun digest ob acc ->
              { sn_digest = digest;
                sn_tested = ob.ob_tested;
                sn_passed = ob.ob_passed }
              :: acc)
            e.e_preds []
          |> List.sort (fun a b -> compare a.sn_digest b.sn_digest)
        in
        Some
          { sn_epoch = e.e_epoch;
            sn_runs = e.e_runs;
            sn_source_rows = e.e_source_rows;
            sn_preds = preds })

(* ------------------------------------------------------------------ *)
(* Heuristics                                                          *)
(* ------------------------------------------------------------------ *)

let chunk_rows = 4096

let partitions_for_rows ~workers rows =
  let workers = max 1 workers in
  if rows <= 0 then 1
  else max 1 (min workers ((rows + chunk_rows - 1) / chunk_rows))
