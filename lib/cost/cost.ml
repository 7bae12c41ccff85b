(* Per-plan runtime statistics.  See cost.mli for the design notes. *)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* Variable ids are globally unique per [Expr.fresh_var] call, so two
   structurally identical plans built separately never share ids.  The
   fingerprint renames every id to its first-occurrence index during the
   walk, making the rendering alpha-invariant.  Captured values render
   as their type only: a plan over different data (or a re-built
   identical plan whose captures are fresh) must share one entry. *)

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

let fp_lam2 ctx (l : (_, _, _) Expr.lam2) =
  fp_str ctx "(lam2 ";
  fp_var ctx l.Expr.param1;
  fp_str ctx " ";
  fp_var ctx l.Expr.param2;
  fp_str ctx " ";
  fp_expr ctx l.Expr.body2;
  fp_str ctx ")"

let fp_order ctx = function
  | Query.Ascending -> fp_str ctx "asc"
  | Query.Descending -> fp_str ctx "desc"

let rec fp_query : type a. fpctx -> a Query.t -> unit =
 fun ctx q ->
  let p = fp_str ctx in
  match q with
  | Query.Of_array (ty, arr) ->
    p "(of-array ";
    p (Ty.to_string ty);
    p " ";
    fp_expr ctx arr;
    p ")"
  | Query.Range (start, count) ->
    p "(range ";
    fp_expr ctx start;
    p " ";
    fp_expr ctx count;
    p ")"
  | Query.Repeat (ty, v, count) ->
    p "(repeat ";
    p (Ty.to_string ty);
    p " ";
    fp_expr ctx v;
    p " ";
    fp_expr ctx count;
    p ")"
  | Query.Select (q0, l) ->
    p "(select ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx l;
    p ")"
  | Query.Select_i (q0, l) ->
    p "(select-i ";
    fp_query ctx q0;
    p " ";
    fp_lam2 ctx l;
    p ")"
  | Query.Select_q (q0, v, sq) ->
    p "(select-q ";
    fp_query ctx q0;
    p " ";
    fp_var ctx v;
    p " ";
    fp_sq ctx sq;
    p ")"
  | Query.Where (q0, l) ->
    p "(where ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx l;
    p ")"
  | Query.Where_i (q0, l) ->
    p "(where-i ";
    fp_query ctx q0;
    p " ";
    fp_lam2 ctx l;
    p ")"
  | Query.Where_q (q0, v, sq) ->
    p "(where-q ";
    fp_query ctx q0;
    p " ";
    fp_var ctx v;
    p " ";
    fp_sq ctx sq;
    p ")"
  | Query.Take (q0, n) ->
    p "(take ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx n;
    p ")"
  | Query.Skip (q0, n) ->
    p "(skip ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx n;
    p ")"
  | Query.Take_while (q0, l) ->
    p "(take-while ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx l;
    p ")"
  | Query.Skip_while (q0, l) ->
    p "(skip-while ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx l;
    p ")"
  | Query.Select_many (q0, v, inner) ->
    p "(select-many ";
    fp_query ctx q0;
    p " ";
    fp_var ctx v;
    p " ";
    fp_query ctx inner;
    p ")"
  | Query.Select_many_result (q0, v, inner, l) ->
    p "(select-many-result ";
    fp_query ctx q0;
    p " ";
    fp_var ctx v;
    p " ";
    fp_query ctx inner;
    p " ";
    fp_lam2 ctx l;
    p ")"
  | Query.Join (outer, inner, ko, ki, sel) ->
    p "(join ";
    fp_query ctx outer;
    p " ";
    fp_query ctx inner;
    p " ";
    fp_lam ctx ko;
    p " ";
    fp_lam ctx ki;
    p " ";
    fp_lam2 ctx sel;
    p ")"
  | Query.Group_by (q0, k) ->
    p "(group-by ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx k;
    p ")"
  | Query.Group_by_elem (q0, k, e) ->
    p "(group-by-elem ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx k;
    p " ";
    fp_lam ctx e;
    p ")"
  | Query.Group_by_agg (q0, k, seed, step) ->
    p "(group-by-agg ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx k;
    p " ";
    fp_expr ctx seed;
    p " ";
    fp_lam2 ctx step;
    p ")"
  | Query.Order_by (q0, k, ord) ->
    p "(order-by ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx k;
    p " ";
    fp_order ctx ord;
    p ")"
  | Query.Distinct q0 ->
    p "(distinct ";
    fp_query ctx q0;
    p ")"
  | Query.Rev q0 ->
    p "(rev ";
    fp_query ctx q0;
    p ")"
  | Query.Materialize q0 ->
    p "(materialize ";
    fp_query ctx q0;
    p ")"

and fp_sq : type s. fpctx -> s Query.sq -> unit =
 fun ctx sq ->
  let p = fp_str ctx in
  match sq with
  | Query.Aggregate (q0, seed, step) ->
    p "(aggregate ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx seed;
    p " ";
    fp_lam2 ctx step;
    p ")"
  | Query.Aggregate_full (q0, seed, step, sel) ->
    p "(aggregate-full ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx seed;
    p " ";
    fp_lam2 ctx step;
    p " ";
    fp_lam ctx sel;
    p ")"
  | Query.Aggregate_combinable (q0, seed, step, _combine) ->
    (* The combiner is an opaque host closure; like a capture it
       contributes no structure to the key. *)
    p "(aggregate-combinable ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx seed;
    p " ";
    fp_lam2 ctx step;
    p ")"
  | Query.Sum_int q0 ->
    p "(sum-int ";
    fp_query ctx q0;
    p ")"
  | Query.Sum_float q0 ->
    p "(sum-float ";
    fp_query ctx q0;
    p ")"
  | Query.Count q0 ->
    p "(count ";
    fp_query ctx q0;
    p ")"
  | Query.Average q0 ->
    p "(average ";
    fp_query ctx q0;
    p ")"
  | Query.Min q0 ->
    p "(min ";
    fp_query ctx q0;
    p ")"
  | Query.Max q0 ->
    p "(max ";
    fp_query ctx q0;
    p ")"
  | Query.Min_by (q0, k) ->
    p "(min-by ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx k;
    p ")"
  | Query.Max_by (q0, k) ->
    p "(max-by ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx k;
    p ")"
  | Query.First q0 ->
    p "(first ";
    fp_query ctx q0;
    p ")"
  | Query.Last q0 ->
    p "(last ";
    fp_query ctx q0;
    p ")"
  | Query.Element_at (q0, i) ->
    p "(element-at ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx i;
    p ")"
  | Query.Any q0 ->
    p "(any ";
    fp_query ctx q0;
    p ")"
  | Query.Exists (q0, l) ->
    p "(exists ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx l;
    p ")"
  | Query.For_all (q0, l) ->
    p "(for-all ";
    fp_query ctx q0;
    p " ";
    fp_lam ctx l;
    p ")"
  | Query.Contains (q0, e) ->
    p "(contains ";
    fp_query ctx q0;
    p " ";
    fp_expr ctx e;
    p ")"
  | Query.Map_scalar (sq0, l) ->
    p "(map-scalar ";
    fp_sq ctx sq0;
    p " ";
    fp_lam ctx l;
    p ")"

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

let plan_key (type r) ~optimize (r : r Query.root) =
  let ctx = fpctx_create () in
  fp_str ctx (if optimize then "O1:" else "O0:");
  (match r with
  | Query.Rows q ->
    fp_str ctx "Q:";
    fp_query ctx q
  | Query.Scalar sq ->
    fp_str ctx "S:";
    fp_sq ctx sq);
  Buffer.contents ctx.buf

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
