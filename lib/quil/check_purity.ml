type purity =
  | Pure
  | Opaque

type census = {
  c_size : int;
  c_captures : int;
  c_applies : int;
  c_free_vars : int;
  c_cost : int;
}

let census e =
  let size = ref 0 in
  let captures = ref 0 in
  let applies = ref 0 in
  let cost = ref 0 in
  let rec go : type b. b Expr.t -> unit =
   fun e ->
    incr size;
    match e with
    | Expr.Var _ -> ()
    | Expr.Const_unit -> ()
    | Expr.Const_bool _ -> ()
    | Expr.Const_int _ -> ()
    | Expr.Const_float _ -> ()
    | Expr.Const_string _ -> ()
    | Expr.Capture _ -> incr captures
    | Expr.If (c, a, b) ->
      cost := !cost + 1;
      go c; go a; go b
    | Expr.Let (_, rhs, body) -> go rhs; go body
    | Expr.Pair (a, b) ->
      cost := !cost + 1;
      go a; go b
    | Expr.Fst a -> cost := !cost + 1; go a
    | Expr.Snd a -> cost := !cost + 1; go a
    | Expr.Triple (a, b, c) ->
      cost := !cost + 1;
      go a; go b; go c
    | Expr.Proj3_1 a -> cost := !cost + 1; go a
    | Expr.Proj3_2 a -> cost := !cost + 1; go a
    | Expr.Proj3_3 a -> cost := !cost + 1; go a
    | Expr.Prim1 (_, a) -> cost := !cost + 1; go a
    | Expr.Prim2 (_, a, b) ->
      cost := !cost + 1;
      go a; go b
    | Expr.Array_get (a, i) ->
      cost := !cost + 2;
      go a; go i
    | Expr.Array_length a -> cost := !cost + 1; go a
    | Expr.Apply (f, x) ->
      incr applies;
      cost := !cost + 10;
      go f; go x
  in
  go e;
  {
    c_size = !size;
    c_captures = !captures;
    c_applies = !applies;
    c_free_vars = List.length (Expr.free_var_ids e);
    c_cost = !cost;
  }

let purity e = if (census e).c_applies > 0 then Opaque else Pure

(* ------------------------------------------------------------------ *)
(* Intervals.  Bounds are [int option] with [None] for the unbounded
   end; every arithmetic helper widens to unbounded rather than wrap on
   overflow (including the [min_int] asymmetries), so the enclosure is
   sound for native integers. *)

type itv = {
  lo : int option;
  hi : int option;
}

let top = { lo = None; hi = None }

let exactly n = { lo = Some n; hi = Some n }

let add_bound a b =
  match a, b with
  | Some a, Some b ->
    let s = a + b in
    if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s
  | _ -> None

let neg_bound = function
  | Some v when v <> min_int -> Some (-v)
  | _ -> None

(* Native sums wrap: [max_int + 1] is [min_int].  An unbounded end
   stands for [min_int] or [max_int], and the sum keeps its bounds only
   when neither end can pass the native range; otherwise any value is
   possible.  Ends that land on [min_int]/[max_int] are reported
   unbounded, so a bounded interval's width never overflows. *)
let add_itv a b =
  let lo_of i = Option.value i.lo ~default:min_int in
  let hi_of i = Option.value i.hi ~default:max_int in
  match
    add_bound (Some (lo_of a)) (Some (lo_of b)),
    add_bound (Some (hi_of a)) (Some (hi_of b))
  with
  | Some lo, Some hi ->
    {
      lo = (if lo = min_int then None else Some lo);
      hi = (if hi = max_int then None else Some hi);
    }
  | _ -> top

(* [-min_int] is [min_int]: an input that may hold [min_int] may come
   out as any value. *)
let neg_itv i =
  match i.lo with
  | Some l when l <> min_int -> { lo = neg_bound i.hi; hi = Some (-l) }
  | _ -> top

let sub_itv a b = add_itv a (neg_itv b)

let mul_bound x y =
  if x = 0 || y = 0 then Some 0
  else if (x = min_int && y = -1) || (y = min_int && x = -1) then None
  else
    let p = x * y in
    if p / y = x then Some p else None

let corners f a b =
  match a, b with
  | { lo = Some al; hi = Some ah }, { lo = Some bl; hi = Some bh } -> (
    match f al bl, f al bh, f ah bl, f ah bh with
    | Some c1, Some c2, Some c3, Some c4 ->
      {
        lo = Some (min (min c1 c2) (min c3 c4));
        hi = Some (max (max c1 c2) (max c3 c4));
      }
    | _ -> top)
  | _ -> top

let mul_itv a b = corners mul_bound a b

let contains_zero i =
  (match i.lo with Some l -> l <= 0 | None -> true)
  && (match i.hi with Some h -> h >= 0 | None -> true)

(* Truncated division is monotone in each argument separately once the
   divisor range has one sign, so the quotient extremes sit at corner
   combinations.  [min_int / -1] is the one hardware trap. *)
let div_bound x y = if x = min_int && y = -1 then None else Some (x / y)

let div_itv a b = if contains_zero b then top else corners div_bound a b

let mod_itv a b =
  match b with
  | { lo = Some bl; hi = Some bh }
    when (not (contains_zero b)) && bl <> min_int && bh <> min_int ->
    let m = max (abs bl) (abs bh) in
    let nonneg = match a.lo with Some l -> l >= 0 | None -> false in
    let nonpos = match a.hi with Some h -> h <= 0 | None -> false in
    if nonneg then { lo = Some 0; hi = Some (m - 1) }
    else if nonpos then { lo = Some (-(m - 1)); hi = Some 0 }
    else { lo = Some (-(m - 1)); hi = Some (m - 1) }
  | _ -> top

let min_itv a b =
  {
    lo =
      (match a.lo, b.lo with
      | Some x, Some y -> Some (min x y)
      | _ -> None);
    hi =
      (match a.hi, b.hi with
      | Some x, Some y -> Some (min x y)
      | Some x, None | None, Some x -> Some x
      | None, None -> None);
  }

let max_itv a b =
  {
    lo =
      (match a.lo, b.lo with
      | Some x, Some y -> Some (max x y)
      | Some x, None | None, Some x -> Some x
      | None, None -> None);
    hi =
      (match a.hi, b.hi with
      | Some x, Some y -> Some (max x y)
      | _ -> None);
  }

(* [abs min_int] is [min_int], so only an input bounded above
   [min_int] has a non-negative absolute value. *)
let abs_itv i =
  match i.lo, i.hi with
  | Some l, _ when l >= 0 -> i
  | _, Some h when h <= 0 -> neg_itv i
  | Some l, hi when l <> min_int ->
    { lo = Some 0; hi = Option.map (fun h -> max (-l) h) hi }
  | _ -> top

let join a b =
  {
    lo =
      (match a.lo, b.lo with
      | Some x, Some y -> Some (min x y)
      | _ -> None);
    hi =
      (match a.hi, b.hi with
      | Some x, Some y -> Some (max x y)
      | _ -> None);
  }

type env = (int * itv) list

type truth =
  | True
  | False
  | Unknown

let not3 = function
  | True -> False
  | False -> True
  | Unknown -> Unknown

let and3 a b =
  match a, b with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let or3 a b =
  match a, b with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

type cmp =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

let cmp_itv op a b =
  let lt = match a.hi, b.lo with Some ah, Some bl -> ah < bl | _ -> false in
  let le = match a.hi, b.lo with Some ah, Some bl -> ah <= bl | _ -> false in
  let gt = match a.lo, b.hi with Some al, Some bh -> al > bh | _ -> false in
  let ge = match a.lo, b.hi with Some al, Some bh -> al >= bh | _ -> false in
  let eq =
    match a.lo, a.hi, b.lo, b.hi with
    | Some al, Some ah, Some bl, Some bh -> al = ah && bl = bh && al = bl
    | _ -> false
  in
  match op with
  | Clt -> if lt then True else if ge then False else Unknown
  | Cle -> if le then True else if gt then False else Unknown
  | Cgt -> if gt then True else if le then False else Unknown
  | Cge -> if ge then True else if lt then False else Unknown
  | Ceq -> if eq then True else if lt || gt then False else Unknown
  | Cne -> if eq then False else if lt || gt then True else Unknown

let rec interval_rec : env -> int Expr.t -> itv =
 fun env e ->
  match e with
  | Expr.Const_int n -> exactly n
  | Expr.Var v -> (
    match List.assoc_opt v.Expr.id env with
    | Some i -> i
    | None -> top)
  | Expr.Capture _ -> top
  | Expr.If (c, a, b) -> (
    match truth_rec env c with
    | True -> interval_rec env a
    | False -> interval_rec env b
    | Unknown -> join (interval_rec env a) (interval_rec env b))
  | Expr.Let (v, rhs, body) -> interval_rec (bind_let env v rhs) body
  | Expr.Prim1 (p, a) -> (
    match p with
    | Prim.Neg_int -> neg_itv (interval_rec env a)
    | Prim.Abs_int -> abs_itv (interval_rec env a)
    | Prim.String_length -> { lo = Some 0; hi = None }
    | _ -> top)
  | Expr.Prim2 (p, a, b) -> (
    match p with
    | Prim.Add_int -> add_itv (interval_rec env a) (interval_rec env b)
    | Prim.Sub_int -> sub_itv (interval_rec env a) (interval_rec env b)
    | Prim.Mul_int -> mul_itv (interval_rec env a) (interval_rec env b)
    | Prim.Div_int -> div_itv (interval_rec env a) (interval_rec env b)
    | Prim.Mod_int -> mod_itv (interval_rec env a) (interval_rec env b)
    | Prim.Min_int -> min_itv (interval_rec env a) (interval_rec env b)
    | Prim.Max_int -> max_itv (interval_rec env a) (interval_rec env b))
  | Expr.Array_length _ -> { lo = Some 0; hi = None }
  | _ -> top

and bind_let : type a. env -> a Expr.var -> a Expr.t -> env =
 fun env v rhs ->
  match v.Expr.var_ty with
  | Ty.Int -> (v.Expr.id, interval_rec env rhs) :: env
  | _ -> env

and truth_rec : env -> bool Expr.t -> truth =
 fun env e ->
  match e with
  | Expr.Const_bool b -> if b then True else False
  | Expr.If (c, a, b) -> (
    match truth_rec env c with
    | True -> truth_rec env a
    | False -> truth_rec env b
    | Unknown -> (
      match truth_rec env a, truth_rec env b with
      | True, True -> True
      | False, False -> False
      | _ -> Unknown))
  | Expr.Let (v, rhs, body) -> truth_rec (bind_let env v rhs) body
  | Expr.Prim1 (Prim.Not, a) -> not3 (truth_rec env a)
  | Expr.Prim2 (p, a, b) -> (
    match p with
    | Prim.And -> and3 (truth_rec env a) (truth_rec env b)
    | Prim.Or -> or3 (truth_rec env a) (truth_rec env b)
    | Prim.Eq -> cmp_int env Ceq a b
    | Prim.Ne -> cmp_int env Cne a b
    | Prim.Lt -> cmp_int env Clt a b
    | Prim.Le -> cmp_int env Cle a b
    | Prim.Gt -> cmp_int env Cgt a b
    | Prim.Ge -> cmp_int env Cge a b)
  | _ -> Unknown

(* Only integer-typed comparisons are refined; matching the operand's
   type representation against [Ty.Int] recovers the equation the
   polymorphic comparison constructors erase. *)
and cmp_int : type a. env -> cmp -> a Expr.t -> a Expr.t -> truth =
 fun env op a b ->
  match Expr.ty_of a with
  | Ty.Int -> cmp_itv op (interval_rec env a) (interval_rec env b)
  | _ -> Unknown

let interval ?(env = []) e = interval_rec env e

let truth ?(env = []) e = truth_rec env e

let always_nonpositive e =
  match (interval_rec [] e).hi with
  | Some h -> h <= 0
  | None -> false

(* Polymorphic comparison raises on functional values. *)
let rec holds_function : type a. a Ty.t -> bool = function
  | Ty.Unit | Ty.Bool | Ty.Int | Ty.Float | Ty.String -> false
  | Ty.Pair (a, b) -> holds_function a || holds_function b
  | Ty.Triple (a, b, c) ->
    holds_function a || holds_function b || holds_function c
  | Ty.Array a -> holds_function a
  | Ty.List a -> holds_function a
  | Ty.Option a -> holds_function a
  | Ty.Func (_, _) -> true

let total e =
  let rec go : type b. env -> b Expr.t -> bool =
   fun env e ->
    match e with
    | Expr.Var _ | Expr.Const_unit | Expr.Const_bool _ | Expr.Const_int _
    | Expr.Const_float _ | Expr.Const_string _ | Expr.Capture _ ->
      true
    | Expr.Apply _ | Expr.Array_get _ -> false
    | Expr.If (c, a, b) -> go env c && go env a && go env b
    | Expr.Let (v, rhs, body) -> go env rhs && go (bind_let env v rhs) body
    | Expr.Pair (a, b) -> go env a && go env b
    | Expr.Triple (a, b, c) -> go env a && go env b && go env c
    | Expr.Fst a -> go env a
    | Expr.Snd a -> go env a
    | Expr.Proj3_1 a -> go env a
    | Expr.Proj3_2 a -> go env a
    | Expr.Proj3_3 a -> go env a
    | Expr.Array_length a -> go env a
    | Expr.Prim1 (_, a) -> go env a
    | Expr.Prim2 (Prim.Div_int, a, b) ->
      (not (contains_zero (interval_rec env b))) && go env a && go env b
    | Expr.Prim2 (Prim.Mod_int, a, b) ->
      (not (contains_zero (interval_rec env b))) && go env a && go env b
    | Expr.Prim2 ((Prim.Eq | Prim.Ne | Prim.Lt | Prim.Le | Prim.Gt | Prim.Ge), a, b)
      ->
      (not (holds_function (Expr.ty_of a))) && go env a && go env b
    | Expr.Prim2 (_, a, b) -> go env a && go env b
  in
  go [] e

let zero_division_sites e =
  let count = ref 0 in
  let rec go : type b. b Expr.t -> unit =
   fun e ->
    match e with
    | Expr.Var _ -> ()
    | Expr.Const_unit -> ()
    | Expr.Const_bool _ -> ()
    | Expr.Const_int _ -> ()
    | Expr.Const_float _ -> ()
    | Expr.Const_string _ -> ()
    | Expr.Capture _ -> ()
    | Expr.If (c, a, b) -> go c; go a; go b
    | Expr.Let (_, rhs, body) -> go rhs; go body
    | Expr.Pair (a, b) -> go a; go b
    | Expr.Fst a -> go a
    | Expr.Snd a -> go a
    | Expr.Triple (a, b, c) -> go a; go b; go c
    | Expr.Proj3_1 a -> go a
    | Expr.Proj3_2 a -> go a
    | Expr.Proj3_3 a -> go a
    | Expr.Prim1 (_, a) -> go a
    | Expr.Prim2 (Prim.Div_int, a, b) ->
      (match interval_rec [] b with
      | { lo = Some 0; hi = Some 0 } -> incr count
      | _ -> ());
      go a;
      go b
    | Expr.Prim2 (Prim.Mod_int, a, b) ->
      (match interval_rec [] b with
      | { lo = Some 0; hi = Some 0 } -> incr count
      | _ -> ());
      go a;
      go b
    | Expr.Prim2 (_, a, b) ->
      go a;
      go b
    | Expr.Array_get (a, i) -> go a; go i
    | Expr.Array_length a -> go a
    | Expr.Apply (f, x) -> go f; go x
  in
  go e;
  !count
