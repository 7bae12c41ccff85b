module Open = Expr.Open

exception Empty = Iterator.No_such_element

(* Group values by key, keys in first-appearance order, without Lookup.
   A single pass: each element is appended (reversed ref list) to its
   key's bucket; fresh keys are also pushed onto the order list.  The
   old version was quadratic (List.mem + append + per-key filter), which
   made large differential corpora unusable. *)
let group_list key xs =
  let buckets = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt buckets k with
      | Some cell -> cell := x :: !cell
      | None ->
        Hashtbl.add buckets k (ref [ x ]);
        order := k :: !order)
    xs;
  List.rev_map (fun k -> k, List.rev !(Hashtbl.find buckets k)) !order

let rec eval : type a. a Query.t -> Open.env -> a list =
 fun q env ->
  match q with
  | Query.Of_array (_, arr) -> Array.to_list (Open.compile arr env)
  | Query.Range (start, count) ->
    let s = Open.compile start env and c = Open.compile count env in
    List.init c (fun i -> s + i)
  | Query.Repeat (_, v, count) ->
    let x = Open.compile v env and c = Open.compile count env in
    List.init c (fun _ -> x)
  | Query.Select (q, lam) ->
    let f = Open.compile_lam lam env in
    List.map f (eval q env)
  | Query.Select_i (q, lam2) ->
    let f = Open.compile_lam2 lam2 env in
    List.mapi f (eval q env)
  | Query.Select_q (q, v, sq) ->
    List.map (fun x -> eval_sq sq (Open.bind v x env)) (eval q env)
  | Query.Where (q, lam) ->
    let p = Open.compile_lam lam env in
    List.filter p (eval q env)
  | Query.Where_i (q, lam2) ->
    let p = Open.compile_lam2 lam2 env in
    List.filteri p (eval q env)
  | Query.Where_q (q, v, sq) ->
    List.filter (fun x -> eval_sq sq (Open.bind v x env)) (eval q env)
  | Query.Take (q, n) ->
    let n = Open.compile n env in
    List.filteri (fun i _ -> i < n) (eval q env)
  | Query.Skip (q, n) ->
    let n = Open.compile n env in
    List.filteri (fun i _ -> i >= n) (eval q env)
  | Query.Take_while (q, lam) ->
    let p = Open.compile_lam lam env in
    let rec go = function x :: tl when p x -> x :: go tl | _ -> [] in
    go (eval q env)
  | Query.Skip_while (q, lam) ->
    let p = Open.compile_lam lam env in
    let rec go = function x :: tl when p x -> go tl | l -> l in
    go (eval q env)
  | Query.Select_many (q, v, inner) ->
    List.concat_map (fun x -> eval inner (Open.bind v x env)) (eval q env)
  | Query.Select_many_result (q, v, inner, lam2) ->
    List.concat_map
      (fun x ->
        let env' = Open.bind v x env in
        let f = Open.compile_lam2 lam2 env' in
        List.map (fun y -> f x y) (eval inner env'))
      (eval q env)
  | Query.Join (outer, inner, ok, ik, res) ->
    let fok = Open.compile_lam ok env
    and fik = Open.compile_lam ik env
    and fres = Open.compile_lam2 res env in
    let inner = eval inner env in
    List.concat_map
      (fun o ->
        List.filter_map
          (fun i ->
            (* Key equality is [compare]'s, as in grouping: nan
               matches nan. *)
            if compare (fik i) (fok o) = 0 then Some (fres o i) else None)
          inner)
      (eval outer env)
  | Query.Group_by (q, key) ->
    let fkey = Open.compile_lam key env in
    List.map (fun (k, vs) -> k, Array.of_list vs)
      (group_list fkey (eval q env))
  | Query.Group_by_elem (q, key, elem) ->
    let fkey = Open.compile_lam key env in
    let felem = Open.compile_lam elem env in
    List.map (fun (k, vs) -> k, Array.of_list (List.map felem vs))
      (group_list fkey (eval q env))
  | Query.Group_by_agg (q, key, seed, step) ->
    let fkey = Open.compile_lam key env in
    let seed = Open.compile seed env in
    let fstep = Open.compile_lam2 step env in
    List.map (fun (k, vs) -> k, List.fold_left fstep seed vs)
      (group_list fkey (eval q env))
  | Query.Order_by (q, key, dir) ->
    let fkey = Open.compile_lam key env in
    let cmp a b =
      match dir with
      | Query.Ascending -> compare (fkey a) (fkey b)
      | Query.Descending -> compare (fkey b) (fkey a)
    in
    List.stable_sort cmp (eval q env)
  | Query.Distinct q -> List.map fst (group_list Fun.id (eval q env))
  | Query.Rev q -> List.rev (eval q env)
  | Query.Materialize q -> eval q env

and eval_sq : type s. s Query.sq -> Open.env -> s =
 fun sq env ->
  match sq with
  | Query.Aggregate (q, seed, step) ->
    List.fold_left
      (Open.compile_lam2 step env)
      (Open.compile seed env) (eval q env)
  | Query.Aggregate_combinable (q, seed, step, _) ->
    List.fold_left
      (Open.compile_lam2 step env)
      (Open.compile seed env) (eval q env)
  | Query.Aggregate_full (q, seed, step, result) ->
    Open.compile_lam result env
      (List.fold_left
         (Open.compile_lam2 step env)
         (Open.compile seed env) (eval q env))
  | Query.Sum_int q -> List.fold_left ( + ) 0 (eval q env)
  | Query.Sum_float q -> List.fold_left ( +. ) 0.0 (eval q env)
  | Query.Count q -> List.length (eval q env)
  | Query.Average q -> (
    match eval q env with
    | [] -> raise Empty
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))
  | Query.Min q -> (
    match eval q env with [] -> raise Empty | x :: tl -> List.fold_left min x tl)
  | Query.Max q -> (
    match eval q env with [] -> raise Empty | x :: tl -> List.fold_left max x tl)
  | Query.Min_by (q, key) -> (
    let fkey = Open.compile_lam key env in
    let better a b = if fkey b < fkey a then b else a in
    match eval q env with
    | [] -> raise Empty
    | x :: tl -> List.fold_left better x tl)
  | Query.Max_by (q, key) -> (
    let fkey = Open.compile_lam key env in
    let better a b = if fkey b > fkey a then b else a in
    match eval q env with
    | [] -> raise Empty
    | x :: tl -> List.fold_left better x tl)
  | Query.First q -> (
    match eval q env with [] -> raise Empty | x :: _ -> x)
  | Query.Last q -> (
    match List.rev (eval q env) with [] -> raise Empty | x :: _ -> x)
  | Query.Element_at (q, n) -> (
    let n = Open.compile n env in
    match List.nth_opt (eval q env) n with
    | Some x when n >= 0 -> x
    | Some _ | None -> raise Empty)
  | Query.Any q -> eval q env <> []
  | Query.Exists (q, lam) -> List.exists (Open.compile_lam lam env) (eval q env)
  | Query.For_all (q, lam) -> List.for_all (Open.compile_lam lam env) (eval q env)
  | Query.Contains (q, v) ->
    let x = Open.compile v env in
    List.mem x (eval q env)
  | Query.Map_scalar (sq, lam) ->
    Open.compile_lam lam env (eval_sq sq env)

let to_list q = eval q Open.empty

let scalar sq = eval_sq sq Open.empty
