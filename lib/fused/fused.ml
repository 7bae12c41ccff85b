module Open = Expr.Open

type 'a folder = { fold : 'b. ('b -> 'a -> 'b) -> 'b -> 'b }

(* A staging-time hook around every top-level operator's output folder:
   profile mode supplies a wrapper allocating one probe point per
   operator (the [string] label is consumed once at staging).
   [unprobed] is the identity — the normal path stages exactly the same
   closures as before. *)
type wrapper = { fwrap : 'x. string -> 'x folder -> 'x folder }

let unprobed = { fwrap = (fun _ f -> f) }

exception Stop

(* Wrap a folder so element processing can stop early without consuming
   the rest of the source (take, take_while).  The accumulator moves into
   a reference for the duration of the fold. *)
let with_stop (src : 'a folder) (process : 'acc ref -> 'a -> unit) acc0 =
  let acc = ref acc0 in
  (try src.fold (fun () x -> process acc x) () with Stop -> ());
  !acc

let of_array_folder arr =
  { fold = (fun f z -> Array.fold_left f z arr) }

let rec stage_probed : type a. wrapper -> a Query.t -> Open.env -> a folder =
 fun w node ->
  let label = Query.label node in
  match node with
  | Query.Of_array (_, arr) ->
    let farr = Open.compile arr in
    let wr = w.fwrap label in
    fun env -> wr (of_array_folder (farr env))
  | Query.Range (start, count) ->
    let fs = Open.compile start and fc = Open.compile count in
    let wr = w.fwrap label in
    fun env ->
      let s = fs env and c = fc env in
      wr
        {
          fold =
            (fun f z ->
              let acc = ref z in
              for i = s to s + c - 1 do
                acc := f !acc i
              done;
              !acc);
        }
  | Query.Repeat (_, v, count) ->
    let fv = Open.compile v and fc = Open.compile count in
    let wr = w.fwrap label in
    fun env ->
      let x = fv env and c = fc env in
      wr
        {
          fold =
            (fun f z ->
              let acc = ref z in
              for _ = 1 to c do
                acc := f !acc x
              done;
              !acc);
        }
  | Query.Select (q, lam) ->
    let src = stage_probed w q and f = Open.compile_lam lam in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and f = f env in
      wr { fold = (fun g z -> src.fold (fun acc x -> g acc (f x)) z) }
  | Query.Select_i (q, lam2) ->
    let src = stage_probed w q and f = Open.compile_lam2 lam2 in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and f = f env in
      wr
        {
          fold =
            (fun g z ->
              let i = ref (-1) in
              src.fold
                (fun acc x ->
                  incr i;
                  g acc (f !i x))
                z);
        }
  | Query.Select_q (q, v, sq) ->
    let src = stage_probed w q and fsq = stage_sq_probed unprobed sq in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      wr
        {
          fold =
            (fun g z ->
              src.fold (fun acc x -> g acc (fsq (Open.bind v x env))) z);
        }
  | Query.Where (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and p = p env in
      wr
        {
          fold =
            (fun g z -> src.fold (fun acc x -> if p x then g acc x else acc) z);
        }
  | Query.Where_i (q, lam2) ->
    let src = stage_probed w q and p = Open.compile_lam2 lam2 in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and p = p env in
      wr
        {
          fold =
            (fun g z ->
              let i = ref (-1) in
              src.fold
                (fun acc x ->
                  incr i;
                  if p !i x then g acc x else acc)
                z);
        }
  | Query.Where_q (q, v, sq) ->
    let src = stage_probed w q and fsq = stage_sq_probed unprobed sq in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      wr
        {
          fold =
            (fun g z ->
              src.fold
                (fun acc x -> if fsq (Open.bind v x env) then g acc x else acc)
                z);
        }
  | Query.Take (q, n) ->
    let src = stage_probed w q and fn = Open.compile n in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and n = fn env in
      wr
        {
          fold =
            (fun g z ->
              if n <= 0 then z
              else
                let remaining = ref n in
                with_stop src
                  (fun acc x ->
                    acc := g !acc x;
                    decr remaining;
                    if !remaining = 0 then raise_notrace Stop)
                  z);
        }
  | Query.Skip (q, n) ->
    let src = stage_probed w q and fn = Open.compile n in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and n = fn env in
      wr
        {
          fold =
            (fun g z ->
              let seen = ref 0 in
              src.fold
                (fun acc x ->
                  if !seen < n then begin
                    incr seen;
                    acc
                  end
                  else g acc x)
                z);
        }
  | Query.Take_while (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and p = p env in
      wr
        {
          fold =
            (fun g z ->
              with_stop src
                (fun acc x ->
                  if p x then acc := g !acc x else raise_notrace Stop)
                z);
        }
  | Query.Skip_while (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and p = p env in
      wr
        {
          fold =
            (fun g z ->
              let skipping = ref true in
              src.fold
                (fun acc x ->
                  if !skipping && p x then acc
                  else begin
                    skipping := false;
                    g acc x
                  end)
                z);
        }
  | Query.Select_many (q, v, inner) ->
    let src = stage_probed w q and finner = stage_probed unprobed inner in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      wr
        {
          fold =
            (fun g z ->
              src.fold (fun acc x -> (finner (Open.bind v x env)).fold g acc) z);
        }
  | Query.Select_many_result (q, v, inner, lam2) ->
    let src = stage_probed w q
    and finner = stage_probed unprobed inner
    and fres = Open.compile_lam2 lam2 in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      let res = fres env in
      wr
        {
          fold =
            (fun g z ->
              src.fold
                (fun acc x ->
                  (finner (Open.bind v x env)).fold
                    (fun acc y -> g acc (res x y))
                    acc)
                z);
        }
  | Query.Join (outer, inner, ok, ik, res) ->
    let fouter = stage_probed w outer
    and finner = stage_probed unprobed inner
    and fok = Open.compile_lam ok
    and fik = Open.compile_lam ik
    and fres = Open.compile_lam2 res in
    let wr = w.fwrap label in
    fun env ->
      let outer = fouter env
      and inner = finner env
      and ok = fok env
      and ik = fik env
      and res = fres env in
      wr
        {
          fold =
            (fun g z ->
              (* Hash join: index the inner side once per fold. *)
              let lookup =
                inner.fold (fun l y -> Lookup.put l (ik y) y) (Lookup.create ())
              in
              outer.fold
                (fun acc x ->
                  Array.fold_left
                    (fun acc y -> g acc (res x y))
                    acc
                    (Lookup.find lookup (ok x)))
                z);
        }
  | Query.Group_by (q, key) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and key = fkey env in
      wr
        {
          fold =
            (fun g z ->
              let lookup =
                src.fold (fun l x -> Lookup.put l (key x) x) (Lookup.create ())
              in
              Array.fold_left g z (Lookup.groupings lookup));
        }
  | Query.Group_by_elem (q, key, elem) ->
    let src = stage_probed w q
    and fkey = Open.compile_lam key
    and felem = Open.compile_lam elem in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and key = fkey env and elem = felem env in
      wr
        {
          fold =
            (fun g z ->
              let lookup =
                src.fold
                  (fun l x -> Lookup.put l (key x) (elem x))
                  (Lookup.create ())
              in
              Array.fold_left g z (Lookup.groupings lookup));
        }
  | Query.Group_by_agg (q, key, seed, step) ->
    let src = stage_probed w q
    and fkey = Open.compile_lam key
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step in
    let wr = w.fwrap label in
    fun env ->
      let src = src env
      and key = fkey env
      and seed = fseed env
      and step = fstep env in
      wr
        {
          fold =
            (fun g z ->
              let agg = Lookup.Agg.create ~seed () in
              src.fold
                (fun () x -> Lookup.Agg.update agg (key x) (fun s -> step s x))
                ();
              Array.fold_left g z (Lookup.Agg.entries agg));
        }
  | Query.Order_by (q, key, dir) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    let wr = w.fwrap label in
    fun env ->
      let src = src env and key = fkey env in
      wr
        {
          fold =
            (fun g z ->
              let arr = materialize src in
              let dec = Array.mapi (fun i x -> key x, i, x) arr in
              Array.sort
                (fun (k1, i1, _) (k2, i2, _) ->
                  let c =
                    match dir with
                    | Query.Ascending -> compare k1 k2
                    | Query.Descending -> compare k2 k1
                  in
                  if c <> 0 then c else Int.compare i1 i2)
                dec;
              Array.fold_left (fun acc (_, _, x) -> g acc x) z dec);
        }
  | Query.Distinct q ->
    let src = stage_probed w q in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      wr
        {
          fold =
            (fun g z ->
              let seen = Hashtbl.create 64 in
              src.fold
                (fun acc x ->
                  if Hashtbl.mem seen x then acc
                  else begin
                    Hashtbl.replace seen x ();
                    g acc x
                  end)
                z);
        }
  | Query.Rev q ->
    let src = stage_probed w q in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      wr
        {
          fold =
            (fun g z ->
              let arr = materialize src in
              let acc = ref z in
              for i = Array.length arr - 1 downto 0 do
                acc := g !acc arr.(i)
              done;
              !acc);
        }
  | Query.Materialize q ->
    let src = stage_probed w q in
    let wr = w.fwrap label in
    fun env ->
      let src = src env in
      wr { fold = (fun g z -> Array.fold_left g z (materialize src)) }

and materialize : type a. a folder -> a array =
 fun src ->
  let elements = src.fold (fun acc x -> x :: acc) [] in
  let arr = Array.of_list elements in
  let n = Array.length arr in
  (* The fold accumulated in reverse. *)
  for i = 0 to (n / 2) - 1 do
    let tmp = arr.(i) in
    arr.(i) <- arr.(n - 1 - i);
    arr.(n - 1 - i) <- tmp
  done;
  arr

and stage_sq_probed : type s. wrapper -> s Query.sq -> Open.env -> s =
 fun w -> function
  | Query.Aggregate (q, seed, step) ->
    let src = stage_probed w q
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step in
    fun env -> (src env).fold (fstep env) (fseed env)
  | Query.Aggregate_combinable (q, seed, step, _) ->
    (* Sequentially the combiner is unused: fold as a plain Aggregate. *)
    let src = stage_probed w q
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step in
    fun env -> (src env).fold (fstep env) (fseed env)
  | Query.Aggregate_full (q, seed, step, result) ->
    let src = stage_probed w q
    and fseed = Open.compile seed
    and fstep = Open.compile_lam2 step
    and fres = Open.compile_lam result in
    fun env -> fres env ((src env).fold (fstep env) (fseed env))
  | Query.Sum_int q ->
    let src = stage_probed w q in
    fun env -> (src env).fold ( + ) 0
  | Query.Sum_float q ->
    let src = stage_probed w q in
    fun env -> (src env).fold ( +. ) 0.0
  | Query.Count q ->
    let src = stage_probed w q in
    fun env -> (src env).fold (fun n _ -> n + 1) 0
  | Query.Average q ->
    let src = stage_probed w q in
    fun env ->
      let total, n =
        (src env).fold (fun (t, n) x -> t +. x, n + 1) (0.0, 0)
      in
      if n = 0 then raise Iterator.No_such_element
      else total /. float_of_int n
  | Query.Min q ->
    let src = stage_probed w q in
    fun env -> reduce (src env) (fun a b -> if b < a then b else a)
  | Query.Max q ->
    let src = stage_probed w q in
    fun env -> reduce (src env) (fun a b -> if b > a then b else a)
  | Query.Min_by (q, key) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    fun env ->
      let key = fkey env in
      reduce (src env) (fun a b -> if key b < key a then b else a)
  | Query.Max_by (q, key) ->
    let src = stage_probed w q and fkey = Open.compile_lam key in
    fun env ->
      let key = fkey env in
      reduce (src env) (fun a b -> if key b > key a then b else a)
  | Query.First q ->
    let src = stage_probed w q in
    fun env -> (
      let found =
        with_stop (src env)
          (fun acc x ->
            acc := Some x;
            raise_notrace Stop)
          None
      in
      match found with
      | Some x -> x
      | None -> raise Iterator.No_such_element)
  | Query.Last q ->
    let src = stage_probed w q in
    fun env -> (
      match (src env).fold (fun _ x -> Some x) None with
      | Some x -> x
      | None -> raise Iterator.No_such_element)
  | Query.Element_at (q, n) ->
    let src = stage_probed w q and fn = Open.compile n in
    fun env -> (
      let n = fn env in
      if n < 0 then raise Iterator.No_such_element;
      let seen = ref (-1) in
      let found =
        with_stop (src env)
          (fun acc x ->
            incr seen;
            if !seen = n then begin
              acc := Some x;
              raise_notrace Stop
            end)
          None
      in
      match found with
      | Some x -> x
      | None -> raise Iterator.No_such_element)
  | Query.Any q ->
    let src = stage_probed w q in
    fun env ->
      with_stop (src env)
        (fun acc _ ->
          acc := true;
          raise_notrace Stop)
        false
  | Query.Exists (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    fun env ->
      let p = p env in
      with_stop (src env)
        (fun acc x ->
          if p x then begin
            acc := true;
            raise_notrace Stop
          end)
        false
  | Query.For_all (q, lam) ->
    let src = stage_probed w q and p = Open.compile_lam lam in
    fun env ->
      let p = p env in
      with_stop (src env)
        (fun acc x ->
          if not (p x) then begin
            acc := false;
            raise_notrace Stop
          end)
        true
  | Query.Contains (q, v) ->
    let src = stage_probed w q and fv = Open.compile v in
    fun env ->
      let x = fv env in
      with_stop (src env)
        (fun acc y ->
          if x = y then begin
            acc := true;
            raise_notrace Stop
          end)
        false
  | Query.Map_scalar (sq, lam) ->
    let fsq = stage_sq_probed w sq and f = Open.compile_lam lam in
    fun env -> f env (fsq env)

and reduce : type a. a folder -> (a -> a -> a) -> a =
 fun src better ->
  match
    src.fold
      (fun acc x ->
        match acc with None -> Some x | Some best -> Some (better best x))
      None
  with
  | Some best -> best
  | None -> raise Iterator.No_such_element

let stage q = stage_probed unprobed q

let stage_sq sq = stage_sq_probed unprobed sq

let run_sq sq = stage_sq sq Open.empty

let to_array q = materialize (stage q Open.empty)

let to_list q = Array.to_list (to_array q)
