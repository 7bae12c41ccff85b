(* Exact percentiles from raw samples.

   Nearest rank: the [q]-th percentile of [n] sorted samples is the
   sample at rank [ceil (q * n)].  A percentile is refused unless at
   least [min_beyond] samples lie above that rank, so a reported tail
   always rests on ten observations worse than it; every result carries
   its sample count. *)

let min_beyond = 10

type pct = { q : float; value : float; n : int }

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let rank ~n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

(* [percentile q samples]: [Error] explains a refusal.  [~min_beyond:0]
   turns the refusal off (smoke runs check the plumbing, not numbers). *)
let percentile ?(min_beyond = min_beyond) q samples =
  let n = Array.length samples in
  if n = 0 then Error (Printf.sprintf "p%g: no samples" (100. *. q))
  else
    let k = rank ~n q in
    if n - k < min_beyond then
      Error
        (Printf.sprintf "p%g: %d samples leave %d beyond rank %d (need %d)"
           (100. *. q) n (n - k) k min_beyond)
    else Ok { q; value = (sorted samples).(k - 1); n }

let geomean values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Stats.geomean: no values"
  else
    exp
      (Array.fold_left (fun acc v -> acc +. log v) 0. values /. float_of_int n)

let sum values = Array.fold_left ( +. ) 0. values
