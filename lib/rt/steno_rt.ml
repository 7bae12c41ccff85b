module Int_tbl = struct
  type key = int

  (* Chained buckets, newest first, as in [Hashtbl]; the table size is a
     power of two. *)
  type 'a bucket =
    | Empty
    | Cons of { key : int; data : 'a; next : 'a bucket }

  type 'a t = { mutable size : int; mutable data : 'a bucket array }

  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 31)

  let index data k = hash k land (Array.length data - 1)

  let create n =
    let rec pow2 x =
      if x >= n || x > Sys.max_array_length / 2 then x else pow2 (2 * x)
    in
    { size = 0; data = Array.make (pow2 16) Empty }

  let rec find_in k = function
    | Empty -> raise Not_found
    | Cons c -> if c.key = k then c.data else find_in k c.next

  let find t k = find_in k (Array.unsafe_get t.data (index t.data k))

  let rec mem_in k = function
    | Empty -> false
    | Cons c -> c.key = k || mem_in k c.next

  let mem t k = mem_in k (Array.unsafe_get t.data (index t.data k))

  let resize t =
    let n = 2 * Array.length t.data in
    if n <= Sys.max_array_length then begin
      let data = Array.make n Empty in
      let rec move = function
        | Empty -> ()
        | Cons c ->
          move c.next;
          let i = index data c.key in
          data.(i) <- Cons { c with next = data.(i) }
      in
      Array.iter move t.data;
      t.data <- data
    end

  let add t k v =
    let i = index t.data k in
    t.data.(i) <- Cons { key = k; data = v; next = t.data.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.data then resize t

  let iter f t =
    let rec go = function
      | Empty -> ()
      | Cons c ->
        f c.key c.data;
        go c.next
    in
    Array.iter go t.data
end
