(* Intrusive doubly-linked recency list: head = most recently used,
   tail = least recently used.  The hash table maps keys to list nodes,
   so find/add/evict are all O(1).

   Concurrency: the cache is split into [shards] independent sub-caches,
   each with its own mutex, table and recency list; a key's shard is
   chosen by hashing the key, so concurrent operations on distinct keys
   contend only when they hash to the same shard.  With [shards = 1]
   (the default) the cache is one exact LRU; with more shards, recency
   and eviction are exact *within* a shard and the capacity is divided
   across shards. *)
type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) shard = {
  sh_capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mu : Mutex.t;
}

type ('k, 'v) t = {
  capacity : int;
  shards : ('k, 'v) shard array;
  on_evict : ('k -> 'v -> unit) option;
}

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

let make_shard capacity =
  {
    sh_capacity = capacity;
    table = Hashtbl.create (max 16 (min (max capacity 1) 256));
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    mu = Mutex.create ();
  }

let create ?on_evict ?(shards = 1) ~capacity () =
  (* Never create a shard that cannot hold at least one entry: a
     zero-capacity shard would silently drop every key hashing to it.
     A disabled cache (capacity <= 0) keeps one disabled shard. *)
  let n =
    if capacity <= 0 then 1 else max 1 (min shards capacity)
  in
  let shard_caps =
    if capacity <= 0 then [| capacity |]
    else
      Array.init n (fun i ->
          (capacity / n) + (if i < capacity mod n then 1 else 0))
  in
  {
    capacity;
    shards = Array.map make_shard shard_caps;
    on_evict;
  }

let shard_of (t : (_, _) t) k =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else t.shards.(Hashtbl.hash k mod n)

let unlink (s : (_, _) shard) node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> s.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> s.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front (s : (_, _) shard) node =
  node.prev <- None;
  node.next <- s.head;
  (match s.head with
  | Some h -> h.prev <- Some node
  | None -> s.tail <- Some node);
  s.head <- Some node

let promote s node =
  if s.head != Some node then begin
    unlink s node;
    push_front s node
  end

let lookup ~count_miss (t : (_, _) t) k =
  let s = shard_of t k in
  Mutex.protect s.mu @@ fun () ->
  match Hashtbl.find_opt s.table k with
  | Some node ->
    promote s node;
    s.hits <- s.hits + 1;
    Some node.value
  | None ->
    if count_miss then s.misses <- s.misses + 1;
    None

let find t k = lookup ~count_miss:true t k

let probe t k = lookup ~count_miss:false t k

(* Pop the LRU entry; returns the victim so the caller can fire
   [on_evict] after releasing the lock. *)
let evict_lru (s : (_, _) shard) =
  match s.tail with
  | Some node ->
    unlink s node;
    Hashtbl.remove s.table node.key;
    s.evictions <- s.evictions + 1;
    Some (node.key, node.value)
  | None -> None

let notify t victims =
  match t.on_evict with
  | None -> ()
  | Some f -> List.iter (fun (k, v) -> f k v) victims

let add (t : (_, _) t) k v =
  let s = shard_of t k in
  if s.sh_capacity <= 0 then begin
    (* A disabled cache still never owns the value. *)
    notify t [ k, v ];
    false
  end
  else begin
    let victim =
      Mutex.protect s.mu @@ fun () ->
      match Hashtbl.find_opt s.table k with
      | Some node ->
        let old = node.value in
        node.value <- v;
        promote s node;
        (* The replaced value is released like an eviction, but is not
           counted as one (the key never left the cache). *)
        if old == v then None else Some (`Replaced (k, old))
      | None ->
        let victim =
          if Hashtbl.length s.table >= s.sh_capacity then evict_lru s
          else None
        in
        let node = { key = k; value = v; prev = None; next = None } in
        Hashtbl.replace s.table k node;
        push_front s node;
        (match victim with Some kv -> Some (`Evicted kv) | None -> None)
    in
    (* Callbacks run outside the lock: they may be arbitrary user code
       (releasing plugin handles, logging) and must not deadlock against
       concurrent cache operations. *)
    match victim with
    | Some (`Evicted kv) ->
      notify t [ kv ];
      true
    | Some (`Replaced kv) ->
      notify t [ kv ];
      false
    | None -> false
  end

let mem (t : (_, _) t) k =
  let s = shard_of t k in
  Mutex.protect s.mu (fun () -> Hashtbl.mem s.table k)

let length (t : (_, _) t) =
  Array.fold_left
    (fun acc s ->
      acc + Mutex.protect s.mu (fun () -> Hashtbl.length s.table))
    0 t.shards

let stats (t : (_, _) t) : stats =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.mu @@ fun () ->
      {
        acc with
        entries = acc.entries + Hashtbl.length s.table;
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
      })
    { capacity = t.capacity; entries = 0; hits = 0; misses = 0; evictions = 0 }
    t.shards

let clear (t : (_, _) t) =
  (* Per shard: collect victims under the shard lock, notify outside it,
     in LRU-to-MRU order (mirroring eviction order) within each shard. *)
  Array.iter
    (fun s ->
      let victims =
        Mutex.protect s.mu @@ fun () ->
        let rec walk acc = function
          | Some node -> walk ((node.key, node.value) :: acc) node.prev
          | None -> acc
        in
        let vs = List.rev (walk [] s.tail) in
        Hashtbl.reset s.table;
        s.head <- None;
        s.tail <- None;
        vs
      in
      notify t victims)
    t.shards
