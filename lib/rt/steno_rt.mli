(** Run-time support that generated query plugins link against.

    The analog of the precompiled [Dictionary<K,V>] the paper's generated
    C# used: a hash table specialized once, here, to int keys, so a
    plugin's int-keyed GroupBy, Distinct and hash join neither
    instantiate a functor nor call the polymorphic [caml_hash] and
    [compare].  Generated code calls [create], [find] (raising
    [Not_found]), [add], [mem] and [iter], with the meaning they have in
    [Stdlib.Hashtbl] (which serves every other key type), so its text
    differs only in the module path.

    Plugins are compiled against this unit's [.cmi] only ([Dynload]
    ships it inside the host); the implementation is the host's. *)

(** Int keys.  Written out rather than a [Hashtbl.Make] instance: the
    functor's [find] reaches the hash and the equality through closures,
    three indirect calls per probe, where this one inlines both.  Keys
    are hashed by a multiplicative mix, so keys that differ only in
    their high bits still spread over the buckets. *)
module Int_tbl : sig
  type key = int
  type 'a t

  val create : int -> 'a t
  val find : 'a t -> key -> 'a
  val mem : 'a t -> key -> bool

  val add : 'a t -> key -> 'a -> unit
  (** Binds the key without removing an earlier binding, which {!find}
      then hides, as [Hashtbl.add] does. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
end
