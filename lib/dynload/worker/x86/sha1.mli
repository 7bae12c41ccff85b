(** SHA-1, which the stdlib lacks: the hash of a plugin's build-id. *)

type t

val init : unit -> t
val feed : t -> string -> unit
val finish : t -> string
(** The 20-byte digest. *)
