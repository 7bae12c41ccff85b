(** What a plan-memo entry holds besides its plugin, and its bytes on
    disk.

    A Native prepare that the memo serves runs the plugin an earlier
    prepare of the same [Cost.shape] built, and replays what that
    prepare's skipped stages reported.  The engine keeps entries in
    memory and, with a disk cache, as the payload of a [Pcache] record,
    so a restarted process finds them too.  The codec is hand-written
    and versioned; {!decode} is total. *)

(** Where a plugin's environment slot takes its value on a hit: one of
    the root's capture classes ([Cost.shape]), or the empty array the
    optimizer puts in place of a collapsed source ([Opt.empty]). *)
type slot = Class of int | Empty_array

type entry = {
  slots : slot array;  (** one per environment slot of the plugin *)
  rules : string list;  (** the rewrite log *)
  diags : Check.diagnostic list;  (** the static-check diagnostics *)
  plan : string;
      (** the QUIL rendering an active trace carries; empty in memory on
          an engine that does not trace *)
}

val encode : entry -> string

val decode : string -> entry option
(** [None] for anything {!encode} did not write, including every proper
    prefix of what it wrote.  Never raises. *)
