(** Framing for the pipes between the host and a compile worker.

    A message is a list of strings.  On the wire it is a decimal byte
    count, a newline, then that many bytes of payload, in which each
    string is again a count, a newline and its bytes.  Either end can
    therefore tell a complete message from a truncated or garbled one
    without trusting anything it reads. *)

val write : Unix.file_descr -> string list -> unit
(** Write one message, retrying short writes.  Raises [Unix_error]
    ([EPIPE] once the reader has gone, with SIGPIPE ignored). *)

type received =
  | Message of string list
  | Closed  (** end of file before a complete message *)
  | Late  (** the deadline passed first *)
  | Garbled  (** bytes that are not one well-formed message *)

val read : ?deadline:float -> Unix.file_descr -> received
(** Read exactly one message.  [deadline] is absolute, on the
    [Unix.gettimeofday] clock; without it the read blocks.  A peer
    writes one message and then waits for the answer, so bytes past the
    end of a message are [Garbled] too. *)
