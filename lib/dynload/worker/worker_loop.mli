(** The compile worker's request loop ([Wire] on stdin and stdout).

    The worker executable installs the plugin assembler
    ([Steno_compile.install]) and calls {!run}; a test can start a
    worker of its own that installs another assembler hook first. *)

val run : unit -> 'a
(** Serve requests until end of file on stdin, then exit. *)
