(** A plugin build with compiler-libs, in-process.

    [compile ~ml ~cmxs ~dir] does what [ocamlopt -shared -I dir ml -o
    cmxs] would, in the calling process, keeping the interfaces it loads
    for the next build.  The compile worker runs it once per request;
    the oracle test drives it directly. *)

val in_process : bool
(** Whether a build runs no program: on Linux/amd64 the plugin is
    encoded and linked in this process ([Plugin_link]). *)

val linker : string option
(** The command that links a plugin where [ld] links it directly (Linux
    off amd64), or [None] where the plugin is linked in-process or the
    configured link command links it. *)

val install : unit -> unit
(** Register the in-process assembly hook ([Plugin_link]) for every
    build that follows.  Does nothing off Linux/amd64. *)

val on_path : string -> bool
(** Whether the shell finds the program of this command line. *)

val missing_tools : unit -> string list
(** The programs a build runs that are not on [PATH]: none on
    Linux/amd64; [as] and the linker elsewhere. *)

val compile : ml:string -> cmxs:string -> dir:string -> unit
(** Build the plugin [cmxs] from [ml].  Raises the compiler's own
    exceptions (type errors, [Asmgen.Error], [Asmlink.Error],
    [Location.Error] for a construct the in-process encoder or linker
    does not cover, ...). *)
