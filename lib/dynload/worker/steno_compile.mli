(** A plugin build with compiler-libs, in-process.

    [compile ~ml ~cmxs ~dir] does what [ocamlopt -shared -I dir ml -o
    cmxs] would, in the calling process, keeping the interfaces it loads
    for the next build.  The compile worker runs it once per request;
    the encoder's oracle test drives it directly. *)

val linker : string option
(** The command that links a plugin where [ld] links it directly
    (Linux), or [None] where the configured link command does. *)

val install : unit -> unit
(** Register the one-object-per-plugin assembly hook ([Merged_asm]) for
    every build that follows.  Does nothing where [ld] does not link
    directly. *)

val on_path : string -> bool
(** Whether the shell finds the program of this command line. *)

val missing_tools : unit -> string list
(** The programs a build runs that are not on [PATH]: the linker, and
    [as] where it still assembles. *)

val compile : ml:string -> cmxs:string -> dir:string -> unit
(** Build the plugin [cmxs] from [ml].  Raises the compiler's own
    exceptions (type errors, [Asmgen.Error], [Asmlink.Error], ...). *)
