(** A plugin's object and shared object, written in this process.

    [ocamlopt -shared] assembles a plugin twice, the compiled unit and
    then its startup code, and links the two objects with an external
    command.  On Linux/amd64, {!install} keeps both programs from the
    compiler through its internal-assembler hook and {!link} encodes
    them into one object and links it, in this process
    ([lib/dynload/worker/x86/]): a build starts no program.  Elsewhere
    {!in_process} is false and the caller keeps [Asmlink.link_shared]. *)

val in_process : bool
(** Whether plugins are assembled and linked in this process
    (Linux/amd64). *)

val install : unit -> unit
(** Register the hook for every compile that follows, where
    {!in_process}. *)

val link : cmx:string -> cmxs:string -> unit
(** After the unit [cmx] is compiled, generate its startup code and
    write the plugin [cmxs]: no object file, no command.  A construct
    the encoder or the linker does not cover is a [Location.Error]
    naming it ([x86 encoder: ...], [x86 linker: ...]).  Only where
    {!in_process}. *)

val reset : unit -> unit
(** Drop what a request that failed half-way left. *)
