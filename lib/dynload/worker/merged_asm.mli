(** One assembler run per plugin.

    [ocamlopt -shared] assembles a plugin twice: the compiled unit, then
    the startup code [Asmlink.link_shared] generates for it
    ([caml_plugin_header], [caml_globals], curry and apply functions).
    Installed, this module takes both programs from the compiler through
    its internal-assembler hook instead, writes them into one [.s] and
    runs [as] once, into the unit's object.  The startup object the
    linker is then given is an empty [ld] input script.

    Only amd64 has the hook ([X86_proc]); elsewhere {!install} does
    nothing and plugins keep both assembler runs. *)

val install : unit -> unit
(** Register the hook for every compile that follows.  Call it only
    where GNU [ld] links the plugin, since the startup object becomes a
    linker script. *)

val reset : unit -> unit
(** Drop a unit program still waiting for its startup code, as a
    request that failed half-way leaves it. *)
