(** One assembly per plugin.

    [ocamlopt -shared] assembles a plugin twice: the compiled unit, then
    the startup code [Asmlink.link_shared] generates for it
    ([caml_plugin_header], [caml_globals], curry and apply functions).
    Registered with [X86_proc.register_internal_assembler], {!hook}
    takes both programs from the compiler instead and assembles them
    together, into the unit's object.  The startup object the linker is
    then given is an empty [ld] input script, so use it only where GNU
    [ld] links the plugin. *)

val hook :
  assemble:(X86_ast.asm_program -> string -> unit) ->
  X86_ast.asm_program -> string -> unit
(** [hook ~assemble] keeps a unit's program until its startup code
    arrives, then calls [assemble merged unit_obj]. *)

val reset : unit -> unit
(** Drop a unit program still waiting for its startup code, as a
    request that failed half-way leaves it. *)
