(** One program per plugin.

    [ocamlopt -shared] assembles a plugin twice: the compiled unit, then
    the startup code the link generates for it ([caml_plugin_header],
    [caml_globals], curry and apply functions).  Registered with
    [X86_proc.register_internal_assembler], {!hook} keeps both programs
    from the compiler instead, and {!take} joins them into the one
    program that [X86_object] encodes and [X86_link] links. *)

val hook : X86_ast.asm_program -> string -> unit
(** [hook program obj] keeps [program]; [obj], the object file the
    compiler would have written, is not. *)

val take : unit -> X86_ast.asm_program
(** The unit's program and its startup code, joined, once both have
    arrived; forgets them. *)

val merge : X86_ast.asm_program -> X86_ast.asm_program -> X86_ast.asm_program
(** [merge unit_program startup]: what {!take} returns. *)

val reset : unit -> unit
(** Drop the programs of a request that failed half-way. *)
