(** An [X86_ast] program to an ELF64 relocatable object, in-process: the
    object GNU [as] makes of the [.s] that [X86_gas] prints for the same
    program, with its allocated sections byte for byte, the same symbols
    and relocations, and its symbol table in [as]'s order, so that [ld]
    links it to the same plugin (the oracle test in [test/oracle] holds
    it to that). *)

val assemble : X86_ast.asm_program -> string
(** The object file.  Raises [X86_encode.Unsupported] for a construct
    the encoder does not cover: an x87 instruction, [.loc], [.set], a
    MASM or Mach-O directive, an expression with more than one
    relocatable term, a label defined twice. *)

val write : X86_ast.asm_program -> string -> unit
(** [write program obj] writes {!assemble}'s object to [obj].  A
    construct the encoder does not cover fails as an [as] failure
    would: [obj] is not written, a line naming the construct goes to
    stderr, and the compiler's own [Asmgen.Error] is raised. *)
