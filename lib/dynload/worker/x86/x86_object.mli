(** An [X86_ast] program to an ELF64 relocatable object, in-process: the
    object GNU [as] makes of the [.s] that [X86_gas] prints for the same
    program, with its allocated sections byte for byte, the same symbols
    and relocations, and its symbol table in [as]'s order, so that [ld]
    links it to the same plugin (the oracle test in [test/oracle] holds
    it to that). *)

(** A section of the object.  [.bss] holds its zeros in [contents]. *)
type section = {
  name : string;
  sh_type : int;
  flags : int;
  entsize : int;
  align : int;
  contents : string;
  relocs : reloc list;  (** in the order of the [.rela] section *)
}

and reloc = { offset : int; r_type : int; target : target; addend : int64 }

and target =
  | Symbol of string
  | Section of int
      (** a section's own symbol, by its position in {!t.sections}: what
          [as] turns a reference to a local label into *)

type symbol = {
  name : string;
  global : bool;
  kind : int;  (** [STT_*] *)
  section : int option;  (** by position in {!t.sections}; [None]: undefined *)
  value : int;
  size : int;
}

type t = {
  sections : section list;
  symbols : symbol list;
      (** locals, then globals, each in [as]'s order; the file symbol
          and the section symbols are implicit *)
}

val of_program : X86_ast.asm_program -> t
(** Raises [X86_encode.Unsupported] for a construct the encoder does not
    cover: an x87 instruction, [.loc], [.set], a MASM or Mach-O
    directive, an expression with more than one relocatable term, a
    label defined twice. *)

val to_elf : t -> string
(** The object file. *)
