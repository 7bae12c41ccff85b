(** Machine code for one [X86_ast] instruction, byte for byte as GNU
    [as] encodes the line [X86_gas] prints for it. *)

exception Unsupported of string
(** A construct the encoder does not cover, described. *)

val unsupported : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Unsupported} with a formatted description. *)

(** How a field that names a symbol becomes bytes. *)
type kind =
  | Abs  (** [R_X86_64_64], [_32], [_16] or [_8], by size *)
  | Abs_signed  (** [R_X86_64_32S] *)
  | Pc  (** [R_X86_64_PC32] *)
  | Plt  (** [R_X86_64_PLT32] *)
  | Gotpcrel  (** [R_X86_64_GOTPCREL] *)
  | Gotpcrelx  (** [R_X86_64_GOTPCRELX] *)
  | Rex_gotpcrelx  (** [R_X86_64_REX_GOTPCRELX] *)

type fixup = {
  at : int;  (** offset of the field in the instruction *)
  size : int;  (** bytes *)
  symbol : string;  (** without its [@PLT] or [@GOTPCREL] *)
  addend : int64;
      (** for a RIP-relative field, already less the bytes from the field
          to the end of the instruction *)
  kind : kind;
}

type t =
  | Code of { bytes : Bytes.t; fixups : fixup list }
  | Branch of { cond : X86_ast.condition option; target : string }
      (** a jump to a symbol: its form waits for the layout *)

val encode : X86_ast.instruction -> t
(** Raises {!Unsupported} for an x87 instruction or an operand form
    [as] would reject. *)

val branch_short : X86_ast.condition option -> string
(** The opcode of a jump with an 8-bit displacement ([None]: [jmp]). *)

val branch_long : X86_ast.condition option -> string
(** The opcode bytes of a jump with a 32-bit displacement. *)

val split_suffix : string -> string * string
(** ["foo@PLT"] is [("foo", "PLT")]; ["foo"] is [("foo", "")]. *)

val add_le : Buffer.t -> int -> int64 -> unit
(** [add_le b size v] appends the low [size] bytes of [v], little-endian. *)
