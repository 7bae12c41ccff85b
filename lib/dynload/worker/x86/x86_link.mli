(** A plugin's relocatable object to its shared object, in-process: the
    image GNU [ld --build-id --eh-frame-hdr --hash-style=gnu -shared]
    makes of it, byte for byte (the oracle test in [test/oracle] holds
    it to that). *)

exception Unsupported of string
(** A construct the linker does not cover, described: a relocation
    ([R_X86_64_32] against [foo] in [.text]: ...), a section, or a
    symbol reached through both the PLT and the GOT. *)

val link : X86_object.t -> string
(** The shared object.  Keeps no state between calls. *)
