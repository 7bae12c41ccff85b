(* amd64: the unit and its startup code go through [X86_merge] into one
   object, which [X86_object] encodes in-process. *)

let in_process = true

let install () =
  Emitaux.binary_backend_available := true;
  X86_proc.register_internal_assembler (X86_merge.hook ~assemble:X86_object.write)

let reset = X86_merge.reset
