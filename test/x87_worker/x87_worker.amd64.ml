(* The production worker, except that the program of a plugin whose
   object is named [*x87*] ends with [fld1], which the encoder does not
   cover, and that of one named [*abs32*] with a 32-bit absolute
   address ([R_X86_64_32]), which the linker rejects in a shared
   object. *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let () =
  Steno_compile.install ();
  X86_proc.register_internal_assembler (fun program obj ->
      let name = Filename.basename obj in
      let tail insn = program @ [ X86_ast.Section ([ ".text" ], None, []); X86_ast.Ins insn ] in
      let program =
        if contains name "x87" then tail X86_ast.FLD1
        else if contains name "abs32" then
          tail (X86_ast.MOV (X86_ast.Sym "steno_absolute", X86_ast.Reg32 X86_ast.RAX))
        else program
      in
      X86_merge.hook program obj);
  Worker_loop.run ()
