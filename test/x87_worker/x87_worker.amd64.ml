(* The production worker, except that the program of a plugin whose
   object is named [*x87*] ends with [fld1]. *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let () =
  Steno_compile.install ();
  X86_proc.register_internal_assembler
    (X86_merge.hook ~assemble:(fun program obj ->
         let program =
           if contains (Filename.basename obj) "x87" then
             program @ [ X86_ast.Section ([ ".text" ], None, []); X86_ast.Ins X86_ast.FLD1 ]
           else program
         in
         X86_object.write program obj));
  Worker_loop.run ()
