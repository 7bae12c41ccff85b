(* The resident compile worker: [Worker_loop] serving plugin builds with
   the production assembler (on Linux/amd64, the in-process encoder). *)

let () =
  Steno_compile.install ();
  Worker_loop.run ()
