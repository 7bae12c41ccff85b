(* No in-process encoder off amd64: the production worker. *)

let () =
  Steno_compile.install ();
  Worker_loop.run ()
