(* No in-process encoder or linker outside amd64: [as] and the link
   command run. *)

let in_process = false

let install () = ()

let reset () = ()

let link ~cmx:_ ~cmxs:_ = invalid_arg "Plugin_link.link: no in-process link here"
