(* No internal-assembler hook outside amd64: both [as] runs stay. *)

let in_process = false

let install () = ()

let reset () = ()
