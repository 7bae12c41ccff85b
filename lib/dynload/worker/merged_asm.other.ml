(* No internal-assembler hook outside amd64: both [as] runs stay. *)

let install () = ()

let reset () = ()
