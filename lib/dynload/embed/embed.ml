(* Print an OCaml structure binding [contents] to the bytes of the file
   named by the first argument: how the host carries [steno_rt.cmi]. *)
let () =
  let data = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  Printf.printf "let contents = %S\n" data
