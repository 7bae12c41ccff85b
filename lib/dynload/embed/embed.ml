(* Print an OCaml structure item the host is built with: [contents], the
   bytes of a file (how the host carries [steno_rt.cmi]), or with [-path]
   [path], a file's absolute name (how the host finds its compile
   worker). *)
let () =
  match Sys.argv with
  | [| _; "-path"; file |] ->
    let abs =
      if Filename.is_relative file then Filename.concat (Sys.getcwd ()) file
      else file
    in
    Printf.printf "let path = %S\n" abs
  | [| _; file |] ->
    let data = In_channel.with_open_bin file In_channel.input_all in
    Printf.printf "let contents = %S\n" data
  | _ ->
    prerr_endline "usage: embed [-path] FILE";
    exit 2
