(* Print an OCaml structure item the host is built with: [contents], the
   bytes of a file (how the host carries [steno_rt.cmi]), with [-path]
   [path], a file's absolute name (how the host finds its compile
   worker), or with [-digest] [digest], the MD5 of a set of files' names
   and bytes (how the plan memo's disk records name the sources that
   wrote them). *)
let read file = In_channel.with_open_bin file In_channel.input_all

let () =
  match Array.to_list Sys.argv with
  | [ _; "-path"; file ] ->
    let abs =
      if Filename.is_relative file then Filename.concat (Sys.getcwd ()) file
      else file
    in
    Printf.printf "let path = %S\n" abs
  | _ :: "-digest" :: files ->
    (* Sorted, and each name and content length-prefixed, so the digest
       depends on the set of files and not on the order dune lists
       them. *)
    let b = Buffer.create 4096 in
    List.iter
      (fun f ->
        let data = read f in
        Printf.bprintf b "%d:%s%d:%s" (String.length f) f (String.length data)
          data)
      (List.sort compare files);
    Printf.printf "let digest = %S\n"
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  | [ _; file ] -> Printf.printf "let contents = %S\n" (read file)
  | _ ->
    prerr_endline "usage: embed [-path FILE | -digest FILE... | FILE]";
    exit 2
