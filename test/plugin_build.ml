(* Write, compile and load a plugin with the three calls the engine
   makes: [Dynload.compile_artifact], [Dynload.load_file], then
   [Dynload.remove_artifact].  The timings are the build's and the
   load's, as the engine reports them. *)

let compile_result ?timeout_ms ~source () =
  match Dynload.compile_artifact ?timeout_ms ~source () with
  | Error e -> Error e
  | Ok a ->
    Fun.protect
      ~finally:(fun () -> Dynload.remove_artifact a)
      (fun () ->
        Result.map
          (fun (c : Dynload.compiled) ->
            {
              c with
              timings =
                {
                  write_ms = a.a_write_ms;
                  compile_ms = a.a_compile_ms;
                  load_ms = c.timings.load_ms;
                };
              source_path = a.a_ml;
            })
          (Dynload.load_file ~path:a.a_cmxs ()))

(* Raises [Dynload.Compilation_failed] with the error's message. *)
let compile ~source =
  match compile_result ~source () with
  | Ok c -> c
  | Error e -> raise (Dynload.Compilation_failed (Dynload.error_message e))
