exception Compilation_failed of string

type timings = {
  write_ms : float;
  compile_ms : float;
  load_ms : float;
}

type compiled = {
  run : Obj.t array -> Obj.t;
  timings : timings;
  source_path : string;
}

type error =
  | Unavailable
  | Timeout of { timeout_ms : int }
  | Compile_error of string
  | Load_error of string

let error_message = function
  | Unavailable -> "no native OCaml compiler on PATH"
  | Timeout { timeout_ms } ->
    Printf.sprintf "compiler exceeded %d ms and was killed" timeout_ms
  | Compile_error out -> out
  | Load_error msg -> msg

let keep_artifacts = ref false

let disabled = ref false

(* [Lazy.force] from several domains at once raises [RacyLazy]; the
   process-wide lazies below (scratch dir, compiler probe) are forced
   under one mutex so concurrent engines initialize them safely.  The
   lock is only contended during initialization: both lazies settle on
   first use. *)
let init_mu = Mutex.create ()

let force_shared l = Mutex.protect init_mu (fun () -> Lazy.force l)

let workdir_lazy =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "steno-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     at_exit (fun () ->
         if not !keep_artifacts then
           try
             Sys.readdir dir
             |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
             Unix.rmdir dir
           with Sys_error _ | Unix.Unix_error _ -> ());
     dir)

let workdir () = force_shared workdir_lazy

(* Everything the host needs to know about the native compiler comes
   from one [-config] read: whether it runs at all, its version (for
   the fingerprint), and the [system]/[native_pack_linker] fields that
   decide how a plugin is linked.  The compiler is started from an argv
   list, never through a shell. *)
type toolchain = {
  compiler : string;
  version : string;
  link : string list;  (** extra [ocamlopt] arguments choosing the linker *)
}

(* Start [argv] with stdout and stderr on a close-on-exec pipe and read
   the pipe to EOF, killing the child once [deadline] (absolute, from
   [Unix.gettimeofday]) passes.  The pipe's write end is close-on-exec
   so a compiler started concurrently by another domain never holds it
   open.  Returns the exit status ([None] when killed) and the output.
   [Unix.create_process] raises [Unix_error] itself when [argv.(0)]
   cannot be started. *)
let run_captured ?deadline argv : Unix.process_status option * string =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        try Unix.create_process argv.(0) argv Unix.stdin wr wr
        with e ->
          Unix.close rd;
          raise e)
  in
  let out = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec drain () =
    let wait =
      match deadline with
      | None -> -1.0
      | Some d -> d -. Unix.gettimeofday ()
    in
    if deadline <> None && wait <= 0.0 then false
    else
      match Unix.select [ rd ] [] [] wait with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | [], _, _ -> drain ()
      | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | n ->
          Buffer.add_subbytes out chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ())
  in
  let kill () = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> () in
  let finished =
    match Fun.protect ~finally:(fun () -> Unix.close rd) drain with
    | finished -> finished
    | exception e ->
      kill ();
      ignore (Unix.waitpid [] pid);
      raise e
  in
  if not finished then kill ();
  let status = snd (Unix.waitpid [] pid) in
  ((if finished then Some status else None), Buffer.contents out)

let probe candidate =
  match run_captured [| candidate; "-config" |] with
  | exception Unix.Unix_error _ -> None
  | Some (Unix.WEXITED 0), out ->
    let field key =
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = key ->
            let n = String.length line - i - 1 in
            Some (String.trim (String.sub line (i + 1) n))
          | _ -> None)
        (String.split_on_char '\n' out)
    in
    (* On ELF/Linux, [ld] links the plugin directly with the output
       flags [gcc -shared] would give it; gcc's crt objects and
       [-lc -lgcc -lgcc_s] are left out ([--as-needed] drops those
       libraries from a plugin anyway).  The [ld] is the one OCaml
       itself packs with.  Other systems keep ocamlopt's own link. *)
    let link =
      match field "system", field "native_pack_linker" with
      | Some "linux", Some pack -> (
        match String.split_on_char ' ' pack with
        | ld :: _ when ld <> "" ->
          [ "-cc"; ld ^ " --build-id --eh-frame-hdr --hash-style=gnu -shared" ]
        | _ -> [])
      | _ -> []
    in
    Option.map (fun version -> { compiler = candidate; version; link })
      (field "version")
  | _ -> None

let toolchain_lazy = lazy (List.find_map probe [ "ocamlopt.opt"; "ocamlopt" ])

let toolchain () = force_shared toolchain_lazy

let is_available () =
  (not !disabled) && Dynlink.is_native && toolchain () <> None

(* Plugins reference [Steno_rt]: they compile against the copy of its
   interface the host carries ([Steno_rt_cmi]) and link against the
   host's own unit. *)
let rt_digest =
  String.sub (Digest.to_hex (Digest.string Steno_rt_cmi.contents)) 0 8

(* Toolchain/ABI fingerprint for the persistent plugin cache: a [.cmxs]
   built by one compiler, or against another [Steno_rt] interface, must
   never be offered to this runtime, so the on-disk store namespaces
   entries by this string.  Forced under [init_mu] already, so it forces
   the toolchain directly. *)
let fingerprint_lazy =
  lazy
    (Printf.sprintf "ocaml%s-w%d-%s-rt%s" Sys.ocaml_version Sys.word_size
       (match Lazy.force toolchain_lazy with
       | None -> "nocc"
       | Some t -> t.version)
       rt_digest)

let fingerprint () = force_shared fingerprint_lazy

let next_plugin = Atomic.make 0

(* Dynlink is not re-entrant; serialize loads across domains. *)
let load_mutex = Mutex.create ()

let now_ms () = Unix.gettimeofday () *. 1000.0

(* The plugin's initializer raises [Steno_result fn]; Dynlink surfaces
   initializer exceptions wrapped in [Library's_module_initializers_failed].
   We verify the exception constructor's name before trusting the
   payload. *)
let extract_result (e : exn) : (Obj.t array -> Obj.t) option =
  let r = Obj.repr e in
  if Obj.is_block r && Obj.size r = 2 then begin
    let slot = Obj.field r 0 in
    if
      Obj.is_block slot
      && Obj.size slot >= 1
      && Obj.tag (Obj.field slot 0) = Obj.string_tag
      && (let name : string = Obj.obj (Obj.field slot 0) in
          String.equal name "Steno_result"
          || (String.length name > 13
             && String.equal
                  (String.sub name (String.length name - 13) 13)
                  ".Steno_result"))
    then Some (Obj.obj (Obj.field r 1))
    else None
  end
  else None

(* Run the compiler to completion or to the deadline.  Its output is
   read from a pipe, so no log file is written, and the wait is a
   [select] on that pipe rather than a poll loop. *)
let run_compiler ?timeout_ms argv : (unit, error) result =
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
      timeout_ms
  in
  match run_captured ?deadline argv with
  | None, _ ->
    Error (Timeout { timeout_ms = Option.value timeout_ms ~default:0 })
  | Some (Unix.WEXITED 0), _ -> Ok ()
  | Some st, out ->
    let describe = function
      | Unix.WEXITED c -> Printf.sprintf "exit %d" c
      | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
      | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
    in
    Error
      (Compile_error
         (Printf.sprintf "command failed (%s): %s\n%s" (describe st)
            (String.concat " " (List.map Filename.quote (Array.to_list argv)))
            out))

type artifact = {
  a_cmxs : string;
  a_ml : string;
  a_modname : string;
  a_write_ms : float;
  a_compile_ms : float;
}

let remove_files dir modname =
  List.iter
    (fun ext ->
      try Sys.remove (Filename.concat dir (modname ^ ext))
      with Sys_error _ -> ())
    [ ".cmi"; ".cmx"; ".o"; ".cmxs"; ".ml" ]

(* A missing workdir, a full disk, or a compiler that vanished after
   the probe raise [Sys_error]/[Unix_error]; they are compile failures
   like any other, so the engine can fall back instead of raising. *)
let io_failure f =
  try f () with
  | Sys_error msg -> Error (Compile_error msg)
  | Unix.Unix_error (e, fn, arg) ->
    Error
      (Compile_error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))

(* Make [dir]'s [steno_rt.cmi] the one this host carries.  Checked on
   every compile rather than trusted once written: the workdir can be
   removed while the process runs, and one left behind by an earlier
   process with the same pid may hold another build's interface.
   Written under a private name and renamed, so a compiler started
   concurrently never reads half of it. *)
let ensure_rt_cmi dir ~id =
  let path = Filename.concat dir "steno_rt.cmi" in
  let current =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error _ -> ""
  in
  if not (String.equal current Steno_rt_cmi.contents) then begin
    let tmp = Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) id in
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc Steno_rt_cmi.contents);
    Sys.rename tmp path
  end

(* Compile-only half: write the source and run the external compiler,
   leaving the artifacts on disk for the caller to load (and, with the
   persistent cache, to copy into the store).  Pair with {!load_file}
   and {!remove_artifact}. *)
let compile_artifact ?timeout_ms ~source () : (artifact, error) result =
  if !disabled then Error Unavailable
  else
    match toolchain () with
    | None -> Error Unavailable
    | _ when not Dynlink.is_native -> Error Unavailable
    | Some tc -> (
      let id = Atomic.fetch_and_add next_plugin 1 in
      let modname = Printf.sprintf "steno_plugin_%d_%d" (Unix.getpid ()) id in
      let dir = workdir () in
      let ml = Filename.concat dir (modname ^ ".ml") in
      let cmxs = Filename.concat dir (modname ^ ".cmxs") in
      let t0 = now_ms () in
      let written =
        io_failure (fun () ->
            ensure_rt_cmi dir ~id;
            Out_channel.with_open_text ml (fun oc -> output_string oc source);
            Ok ())
      in
      let t1 = now_ms () in
      let argv =
        Array.of_list
          ((tc.compiler :: "-shared" :: tc.link)
          @ [ "-I"; dir; ml; "-o"; cmxs ])
      in
      match
        Result.bind written (fun () ->
            io_failure (fun () -> run_compiler ?timeout_ms argv))
      with
      | Error e ->
        if not !keep_artifacts then remove_files dir modname;
        Error e
      | Ok () ->
        let t2 = now_ms () in
        Ok
          {
            a_cmxs = cmxs;
            a_ml = ml;
            a_modname = modname;
            a_write_ms = t1 -. t0;
            a_compile_ms = t2 -. t1;
          })

let remove_artifact a =
  if not !keep_artifacts then
    remove_files (Filename.dirname a.a_cmxs) a.a_modname

(* Load-only half: dynlink a plugin [.cmxs] — freshly built or pulled
   from the persistent store — and perform the [Steno_result] handshake.
   [loadfile_private] keeps each load's module in a private namespace,
   so the same module name can be loaded repeatedly in one process and
   a cached artifact's embedded name (stamped by whichever process
   compiled it) never collides with ours. *)
let load_file ~path () : (compiled, error) result =
  if !disabled then Error Unavailable
  else if not Dynlink.is_native then Error Unavailable
  else begin
    let t0 = now_ms () in
    let outcome =
      Mutex.lock load_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock load_mutex)
      @@ fun () ->
      try
        Dynlink.loadfile_private path;
        Error (Load_error "plugin did not hand back a query function")
      with
      | Dynlink.Error (Dynlink.Library's_module_initializers_failed e) -> (
        match extract_result e with
        | Some fn -> Ok fn
        | None ->
          (* A foreign exception escaping the initializer is a host
             bug, not a compilation outcome; let it propagate. *)
          raise e)
      | Dynlink.Error err -> Error (Load_error (Dynlink.error_message err))
    in
    let t1 = now_ms () in
    match outcome with
    | Error _ as e -> e
    | Ok run ->
      Ok
        {
          run;
          timings = { write_ms = 0.0; compile_ms = 0.0; load_ms = t1 -. t0 };
          source_path = path;
        }
  end

let compile_result ?timeout_ms ~source () : (compiled, error) result =
  match compile_artifact ?timeout_ms ~source () with
  | Error e -> Error e
  | Ok a -> (
    let finish outcome =
      remove_artifact a;
      outcome
    in
    match
      try load_file ~path:a.a_cmxs ()
      with e ->
        remove_artifact a;
        raise e
    with
    | Error _ as e -> finish e
    | Ok c ->
      finish
        (Ok
           {
             c with
             timings =
               {
                 write_ms = a.a_write_ms;
                 compile_ms = a.a_compile_ms;
                 load_ms = c.timings.load_ms;
               };
             source_path = a.a_ml;
           }))

let compile ~source =
  match compile_result ~source () with
  | Ok c -> c
  | Error e -> raise (Compilation_failed (error_message e))
