(* The resident compile worker: one long-lived process that builds
   plugins with compiler-libs, in-process, instead of a fresh [ocamlopt]
   per query.

   Requests arrive on stdin, replies leave on stdout, both framed by
   [Wire].  A request is [ml; cmxs; dir]: compile the module [ml] with
   [-I dir] and link it as the plugin [cmxs], as [ocamlopt -shared -I dir
   ml -o cmxs] would.  The reply is [status; text; live_words; retire]:
   - [status] is ["ok"], ["error"] (with the diagnostics as [text]) or
     ["unavailable"] (no assembler or linker on PATH);
   - [live_words] is the live heap at the last measurement (0 before the
     first);
   - [retire] is ["1"] when the worker exits after this reply.
   The worker exits at end of file on stdin, so it dies with its host.

   It leads its own process group ([setsid]), so a host that kills that
   group at a deadline kills [as] and [ld] too.

   Where [ld] links directly (below), [as] runs once per plugin: the
   unit and its startup code are assembled together ([Merged_asm]). *)

(* How [ocamlopt] itself drives the native back end (its [Optmain]). *)
module Backend = struct
  let symbol_for_global' = Compilenv.symbol_for_global'
  let closure_symbol = Compilenv.closure_symbol
  let really_import_approx = Import_approx.really_import_approx
  let import_symbol = Import_approx.import_symbol
  let size_int = Arch.size_int
  let big_endian = Arch.big_endian

  let max_sensible_number_of_arguments =
    Proc.max_arguments_for_tailcalls - 1
end

let backend = (module Backend : Backend_intf.S)

(* On ELF/Linux, [ld] links the plugin directly with the output flags
   [gcc -shared] would give it; gcc's crt objects and [-lc -lgcc
   -lgcc_s] are left out ([--as-needed] drops those libraries from a
   plugin anyway).  The [ld] is the one OCaml itself packs with.  Other
   systems keep the configured link command. *)
let linker =
  match Config.system, String.split_on_char ' ' Config.native_pack_linker with
  | "linux", ld :: _ when ld <> "" ->
    Some (ld ^ " --build-id --eh-frame-hdr --hash-style=gnu -shared")
  | _ -> None

let () = if linker <> None then Merged_asm.install ()

let first_word cmd =
  match String.split_on_char ' ' (String.trim cmd) with
  | w :: _ -> w
  | [] -> cmd

let executable f =
  match Unix.access f [ Unix.X_OK ] with
  | () -> not (Sys.is_directory f)
  | exception Unix.Unix_error _ -> false

(* Whether the shell finds [cmd]'s program, as [Sys.command] will run it. *)
let on_path cmd =
  let prog = first_word cmd in
  if String.contains prog '/' then executable prog
  else
    match Sys.getenv_opt "PATH" with
    | None -> false
    | Some path ->
      List.exists
        (fun d -> executable (Filename.concat (if d = "" then "." else d) prog))
        (String.split_on_char ':' path)

(* The assembler and linker every plugin build runs.  The environment is
   fixed when the host starts the worker, so this is read once. *)
let missing_tools =
  List.filter
    (fun cmd -> not (on_path cmd))
    [ Config.asm; Option.value linker ~default:Config.mkdll ]

let pristine_warnings = Warnings.backup ()

(* Compiler state that outlives a compilation, reset before each one.
   Two tables cannot be reached from outside the compiler and grow with
   every plugin: [Emit]'s sets of defined and used symbols (cleared only
   for Win64's MASM output) and the list of units that [Asmlink] records
   as requiring each global (drained only by an executable link).  The
   heap bound below caps them. *)
let reset ~dir =
  Warnings.restore pristine_warnings;
  Warnings.reset_fatal ();
  Env.reset_cache ();
  Typecore.reset_delayed_checks ();
  Ident.reinit ();
  Cmm.reset ();
  Asmlink.reset ();
  Profile.reset ();
  Merged_asm.reset ();
  Clflags.native_code := true;
  Clflags.shared := true;
  Clflags.include_dirs := [ dir ];
  Clflags.c_compiler := linker;
  Clflags.ccobjs := [];
  Clflags.all_ccopts := []

(* [Optcompile.implementation] reads the load path from [Clflags] itself
   ([Compmisc.init_path]); the link needs it read again, as in
   [ocamlopt]. *)
let compile ~ml ~cmxs ~dir =
  reset ~dir;
  let output_prefix = Filename.remove_extension ml in
  Optcompile.implementation ~backend ~start_from:Clflags.Compiler_pass.Parsing
    ~source_file:ml ~output_prefix;
  Compmisc.init_path ();
  Asmlink.link_shared ~ppf_dump:Format.err_formatter
    [ output_prefix ^ ".cmx" ]
    cmxs;
  Warnings.check_fatal ()

(* What [as], [ld] and the compiler's own warnings printed: the worker's
   stdout and stderr are this unlinked file, emptied before each request. *)
let log =
  match Filename.temp_file "steno-worker" ".log" with
  | path ->
    let fd =
      Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o600
    in
    Sys.remove path;
    fd
  | exception Sys_error _ ->
    Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let log_contents () =
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr;
  ignore (Unix.lseek log 0 Unix.SEEK_SET);
  let b = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read log chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ()

(* Diagnostics for a failed build, and whether the worker's state is
   still to be trusted: exceptions with a compiler error printer (type
   errors, assembler and linker failures) leave it sound. *)
let diagnose ~cmxs e =
  (try Sys.remove (cmxs ^ ".startup" ^ Config.ext_obj) with Sys_error _ -> ());
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  let known =
    match Location.report_exception ppf e with
    | () -> true
    | exception e ->
      Format.pp_print_string ppf (Printexc.to_string e);
      false
  in
  Format.pp_print_flush ppf ();
  (Buffer.contents b ^ log_contents (), known)

(* The live heap, measured after the first compile and then every
   [measure_every] compiles, off the reply path.  Once it reaches twice
   the first measurement the worker retires with its next reply and the
   host starts a fresh one. *)
let measure_every = 64

let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

let serve requests replies =
  let compiles = ref 0 and first_live = ref 0 and last_live = ref 0 in
  let retire = ref false in
  let rec loop () =
    match Wire.read requests with
    | Wire.Message [ ml; cmxs; dir ] ->
      Unix.ftruncate log 0;
      let status, text, sound =
        if missing_tools <> [] then
          ( "unavailable",
            "not on PATH: " ^ String.concat ", " (List.map first_word missing_tools),
            true )
        else
          match compile ~ml ~cmxs ~dir with
          | () -> ("ok", "", true)
          | exception e ->
            let text, sound = diagnose ~cmxs e in
            ("error", text, sound)
      in
      if not sound then retire := true;
      Wire.write replies
        [ status; text; string_of_int !last_live; (if !retire then "1" else "0") ];
      if !retire then exit 0;
      incr compiles;
      if !compiles = 1 || !compiles mod measure_every = 0 then begin
        last_live := live_words ();
        if !first_live = 0 then first_live := !last_live
        else if !last_live >= 2 * !first_live then retire := true
      end;
      loop ()
    | Wire.Closed -> exit 0
    | Wire.Message _ | Wire.Late | Wire.Garbled -> exit 2
  in
  loop ()

let () =
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  (* The pipes move to private descriptors; [as] and [ld] inherit only
     /dev/null and the log. *)
  let requests = Unix.dup ~cloexec:true Unix.stdin
  and replies = Unix.dup ~cloexec:true Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Unix.dup2 null Unix.stdin;
  Unix.close null;
  Unix.dup2 log Unix.stdout;
  Unix.dup2 log Unix.stderr;
  serve requests replies
