(* The loop of the resident compile worker: one long-lived process that
   builds plugins with compiler-libs, in-process, instead of a fresh
   [ocamlopt] per query.

   Requests arrive on stdin, replies leave on stdout, both framed by
   [Wire].  A request is [ml; cmxs; dir]: compile the module [ml] with
   [-I dir] and link it as the plugin [cmxs], as [ocamlopt -shared -I dir
   ml -o cmxs] would.  The reply is [status; text; live_words; retire]:
   - [status] is ["ok"], ["error"] (with the diagnostics as [text]) or
     ["unavailable"] (a tool the build runs is not on PATH);
   - [live_words] is the live heap at the last measurement (0 before the
     first);
   - [retire] is ["1"] when the worker exits after this reply.
   The worker exits at end of file on stdin, so it dies with its host.

   It leads its own process group ([setsid]), so a host that kills that
   group at a deadline kills any [as] or linker it started too.

   The build itself is [Steno_compile.compile], with the assembler hook
   the caller installed ([Steno_compile.install] for the worker).  On
   Linux/amd64 it starts no process: the unit and its startup code are
   encoded together into one object and linked into the plugin, in this
   process ([Plugin_link]).  Elsewhere [as] and the linker run. *)

(* What the tools, if any, and the compiler's own warnings printed: the
   worker's stdout and stderr are this unlinked file, emptied before
   each request. *)
let open_log () =
  match Filename.temp_file "steno-worker" ".log" with
  | path ->
    let fd =
      Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o600
    in
    Sys.remove path;
    fd
  | exception Sys_error _ ->
    Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let log_contents log =
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
   errors, assembler and linker failures, a construct the in-process
   encoder or linker rejects) leave it sound. *)
let diagnose ~log ~cmxs e =
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
  (Buffer.contents b ^ log_contents log, known)

(* The live heap, measured after the first compile and then every
   [measure_every] compiles, off the reply path.  Once it reaches twice
   the first measurement the worker retires with its next reply and the
   host starts a fresh one. *)
let measure_every = 64

let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

let serve ~log ~missing_tools requests replies =
  let compiles = ref 0 and first_live = ref 0 and last_live = ref 0 in
  let retire = ref false in
  let rec loop () =
    match Wire.read requests with
    | Wire.Message [ ml; cmxs; dir ] ->
      Unix.ftruncate log 0;
      let status, text, sound =
        if missing_tools <> [] then
          ( "unavailable",
            "not on PATH: " ^ String.concat ", " missing_tools,
            true )
        else
          match Steno_compile.compile ~ml ~cmxs ~dir with
          | () -> ("ok", "", true)
          | exception e ->
            let text, sound = diagnose ~log ~cmxs e in
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

let run () =
  (* The tools are on the PATH the host started the worker with, fixed
     for its life, so this is read once. *)
  let missing_tools = Steno_compile.missing_tools () in
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  let log = open_log () in
  (* The pipes move to private descriptors; a tool the build runs
     inherits only /dev/null and the log. *)
  let requests = Unix.dup ~cloexec:true Unix.stdin
  and replies = Unix.dup ~cloexec:true Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Unix.dup2 null Unix.stdin;
  Unix.close null;
  Unix.dup2 log Unix.stdout;
  Unix.dup2 log Unix.stderr;
  serve ~log ~missing_tools requests replies
