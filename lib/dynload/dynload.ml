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

(* The programs a plugin build runs: none on Linux/amd64, where the
   worker encodes and links each plugin itself. *)
let build_tools =
  if Steno_worker_build.system = "linux" && Steno_worker_build.architecture = "amd64"
  then None
  else Some "an assembler (as) or linker"

let error_message = function
  | Unavailable -> (
    match build_tools with
    | None -> "no native compiler: the compile worker is missing"
    | Some tools ->
      Printf.sprintf
        "no native compiler: the compile worker, or %s on its PATH, is missing" tools)
  | Timeout { timeout_ms } ->
    Printf.sprintf "compiler exceeded %d ms and was killed" timeout_ms
  | Compile_error out -> out
  | Load_error msg -> msg

let keep_artifacts = ref false

let disabled = ref false

(* [Lazy.force] from several domains at once raises [RacyLazy]; the
   process-wide workdir below is forced under one mutex so
   concurrent engines initialize it safely.  The lock is only contended
   during initialization: the lazy settles on first use. *)
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

let is_available () =
  (not !disabled) && Dynlink.is_native
  && Sys.file_exists Steno_worker_build.path

(* Plugins reference [Steno_rt]: they compile against the copy of its
   interface the host carries ([Steno_rt_cmi]) and link against the
   host's own unit. *)
let rt_digest =
  String.sub (Digest.to_hex (Digest.string Steno_rt_cmi.contents)) 0 8

(* Toolchain/ABI fingerprint for the persistent plugin cache: a [.cmxs]
   built by one compiler, or against another [Steno_rt] interface, must
   never be offered to this runtime, so the on-disk store namespaces
   entries by this string.  The worker is built by the compiler that
   built the host, so the build records its version. *)
let fingerprint () =
  Printf.sprintf "ocaml%s-w%d-%s-rt%s" Sys.ocaml_version Sys.word_size
    Steno_worker_build.ocaml_version rt_digest

(* --- The compile workers ---------------------------------------------- *)

(* A resident compiler process ([worker/steno_worker.ml]) and the host's
   ends of its two pipes, both close-on-exec so no other child holds
   them. *)
type worker = {
  pid : int;
  requests : Unix.file_descr;
  replies : Unix.file_descr;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let start_worker () =
  (* A write to a worker that died would raise SIGPIPE, whose default
     disposition kills the host; ignored, it is [Unix_error EPIPE].
     ([Invalid_argument]: platforms without SIGPIPE.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let exe = Steno_worker_build.path in
  match Unix.create_process exe [| exe |] req_r rep_w Unix.stderr with
  | pid ->
    List.iter close_quietly [ req_r; rep_w ];
    { pid; requests = req_w; replies = rep_r }
  | exception e ->
    List.iter close_quietly [ req_r; req_w; rep_r; rep_w ];
    raise e

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> None

(* Retire a worker and reap it.  Closing its request pipe ends an idle
   worker; [kill] SIGKILLs its process group (the worker leads its own
   group), so any [as] or [ld] it started dies with it. *)
let stop ?(kill = false) w =
  if kill then
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      [ -w.pid; w.pid ];
  List.iter close_quietly [ w.requests; w.replies ];
  reap w.pid

(* Idle workers, one stack per domain.  A compile pops one of its
   domain's or starts a new one and pushes it back afterwards, so a
   domain has as many workers as it ever ran compiles at once, and no
   compile queues behind another.  A worker inherits the CPU affinity of
   the thread that starts it: kept per domain, a domain pinned to a CPU
   compiles on that CPU, as it did when each plugin was a fresh child
   process, rather than on the CPU of whichever domain started the
   worker.  A domain's idle workers stop when it exits. *)
let pool_mu = Mutex.create ()

let idle_key : worker list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let idle = ref [] in
      Domain.at_exit (fun () ->
          let ws =
            Mutex.protect pool_mu (fun () ->
                let ws = !idle in
                idle := [];
                ws)
          in
          List.iter (fun w -> ignore (stop w)) ws);
      idle)

(* An idle worker can die (killed, out of memory); one that has is
   reaped here, before a request is written to it. *)
let exited w =
  match Unix.waitpid [ Unix.WNOHANG ] w.pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error _) -> true

let rec acquire () =
  let idle = Domain.DLS.get idle_key in
  let popped =
    Mutex.protect pool_mu (fun () ->
        match !idle with
        | w :: rest ->
          idle := rest;
          Some w
        | [] -> None)
  in
  match popped with
  | None -> start_worker ()
  | Some w when exited w ->
    List.iter close_quietly [ w.requests; w.replies ];
    acquire ()
  | Some w -> w

let release w =
  let idle = Domain.DLS.get idle_key in
  Mutex.protect pool_mu (fun () -> idle := w :: !idle)

let describe_status = function
  | Some (Unix.WEXITED c) -> Printf.sprintf "exited with code %d" c
  | Some (Unix.WSIGNALED s) -> Printf.sprintf "was killed by signal %d" s
  | Some (Unix.WSTOPPED s) -> Printf.sprintf "was stopped by signal %d" s
  | None -> "is gone"

(* Build [ml] into [cmxs] in a worker, within the deadline.  A worker
   that misses it, dies, or answers anything but a well-formed reply is
   killed and not reused. *)
let build ?timeout_ms ~ml ~cmxs ~dir () : (unit, error) result =
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
      timeout_ms
  in
  let w = acquire () in
  let failed why =
    let status = stop ~kill:true w in
    Error
      (Compile_error
         (Printf.sprintf "compile worker %d %s: %s" w.pid
            (describe_status status) why))
  in
  match
    Wire.write w.requests [ ml; cmxs; dir ];
    Wire.read ?deadline w.replies
  with
  | Wire.Message
      [ (("ok" | "error" | "unavailable") as status); text; _live_words;
        (("0" | "1") as retiring) ] -> (
    if retiring = "1" then ignore (stop w) else release w;
    match status with
    | "ok" -> Ok ()
    | "unavailable" -> Error Unavailable
    | _ -> Error (Compile_error text))
  | Wire.Late ->
    ignore (stop ~kill:true w);
    Error (Timeout { timeout_ms = Option.value timeout_ms ~default:0 })
  | Wire.Closed -> failed "no reply"
  | Wire.Message _ | Wire.Garbled -> failed "unreadable reply"
  | exception Unix.Unix_error (e, fn, _) ->
    failed (Printf.sprintf "%s: %s" fn (Unix.error_message e))

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

type artifact = {
  a_cmxs : string;
  a_ml : string;
  a_modname : string;
  a_write_ms : float;
  a_compile_ms : float;
}

(* What a build leaves in the workdir: the source and the plugin, and
   where an assembler and a linker program build it, the unit's [.cmx]
   and object. *)
let remove_files dir modname =
  List.iter
    (fun ext ->
      try Sys.remove (Filename.concat dir (modname ^ ext))
      with Sys_error _ -> ())
    (if build_tools = None then [ ".cmxs"; ".ml" ]
     else [ ".cmx"; ".o"; ".cmxs"; ".ml" ])

(* A missing workdir, a full disk, or a worker that cannot be started
   raise [Sys_error]/[Unix_error]; they are compile failures like any
   other, so the engine can fall back instead of raising. *)
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

(* Compile-only half: write the source and build it in a compile
   worker, leaving the artifacts on disk for the caller to load (and,
   with the persistent cache, to copy into the store).  Pair with
   {!load_file} and {!remove_artifact}. *)
let compile_artifact ?timeout_ms ~source () : (artifact, error) result =
  if not (is_available ()) then Error Unavailable
  else
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
    match
      Result.bind written (fun () ->
          io_failure (build ?timeout_ms ~ml ~cmxs ~dir))
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
        }

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
