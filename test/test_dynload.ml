(* The runtime compilation substrate: plugin lifecycle, error handling,
   timing accounting, and concurrent use from domains. *)

let with_native f =
  if Dynload.is_available () then f ()
  else print_endline "(skipped: no native compiler)"

let minimal_plugin body =
  Printf.sprintf
    "exception Steno_result of Stdlib.Obj.t\n\
     let __query (__env : Stdlib.Obj.t array) : Stdlib.Obj.t = ignore __env; %s\n\
     let () = Stdlib.raise (Steno_result (Stdlib.Obj.repr __query))\n"
    body

let test_roundtrip () =
  with_native @@ fun () ->
  let c = Dynload.compile ~source:(minimal_plugin "Stdlib.Obj.repr 42") in
  let v : int = Obj.obj (c.Dynload.run [||]) in
  Alcotest.(check int) "value" 42 v;
  (* Re-running the same compiled plugin works. *)
  Alcotest.(check int) "rerun" 42 (Obj.obj (c.Dynload.run [||]))

let test_env_passing () =
  with_native @@ fun () ->
  let c =
    Dynload.compile
      ~source:
        (minimal_plugin
           "Stdlib.Obj.repr ((Stdlib.Obj.obj (Stdlib.Array.get __env 0) : \
            int) * 2)")
  in
  Alcotest.(check int) "env slot read" 14 (Obj.obj (c.Dynload.run [| Obj.repr 7 |]));
  Alcotest.(check int) "new env, same plugin" 20
    (Obj.obj (c.Dynload.run [| Obj.repr 10 |]))

let test_syntax_error () =
  with_native @@ fun () ->
  Alcotest.(check bool) "syntax error reported" true
    (match Dynload.compile ~source:"let x = (" with
    | exception Dynload.Compilation_failed msg ->
      String.length msg > 0
    | _ -> false)

let test_type_error () =
  with_native @@ fun () ->
  Alcotest.(check bool) "type error reported" true
    (match Dynload.compile ~source:(minimal_plugin "1 + true") with
    | exception Dynload.Compilation_failed _ -> true
    | _ -> false)

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* With a deadline the compiler's output comes back through a pipe the
   host waits on; both outcomes must look as they do without one. *)
let test_deadline_ok () =
  with_native @@ fun () ->
  match
    Dynload.compile_result ~timeout_ms:60_000
      ~source:(minimal_plugin "Stdlib.Obj.repr 11") ()
  with
  | Ok c -> Alcotest.(check int) "value" 11 (Obj.obj (c.Dynload.run [||]))
  | Error e -> Alcotest.fail (Dynload.error_message e)

let test_deadline_type_error () =
  with_native @@ fun () ->
  match
    Dynload.compile_result ~timeout_ms:60_000
      ~source:(minimal_plugin "1 + true") ()
  with
  | Error (Dynload.Compile_error msg) ->
    Alcotest.(check bool) "carries the compiler's message" true
      (contains msg "This expression has type bool")
  | Error e -> Alcotest.fail (Dynload.error_message e)
  | Ok _ -> Alcotest.fail "type error compiled"

let test_plugin_without_handshake () =
  with_native @@ fun () ->
  (* A module that loads fine but never raises the handshake exception. *)
  Alcotest.(check bool) "missing handshake rejected" true
    (match Dynload.compile ~source:"let _x = 1" with
    | exception Dynload.Compilation_failed _ -> true
    | _ -> false)

let test_plugin_initializer_failure () =
  with_native @@ fun () ->
  (* An initializer raising an unrelated exception must not be mistaken
     for the handshake. *)
  Alcotest.(check bool) "foreign exception propagates" true
    (match Dynload.compile ~source:"let () = failwith \"boom\"" with
    | exception Failure msg -> String.equal msg "boom"
    | exception _ -> false
    | _ -> false)

let test_timings () =
  with_native @@ fun () ->
  let c = Dynload.compile ~source:(minimal_plugin "Stdlib.Obj.repr 0") in
  let t = c.Dynload.timings in
  Alcotest.(check bool) "compile time is real" true (t.Dynload.compile_ms > 1.0);
  Alcotest.(check bool) "write time nonneg" true (t.Dynload.write_ms >= 0.0);
  Alcotest.(check bool) "load time nonneg" true (t.Dynload.load_ms >= 0.0)

let test_many_plugins () =
  with_native @@ fun () ->
  (* Distinct module names allow unbounded plugin loads in one process. *)
  List.iter
    (fun i ->
      let c =
        Dynload.compile
          ~source:(minimal_plugin (Printf.sprintf "Stdlib.Obj.repr %d" i))
      in
      Alcotest.(check int) "each plugin distinct" i (Obj.obj (c.Dynload.run [||])))
    [ 100; 200; 300 ]

let test_concurrent_compiles () =
  with_native @@ fun () ->
  (* Compilation and loading from multiple domains must serialize safely. *)
  let results =
    Domain_pool.run ~workers:4 ~tasks:6 (fun i ->
        let c =
          Dynload.compile
            ~source:(minimal_plugin (Printf.sprintf "Stdlib.Obj.repr (%d * 3)" i))
        in
        (Obj.obj (c.Dynload.run [||]) : int))
  in
  Alcotest.(check (array int)) "all domains compiled"
    (Array.init 6 (fun i -> i * 3))
    results

(* Plugins compile against the [steno_rt.cmi] the host carries and run
   the host's [Steno_rt]: a table a plugin fills is one the host reads. *)
let test_runtime_unit () =
  with_native @@ fun () ->
  let c =
    Dynload.compile
      ~source:
        (minimal_plugin
           "let t = Steno_rt.Int_tbl.create 8 in\n\
            Steno_rt.Int_tbl.add t (1 lsl 40) \"wide\";\n\
            Steno_rt.Int_tbl.add t (-3) \"neg\";\n\
            Stdlib.Obj.repr t")
  in
  let t : string Steno_rt.Int_tbl.t = Obj.obj (c.Dynload.run [||]) in
  Alcotest.(check string) "wide key" "wide"
    (Steno_rt.Int_tbl.find t (1 lsl 40));
  Alcotest.(check string) "negative key" "neg"
    (Steno_rt.Int_tbl.find t (-3));
  Alcotest.(check bool) "absent key" false (Steno_rt.Int_tbl.mem t 3);
  Alcotest.(check bool) "cmi in the workdir" true
    (Sys.file_exists (Filename.concat (Dynload.workdir ()) "steno_rt.cmi"))

(* [Steno_rt.Int_tbl] against [Hashtbl] as the model: keys from the
   edges of the int range and sharing their low bits, rebound, through
   several resizes. *)
let test_int_tbl_model () =
  let t = Steno_rt.Int_tbl.create 1 and model = Hashtbl.create 16 in
  let rng = Random.State.make [| 7 |] in
  let key () =
    match Random.State.int rng 4 with
    | 0 -> Random.State.int rng 1000 - 500
    | 1 -> Random.State.int rng 4096 lsl 40
    | 2 -> if Random.State.bool rng then min_int else max_int
    | _ -> Random.State.bits rng
  in
  for i = 1 to 20_000 do
    let k = key () in
    Steno_rt.Int_tbl.add t k i;
    Hashtbl.add model k i
  done;
  Hashtbl.iter
    (fun k _ ->
      Alcotest.(check int) "newest binding" (Hashtbl.find model k)
        (Steno_rt.Int_tbl.find t k))
    model;
  for _ = 1 to 1000 do
    let k = key () in
    Alcotest.(check bool) "mem" (Hashtbl.mem model k) (Steno_rt.Int_tbl.mem t k)
  done;
  let seen = ref 0 in
  Steno_rt.Int_tbl.iter (fun _ _ -> incr seen) t;
  Alcotest.(check int) "iter visits every binding" (Hashtbl.length model) !seen;
  Alcotest.check_raises "absent key" Not_found (fun () ->
      ignore (Steno_rt.Int_tbl.find (Steno_rt.Int_tbl.create 8) 0))

(* The store namespace names the runtime interface plugins were built
   against, so a store filled against another [Steno_rt] misses instead
   of failing at [Dynlink]; every engine in a process shares it. *)
let test_fingerprint () =
  let digest =
    String.sub (Digest.to_hex (Digest.string Steno_rt_cmi.contents)) 0 8
  in
  let fp = Dynload.fingerprint () in
  Alcotest.(check bool)
    (Printf.sprintf "%S ends with -rt%s" fp digest)
    true
    (String.ends_with ~suffix:("-rt" ^ digest) fp);
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "steno-test-fp-%d" (Unix.getpid ()))
  in
  let engine () =
    Steno.Engine.create Steno.Config.(default |> with_disk_cache ~dir)
  in
  let d1 = Steno.Engine.pcache_dir (engine ())
  and d2 = Steno.Engine.pcache_dir (engine ()) in
  Alcotest.(check bool) "a store dir" true (d1 <> None);
  Alcotest.(check (option string)) "same namespace" d1 d2;
  Alcotest.(check string) "same fingerprint" fp (Dynload.fingerprint ());
  Option.iter
    (fun root ->
      Array.iter (fun f -> Sys.remove (Filename.concat root f)) (Sys.readdir root);
      Unix.rmdir root)
    d1;
  Unix.rmdir dir

(* Link parity: a plugin calling libm through unboxed externals and
   using the runtime's hashing computes exactly what the host does. *)
let test_libm_parity () =
  with_native @@ fun () ->
  let c =
    Dynload.compile
      ~source:
        (minimal_plugin
           "let x : float = Stdlib.Obj.obj (Stdlib.Array.get __env 0) in\n\
            let h = Stdlib.Hashtbl.create 8 in\n\
            Stdlib.Hashtbl.replace h \"k\" (x ** 0.5);\n\
            Stdlib.Obj.repr\n\
           \  (Stdlib.Hashtbl.find h \"k\", Stdlib.exp x, \
            Stdlib.Float.pow x 1.5, Stdlib.Hashtbl.hash \"steno\")")
  in
  let x = 2.75 in
  let sqrt_x, exp_x, pow_x, hash =
    (Obj.obj (c.Dynload.run [| Obj.repr x |]) : float * float * float * int)
  in
  Alcotest.(check (list (float 0.0))) "libm results"
    [ x ** 0.5; exp x; Float.pow x 1.5 ]
    [ sqrt_x; exp_x; pow_x ];
  Alcotest.(check int) "Hashtbl.hash" (Hashtbl.hash "steno") hash

(* Link parity, ELF side: the directly linked plugin keeps the hardening
   the gcc driver gave it (a read-only-after-relocation segment and a
   non-executable stack) and needs no shared library of its own. *)
let on_linux =
  match In_channel.with_open_bin "/proc/version" In_channel.input_line with
  | Some l -> String.starts_with ~prefix:"Linux" l
  | None | (exception Sys_error _) -> false

let test_elf_hardening () =
  if not (on_linux && Dynload.is_available ()) then
    print_endline "(skipped: not a Linux host with a native compiler)"
  else
    match
      Dynload.compile_artifact ~source:(minimal_plugin "Stdlib.Obj.repr 0") ()
    with
    | Error e -> Alcotest.fail (Dynload.error_message e)
    | Ok a ->
      let elf =
        In_channel.with_open_bin a.Dynload.a_cmxs In_channel.input_all
      in
      Dynload.remove_artifact a;
      Alcotest.(check string) "ELF64 little-endian" "\x7fELF\x02\x01"
        (String.sub elf 0 6);
      let u32 o = Int32.to_int (String.get_int32_le elf o) land 0xffff_ffff in
      let u64 o = Int64.to_int (String.get_int64_le elf o) in
      let phoff = u64 0x20 and phsize = String.get_uint16_le elf 0x36 in
      let phdrs =
        List.init (String.get_uint16_le elf 0x38) (fun i ->
            phoff + (i * phsize))
      in
      let find ty = List.find_opt (fun p -> u32 p = ty) phdrs in
      Alcotest.(check bool) "PT_GNU_RELRO present" true
        (find 0x6474e552 <> None);
      (match find 0x6474e551 with
      | None -> Alcotest.fail "no PT_GNU_STACK"
      | Some p -> Alcotest.(check int) "stack not PF_X" 0 (u32 (p + 4) land 1));
      match find 2 (* PT_DYNAMIC *) with
      | None -> Alcotest.fail "no PT_DYNAMIC"
      | Some p ->
        let off = u64 (p + 8) in
        let tags =
          List.init (u64 (p + 32) / 16) (fun i -> u64 (off + (i * 16)))
        in
        Alcotest.(check bool) "no DT_NEEDED" false (List.mem 1 tags)

(* --- Compile workers ---------------------------------------------------

   Plugins build in resident worker processes.  These tests find them as
   this process's children running the worker executable, through /proc,
   so they run on Linux only. *)

let with_workers f =
  if on_linux && Dynload.is_available () then f ()
  else print_endline "(skipped: not a Linux host with a native compiler)"

(* State, parent and process group of [pid], or [None] once it is gone. *)
let proc_stat pid =
  match
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | s -> (
    (* The command name is parenthesized and may hold spaces. *)
    let rest = String.index_from s (String.rindex s ')') ' ' + 1 in
    match String.split_on_char ' ' (String.sub s rest (String.length s - rest)) with
    | state :: ppid :: pgrp :: _ -> Some (state, int_of_string ppid, int_of_string pgrp)
    | _ -> None)

let pids () =
  Sys.readdir "/proc" |> Array.to_list |> List.filter_map int_of_string_opt

let running pid =
  match proc_stat pid with Some (state, _, _) -> state <> "Z" | None -> false

let live_workers () =
  List.filter
    (fun pid ->
      running pid
      && (match proc_stat pid with
         | Some (_, ppid, _) -> ppid = Unix.getpid ()
         | None -> false)
      &&
      match Unix.readlink (Printf.sprintf "/proc/%d/exe" pid) with
      | exe -> exe = Steno_worker_build.path
      | exception Unix.Unix_error _ -> false)
    (pids ())
  |> List.sort compare

let group_members pgid =
  List.filter
    (fun pid ->
      running pid
      && match proc_stat pid with Some (_, _, g) -> g = pgid | None -> false)
    (pids ())

let rec eventually ?(tries = 200) p =
  p () || (tries > 0 && (Unix.sleepf 0.01; eventually ~tries:(tries - 1) p))

let minus a b = List.filter (fun x -> not (List.mem x b)) a

let compile_value n =
  let c =
    Dynload.compile ~source:(minimal_plugin (Printf.sprintf "Stdlib.Obj.repr %d" n))
  in
  (Obj.obj (c.Dynload.run [||]) : int)

(* SIGKILL every idle worker and wait until each is dead; the pool finds
   them so, reaps them, and starts one afresh. *)
let kill_workers () =
  let ws = live_workers () in
  List.iter (fun pid -> Unix.kill pid Sys.sigkill) ws;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "killed worker died" true
        (eventually (fun () -> not (running pid))))
    ws;
  ws

let test_killed_idle_worker () =
  with_workers @@ fun () ->
  ignore (compile_value 1);
  Alcotest.(check bool) "SIGPIPE ignored once a worker started" true
    (Sys.signal Sys.sigpipe Sys.Signal_ignore = Sys.Signal_ignore);
  let killed = kill_workers () in
  Alcotest.(check bool) "there was an idle worker" true (killed <> []);
  Alcotest.(check int) "compiles on a new worker" 2 (compile_value 2);
  let now = live_workers () in
  Alcotest.(check int) "one worker" 1 (List.length now);
  Alcotest.(check (list int)) "not a killed one" now (minus now killed)

let test_sequential_one_worker () =
  with_workers @@ fun () ->
  ignore (kill_workers ());
  for i = 1 to 5 do
    Alcotest.(check int) "value" i (compile_value i)
  done;
  match live_workers () with
  | [ pid ] ->
    Alcotest.(check (option int)) "it leads its own process group" (Some pid)
      (Option.map (fun (_, _, pgrp) -> pgrp) (proc_stat pid))
  | ws ->
    Alcotest.failf "sequential compiles ran on %d workers" (List.length ws)

(* A type error leaves the worker sound: the next plugin compiles in it. *)
let test_error_then_valid () =
  with_workers @@ fun () ->
  ignore (compile_value 0);
  let before = live_workers () in
  (match
     Dynload.compile_result ~source:(minimal_plugin "1 + true") ()
   with
  | Error (Dynload.Compile_error msg) ->
    Alcotest.(check bool) "diagnostic" true
      (contains msg "This expression has type bool")
  | _ -> Alcotest.fail "type error not reported");
  Alcotest.(check int) "valid plugin next" 9 (compile_value 9);
  Alcotest.(check (list int)) "same worker throughout" before (live_workers ())

let large_plugin n =
  let b = Buffer.create 65536 in
  for i = 0 to n - 1 do
    Printf.bprintf b "let f%d x = if x land %d = 0 then x * %d + %d else x - %d\n" i
      (i + 1) (i + 3) i (2 * i)
  done;
  Buffer.add_string b (minimal_plugin "Stdlib.Obj.repr (f0 1)");
  Buffer.contents b

(* A deadline kills the worker's whole process group and the next
   compile gets a new worker. *)
let test_timeout_new_worker () =
  with_workers @@ fun () ->
  ignore (compile_value 0);
  let before = live_workers () in
  (match Dynload.compile_result ~timeout_ms:1 ~source:(large_plugin 400) () with
  | Error (Dynload.Timeout { timeout_ms }) ->
    Alcotest.(check int) "deadline reported" 1 timeout_ms
  | Error e -> Alcotest.fail (Dynload.error_message e)
  | Ok _ -> Alcotest.fail "a large plugin compiled within 1 ms");
  let after = live_workers () in
  let killed = minus before after in
  Alcotest.(check int) "the busy worker was killed" 1 (List.length killed);
  Alcotest.(check (list int)) "none started" [] (minus after before);
  List.iter
    (fun pgid ->
      Alcotest.(check bool) "its process group is gone" true
        (eventually (fun () -> group_members pgid = [])))
    killed;
  Alcotest.(check int) "next compile" 4 (compile_value 4);
  Alcotest.(check int) "on a new worker" 1
    (List.length (minus (live_workers ()) before))

(* The worker's live heap, over 300 compiles, stays under the bound at
   which it retires: twice its size after the first compile.  Driven
   through the worker's own protocol, which reports the heap it last
   measured. *)
let test_worker_heap () =
  with_workers @@ fun () ->
  let exe = Steno_worker_build.path and dir = Dynload.workdir () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  let measured = ref [] in
  for i = 1 to 300 do
    let name = Printf.sprintf "steno_heap_%d_%d" (Unix.getpid ()) i in
    let file ext = Filename.concat dir (name ^ ext) in
    Out_channel.with_open_bin (file ".ml") (fun oc ->
        output_string oc (minimal_plugin (Printf.sprintf "Stdlib.Obj.repr %d" i)));
    Wire.write req_w [ file ".ml"; file ".cmxs"; dir ];
    (match Wire.read rep_r with
    | Wire.Message [ "ok"; _; live; "0" ] ->
      let live = int_of_string live in
      if live > 0 && not (List.mem live !measured) then
        measured := live :: !measured
    | _ -> Alcotest.fail (Printf.sprintf "compile %d: no clean reply" i));
    List.iter
      (fun ext -> try Sys.remove (file ext) with Sys_error _ -> ())
      [ ".ml"; ".cmi"; ".cmx"; ".o"; ".cmxs" ]
  done;
  Unix.close req_w;
  Unix.close rep_r;
  Alcotest.(check bool) "exits at end of input" true
    (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
  match List.rev !measured with
  | [] | [ _ ] -> Alcotest.fail "the worker measured its heap fewer than twice"
  | first :: rest as all ->
    Printf.printf "worker live words by measurement: %s\n"
      (String.concat " " (List.map string_of_int all));
    List.iter
      (fun live ->
        Alcotest.(check bool)
          (Printf.sprintf "live %d words < 2 x %d" live first)
          true
          (live < 2 * first))
      rest

(* --- The assembler ------------------------------------------------------

   On Linux/amd64 a plugin build runs [as] once, for the unit and its
   startup code together.  These tests put a script named [as] first on
   the PATH of a worker of their own: a compile in a new domain starts
   a fresh worker, which inherits the PATH of that moment and stops when
   the domain exits. *)

let with_merged_asm f =
  if on_linux && Steno_worker_build.architecture = "amd64"
     && Dynload.is_available ()
  then f ()
  else print_endline "(skipped: not a Linux/amd64 host with a native compiler)"

let real_as () =
  let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "as"))
      (String.split_on_char ':' path)
  with
  | Some d -> Filename.concat d "as"
  | None -> Alcotest.fail "no as on PATH"

(* A directory holding [as]: a script that appends a line to [count],
   then, while [fail] exists, prints a marker and exits 1, and otherwise
   runs the real [as]. *)
let fake_as_dir () =
  let dir = Filename.temp_dir "steno-as" "" in
  let file name = Filename.concat dir name in
  Out_channel.with_open_bin (file "as") (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\n\
         echo \"$*\" >> %s\n\
         if [ -e %s ]; then echo 'fake-as-marker'; exit 1; fi\n\
         exec %s \"$@\"\n"
        (Filename.quote (file "count"))
        (Filename.quote (file "fail"))
        (Filename.quote (real_as ())));
  Unix.chmod (file "as") 0o755;
  dir

let remove_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let lines_of path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> List.filter (( <> ) "") (String.split_on_char '\n' s)
  | exception Sys_error _ -> []

(* Run [f] in a new domain with [dir] first on PATH. *)
let with_path_first dir f =
  let saved = Sys.getenv_opt "PATH" in
  Unix.putenv "PATH" (dir ^ Option.fold ~none:"" ~some:(( ^ ) ":") saved);
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PATH" (Option.value saved ~default:""))
    (fun () -> Domain.join (Domain.spawn f))

let test_one_as_run () =
  with_merged_asm @@ fun () ->
  let dir = fake_as_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  with_path_first dir (fun () ->
      Alcotest.(check int) "value" 17 (compile_value 17));
  Alcotest.(check int) "as runs for one plugin" 1
    (List.length (lines_of (Filename.concat dir "count")))

let scratch_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".s"
         || Filename.check_suffix f ".startup.o"
         || String.starts_with ~prefix:"camlasm" f
         || String.starts_with ~prefix:"camlstartup" f)
  |> List.sort compare

(* A failing [as] is a compile error carrying what it printed; it leaves
   no assembler input or startup object behind, and the worker goes on
   to build the next plugin. *)
let test_as_failure () =
  with_merged_asm @@ fun () ->
  let dir = fake_as_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let workdir = Dynload.workdir () in
  with_path_first dir (fun () ->
      ignore (compile_value 0);
      let workers = live_workers () in
      Out_channel.with_open_bin (Filename.concat dir "fail") ignore;
      (match
         Dynload.compile_result ~source:(minimal_plugin "Stdlib.Obj.repr 1") ()
       with
      | Error (Dynload.Compile_error msg) ->
        Alcotest.(check bool) "as output reported" true
          (contains msg "fake-as-marker")
      | Error e -> Alcotest.fail (Dynload.error_message e)
      | Ok _ -> Alcotest.fail "compiled with a failing as");
      Alcotest.(check (list string)) "no .s or startup object left" []
        (scratch_files workdir);
      Sys.remove (Filename.concat dir "fail");
      Alcotest.(check int) "next compile" 5 (compile_value 5);
      Alcotest.(check (list int)) "on the same worker" workers (live_workers ()))

let test_no_scratch_leak () =
  with_merged_asm @@ fun () ->
  let tmp = Filename.get_temp_dir_name () and workdir = Dynload.workdir () in
  let before = scratch_files tmp in
  for i = 1 to 20 do
    Alcotest.(check int) "value" i (compile_value i)
  done;
  Alcotest.(check (list string)) "workdir" [] (scratch_files workdir);
  Alcotest.(check (list string)) "temp dir" [] (minus (scratch_files tmp) before)

let test_workdir () =
  with_native @@ fun () ->
  let dir = Dynload.workdir () in
  Alcotest.(check bool) "workdir exists" true (Sys.is_directory dir)

let () =
  Alcotest.run "dynload"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "env passing" `Quick test_env_passing;
          Alcotest.test_case "many plugins" `Quick test_many_plugins;
          Alcotest.test_case "workdir" `Quick test_workdir;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
        ] );
      ( "link",
        [
          Alcotest.test_case "runtime unit" `Quick test_runtime_unit;
          Alcotest.test_case "int table model" `Quick test_int_tbl_model;
          Alcotest.test_case "libm parity" `Quick test_libm_parity;
          Alcotest.test_case "ELF hardening" `Quick test_elf_hardening;
        ] );
      ( "errors",
        [
          Alcotest.test_case "syntax error" `Quick test_syntax_error;
          Alcotest.test_case "type error" `Quick test_type_error;
          Alcotest.test_case "deadline ok" `Quick test_deadline_ok;
          Alcotest.test_case "deadline type error" `Quick
            test_deadline_type_error;
          Alcotest.test_case "no handshake" `Quick test_plugin_without_handshake;
          Alcotest.test_case "foreign init failure" `Quick
            test_plugin_initializer_failure;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "timings" `Quick test_timings;
          Alcotest.test_case "concurrent" `Slow test_concurrent_compiles;
        ] );
      ( "workers",
        [
          Alcotest.test_case "killed idle worker" `Quick test_killed_idle_worker;
          Alcotest.test_case "sequential one worker" `Quick
            test_sequential_one_worker;
          Alcotest.test_case "error then valid" `Quick test_error_then_valid;
          Alcotest.test_case "timeout new worker" `Quick test_timeout_new_worker;
          Alcotest.test_case "heap bound" `Slow test_worker_heap;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "one as run" `Quick test_one_as_run;
          Alcotest.test_case "as failure" `Quick test_as_failure;
          Alcotest.test_case "no scratch leak" `Quick test_no_scratch_leak;
        ] );
    ]
