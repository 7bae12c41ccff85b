(* A plugin build with compiler-libs, in-process: what the compile
   worker runs for each request.  The worker adds the protocol, the log
   and the heap bound; the oracle test drives this directly. *)

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

(* On Linux/amd64 the plugin is encoded and linked in this process
   ([Plugin_link]): a build runs no program.  Elsewhere on ELF/Linux,
   [ld] links the plugin directly with the output flags [gcc -shared]
   would give it; gcc's crt objects and [-lc -lgcc -lgcc_s] are left
   out ([--as-needed] drops those libraries from a plugin anyway).  The
   [ld] is the one OCaml itself packs with.  Other systems keep the
   configured link command. *)
let in_process = Plugin_link.in_process

let linker =
  match Config.system, String.split_on_char ' ' Config.native_pack_linker with
  | "linux", ld :: _ when ld <> "" && not in_process ->
    Some (ld ^ " --build-id --eh-frame-hdr --hash-style=gnu -shared")
  | _ -> None

let install () = Plugin_link.install ()

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

let missing_tools () =
  if in_process then []
  else
    List.filter_map
      (fun cmd -> if on_path cmd then None else Some (first_word cmd))
      [ Config.asm; Option.value linker ~default:Config.mkdll ]

let pristine_warnings = Warnings.backup ()

(* Compiler state that outlives a compilation, reset before each one.

   The interfaces the compiler has loaded ([Stdlib], [Stdlib__List],
   [Steno_rt], ...) stay in [Env]'s table of persistent units from one
   request to the next, so they are read and expanded once per worker.
   The table is emptied only on the first request and whenever [dir]
   changes ([Compmisc.init_path] ends with [Env.reset_cache]); otherwise
   the load path is re-read, from the directories [Compmisc.init_path]
   chose, and [Env.reset_cache_toplevel] drops only usage tables and
   cached misses, so an interface that appeared since is found.
   - A plugin's own interface is never written or added to the table
     ([Clflags.dont_write_files]): otherwise each plugin would record
     every earlier one among its imports.  A plugin's recorded imports
     are every interface loaded since the last full reset, a superset of
     what it uses, bounded by the load path; all are [Stdlib] units or
     [Steno_rt], which the host carries with the same CRCs.
   - [Ident.reinit] runs on a full reset only: it sets the stamp counter
     back to its level at the first call, and the kept interfaces hold
     idents made after it, whose stamps new ones must not reuse.

   [Emit]'s sets of defined and used symbols cannot be reached from
   outside the compiler and grow with every plugin (they are cleared
   only for Win64's MASM output); so does, where [Asmlink.link_shared]
   links, its list of units requiring each global (drained only by an
   executable link).  The worker's heap bound caps them. *)
let loaded_for : (string * string list) option ref = ref None

let reset ~dir =
  Warnings.restore pristine_warnings;
  Warnings.reset_fatal ();
  Typecore.reset_delayed_checks ();
  Cmm.reset ();
  Asmlink.reset ();
  Profile.reset ();
  Plugin_link.reset ();
  Clflags.native_code := true;
  Clflags.shared := true;
  Clflags.dont_write_files := true;
  Clflags.include_dirs := [ dir ];
  Clflags.c_compiler := linker;
  Clflags.ccobjs := [];
  Clflags.all_ccopts := [];
  match !loaded_for with
  | Some (dir', paths) when String.equal dir dir' ->
    Load_path.init ~auto_include:Compmisc.auto_include paths;
    Env.reset_cache_toplevel ()
  | Some _ | None ->
    Compmisc.init_path ();
    Ident.reinit ();
    loaded_for := Some (dir, Load_path.get_paths ())

(* [Optcompile.clambda] without the file write of its
   [Compilenv.save_unit_info]: where [Plugin_link] links, it takes the
   unit infos from [Compilenv] in memory, and nothing reads a [.cmx].
   The rest of [save_unit_info] stays: the unit's imported interfaces,
   which the plugin header lists with their CRCs for Dynlink to check
   against the host's. *)
let clambda_in_memory (i : Compile_common.info) (typed : Typedtree.implementation) =
  Clflags.use_inlining_arguments_set Clflags.classic_arguments;
  (typed.structure, typed.coercion)
  |> Profile.(record transl) (Translmod.transl_store_implementation i.module_name)
  |> Profile.(record generate) (fun (program : Lambda.program) ->
         Asmgen.compile_implementation ~backend ~prefixname:i.output_prefix
           ~middle_end:Closure_middle_end.lambda_to_clambda ~ppf_dump:i.ppf_dump
           { program with code = Simplif.simplify_lambda program.code });
  (Compilenv.current_unit_infos ()).ui_imports_cmi <- Env.imports ()

(* [Optcompile.implementation] without its [Compmisc.init_path] and
   [Compmisc.initial_env], which would empty the table of loaded
   interfaces and reuse ident stamps, then the link.  The load path
   [reset] set also serves [Asmlink.link_shared].  A build leaves the
   plugin's [.cmxs] and, where [as] and a linker program build it, the
   unit's [.cmx] and object. *)
let compile ~ml ~cmxs ~dir =
  reset ~dir;
  let output_prefix = Filename.remove_extension ml in
  let module_name = Compenv.module_of_filename ml output_prefix in
  Env.set_unit_name module_name;
  let env =
    Typemod.initial_env ~loc:(Location.in_file "command line")
      ~initially_opened_module:(Some "Stdlib") ~open_implicit_modules:[]
  in
  let info =
    { Compile_common.source_file = ml; module_name; output_prefix; env;
      ppf_dump = Format.err_formatter; tool_name = "ocamlopt"; native = true }
  in
  Compile_common.implementation info ~backend:(fun info typed ->
      Compilenv.reset info.module_name;
      if Config.flambda then Optcompile.flambda info backend typed
      else if in_process then clambda_in_memory info typed
      else Optcompile.clambda info backend typed);
  let cmx = output_prefix ^ ".cmx" in
  if in_process then begin
    Plugin_link.link ~cmx ~cmxs;
    if Config.flambda then Misc.remove_file cmx
  end
  else Asmlink.link_shared ~ppf_dump:Format.err_formatter [ cmx ] cmxs;
  Warnings.check_fatal ()
