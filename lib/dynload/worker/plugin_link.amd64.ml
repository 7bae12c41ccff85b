(* amd64: on Linux the unit and its startup code are kept in memory
   ([X86_merge]), encoded together into one relocatable object
   ([X86_object]) and linked into the plugin ([X86_link]), all in this
   process. *)

let in_process = Config.system = "linux"

let install () =
  if in_process then begin
    Emitaux.binary_backend_available := true;
    X86_proc.register_internal_assembler X86_merge.hook
  end

let reset = X86_merge.reset

(* The plugin's startup code, as [Asmlink.make_shared_startup_file]
   generates it: curry and apply functions, the plugin header naming
   each unit with its CRC, and the table of the units' globals. *)
let startup units =
  let compile_phrase p = Asmgen.compile_phrase ~ppf_dump:Format.err_formatter p in
  Location.input_name := "caml_startup";
  Compilenv.reset "_shared_startup";
  Emit.begin_assembly ();
  List.iter compile_phrase
    (Cmm_helpers.emit_preallocated_blocks []
       (Cmm_helpers.generic_functions true (List.map fst units)));
  compile_phrase (Cmm_helpers.plugin_header units);
  compile_phrase
    (Cmm_helpers.global_table (List.map (fun (ui, _) -> ui.Cmx_format.ui_symbol) units));
  Emit.end_assembly ()

(* [Asmlink.link_shared] for the one unit [Compilenv] holds: its CRC is
   the digest of the [.cmx] [Compilenv.save_unit_info] would write from
   it, and it goes through the same consistency checks.  The record is
   copied, since [Compilenv.reset] refills it for the startup code. *)
let link ~cmx ~cmxs =
  let ui = Compilenv.current_unit_infos () in
  let ui = { ui with Cmx_format.ui_name = ui.Cmx_format.ui_name } in
  let crc = Digest.string (Config.cmx_magic_number ^ Marshal.to_string ui []) in
  Asmlink.check_consistency cmx ui crc;
  let startup_file ext = cmxs ^ ".startup" ^ ext in
  Asmgen.compile_unit ~output_prefix:cmxs ~asm_filename:(startup_file Config.ext_asm)
    ~keep_asm:false ~obj_filename:(startup_file Config.ext_obj) (fun () ->
      startup [ (ui, crc) ]);
  let loc = Location.in_file (Filename.remove_extension cmx ^ ".ml") in
  let obj =
    try X86_object.of_program (X86_merge.take ())
    with X86_encode.Unsupported what -> Location.raise_errorf ~loc "x86 encoder: %s" what
  in
  let image =
    try X86_link.link obj
    with X86_link.Unsupported what -> Location.raise_errorf ~loc "x86 linker: %s" what
  in
  Out_channel.with_open_bin cmxs (fun oc -> output_string oc image)
