(* One object per plugin, through the compiler's internal-assembler
   hook.  [Emit] hands the hook each finished program as an [X86_ast]
   list; what the hook returns is what [X86_proc.assemble_file] later
   calls with the object's path.  A plugin build finishes two programs
   in order: the unit ([Optcompile.implementation]) and its startup code
   ([Asmlink.link_shared]).  The unit's program waits here until the
   startup's arrives; the two are then assembled together into the
   unit's object. *)

let pending : (X86_ast.asm_program * string) option ref = ref None

let reset () = pending := None

(* [Emit.begin_assembly] opens every program with the same constants
   ([caml_negf_mask], [caml_absf_mask]), everything before its first
   [.data] directive.  Their labels are local, so one object may define
   them only once: the startup's copy is dropped when it equals the
   unit's.  Should a compiler ever make the two differ, the duplicate
   labels are rejected and the build fails loudly.  The [.L<n>] labels
   do not collide: their counter runs on from the unit into the startup
   code within one request. *)
let split_at_data program =
  let rec go prelude = function
    | X86_ast.Section ([ ".data" ], _, _) :: _ as body ->
      Some (List.rev prelude, body)
    | line :: rest -> go (line :: prelude) rest
    | [] -> None
  in
  go [] program

let startup_body ~unit_program startup =
  match split_at_data unit_program, split_at_data startup with
  | Some (prelude, _), Some (prelude', body) when prelude = prelude' -> body
  | _ -> startup

(* The linker is still handed the startup object, so it becomes a GNU
   ld input script holding only a comment. *)
let hook ~assemble program obj =
  match !pending with
  | None -> pending := Some (program, obj)
  | Some (unit_program, unit_obj) ->
    pending := None;
    assemble (unit_program @ startup_body ~unit_program program) unit_obj;
    Out_channel.with_open_text obj (fun oc ->
        output_string oc "/* assembled into the unit's object */\n")
