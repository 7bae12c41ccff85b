(* One program per plugin, through the compiler's internal-assembler
   hook.  [Emit] hands the hook each finished program as an [X86_ast]
   list, and [X86_proc.assemble_file] then the object's path.  A plugin
   build finishes two programs in order: the unit
   ([Optcompile.implementation]) and its startup code.  Both are kept
   here, in memory, and {!take} joins them; no object file is
   written. *)

let programs : X86_ast.asm_program list ref = ref []

let reset () = programs := []

let hook program _obj = programs := program :: !programs

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

let merge unit_program startup =
  let startup =
    match split_at_data unit_program, split_at_data startup with
    | Some (prelude, _), Some (prelude', body) when prelude = prelude' -> body
    | _ -> startup
  in
  unit_program @ startup

let take () =
  let finished = !programs in
  programs := [];
  match finished with
  | [ startup; unit_program ] -> merge unit_program startup
  | _ -> invalid_arg "X86_merge.take: not a unit and its startup code"
