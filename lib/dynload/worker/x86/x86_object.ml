(* An [X86_ast] program to an ELF64 relocatable object, in-process: the
   object GNU [as] makes of the [.s] that [X86_gas] prints for the same
   program.  The allocated sections are byte for byte [as]'s, the
   symbols and relocations are the same, and the symbol table is in
   [as]'s order, so [ld] links it to the same plugin; the oracle test
   ([test/oracle]) holds every plugin of its corpus to that.

   The program is read once into sections of fragments, as [as] does:
   a fragment is fixed bytes, then possibly one part whose size waits
   for the layout (a jump [as] may relax, or alignment padding).  Then,
   per section, the jumps are relaxed with [as]'s own algorithm
   ([relax_segment]), the fields that name symbols are resolved or left
   as relocations, the [.cfi_*] lines become [.eh_frame], and the object
   is written. *)

open X86_ast
module E = X86_encode

let unsupported = E.unsupported

(* --- ELF constants -------------------------------------------------- *)

let shf_write = 0x1
let shf_alloc = 0x2
let shf_execinstr = 0x4
let shf_merge = 0x10
let shf_strings = 0x20
let shf_info_link = 0x40
let sht_progbits = 1
let sht_symtab = 2
let sht_strtab = 3
let sht_rela = 4
let sht_note = 7
let sht_nobits = 8

(* --- Sections and fragments ----------------------------------------- *)

type var =
  | Fixed
  | Jump of { cond : condition option; target : string; mutable long : bool }
      (** relaxable: the target is a label of this section *)
  | Align of int  (** padding to a multiple of this many bytes *)

type frag = {
  id : int;  (** position in its section *)
  fix : Buffer.t;
  mutable var : var;
  mutable address : int;
}

(* A field of [size] bytes at [offset] in [frag]'s fixed part. *)
type field =
  | Insn of E.fixup  (** from an instruction; [at] is within the fragment *)
  | Data of constant  (** from [.quad], [.long], ... *)
  | Branch_disp of { target : string; kind : E.kind }  (** a jump [as] does not relax *)

type fixup = { frag : frag; offset : int; size : int; field : field }

type asm_section = {
  name : string;
  sh_type : int;
  flags : int;
  entsize : int;
  mutable align : int;
  mutable frags : frag list;  (** newest first *)
  mutable fixups : fixup list;  (** newest first *)
  mutable contents : Bytes.t;
  mutable relocs : asm_reloc list;
}

and asm_reloc = { r_offset : int; r_type : int; r_symbol : asm_target; r_addend : int64 }

(* What a relocation names: a symbol, or a section (its STT_SECTION
   symbol), which is what [as] turns a reference to a local label
   into. *)
and asm_target = Symbol of string | Section_of of asm_section

let current_frag s = List.hd s.frags

let new_frag s =
  let id = match s.frags with [] -> 0 | f :: _ -> f.id + 1 in
  s.frags <- { id; fix = Buffer.create 256; var = Fixed; address = 0 } :: s.frags

let code s = s.flags land shf_execinstr <> 0

(* A location: fragment and offset in its fixed part. *)
type loc = { sec : asm_section; at_frag : frag; at : int }

let address l = l.at_frag.address + l.at

(* --- The assembler's state for one program -------------------------- *)

type cfi = Def_cfa_offset of int | Def_cfa_register of int | Remember_state | Restore_state

type fde = {
  start : loc;
  mutable stop : loc option;
  mutable insns : (loc * cfi) list;  (** newest first *)
  mutable cfa_offset : int;
  mutable saved : int list;
}

type state = {
  mutable sections : asm_section list;  (** newest first *)
  mutable cur : asm_section;
  labels : (string, loc) Hashtbl.t;
  globals : (string, unit) Hashtbl.t;
  types : (string, int) Hashtbl.t;
  mutable sizes : (string * constant * loc) list;
  mutable fdes : fde list;  (** newest first *)
  mutable open_fde : fde option;
  mentioned : (string, int) Hashtbl.t;
      (** each symbol's rank in order of first mention, [as]'s symbol
          table order; a [@GOTPCREL] mentions [_GLOBAL_OFFSET_TABLE_] *)
}

let mention st name =
  if not (Hashtbl.mem st.mentioned name) then
    Hashtbl.replace st.mentioned name (Hashtbl.length st.mentioned)

let got_symbol = "_GLOBAL_OFFSET_TABLE_"

let make_section name ~sh_type ~flags ~entsize =
  let s =
    { name; sh_type; flags; entsize; align = 1; frags = []; fixups = [];
      contents = Bytes.empty; relocs = [] }
  in
  new_frag s;
  s

(* [as]'s defaults for a section named without attributes. *)
let default_attributes name =
  let has_prefix p = String.starts_with ~prefix:p name in
  if has_prefix ".text" then (sht_progbits, shf_alloc lor shf_execinstr)
  else if has_prefix ".data" then (sht_progbits, shf_alloc lor shf_write)
  else if has_prefix ".bss" then (sht_nobits, shf_alloc lor shf_write)
  else if has_prefix ".rodata" then (sht_progbits, shf_alloc)
  else if has_prefix ".note" then (sht_note, 0)
  else (sht_progbits, 0)

let section_attributes name flags args =
  match flags with
  | None when args = [] ->
    let t, f = default_attributes name in
    (t, f, 0)
  | _ ->
    let f =
      String.fold_left
        (fun acc c ->
          acc
          lor
          match c with
          | 'a' -> shf_alloc
          | 'w' -> shf_write
          | 'x' -> shf_execinstr
          | 'M' -> shf_merge
          | 'S' -> shf_strings
          | c -> unsupported "section flag %C" c)
        0 (Option.value flags ~default:"")
    in
    let t, rest =
      match args with
      | ("@progbits" | "%progbits") :: rest -> (sht_progbits, rest)
      | ("@nobits" | "%nobits") :: rest -> (sht_nobits, rest)
      | ("@note" | "%note") :: rest -> (sht_note, rest)
      | [] -> (fst (default_attributes name), [])
      | a :: _ -> unsupported "section type %s" a
    in
    let entsize =
      match rest with
      | [ n ] when f land shf_merge <> 0 && int_of_string_opt n <> None -> int_of_string n
      | [] when f land shf_merge = 0 -> 0
      | _ -> unsupported "section arguments %s" (String.concat "," args)
    in
    (t, f, entsize)

let switch_section st name flags args =
  match List.find_opt (fun s -> s.name = name) st.sections with
  | Some s -> st.cur <- s
  | None ->
    let sh_type, flags, entsize = section_attributes name flags args in
    let s = make_section name ~sh_type ~flags ~entsize in
    st.sections <- s :: st.sections;
    st.cur <- s

let here st =
  let f = current_frag st.cur in
  { sec = st.cur; at_frag = f; at = Buffer.length f.fix }

let add_fixup st ~offset ~size field =
  let f = current_frag st.cur in
  st.cur.fixups <- { frag = f; offset; size; field } :: st.cur.fixups

let add_le = E.add_le

(* A linear constant: [const] plus each label times its coefficient.
   ["."] is the field's own address. *)
let rec terms c =
  match c with
  | Const n -> ([], n)
  | ConstThis -> ([ (".", 1) ], 0L)
  | ConstLabel l when String.contains l '@' -> unsupported "%s in a data directive" l
  | ConstLabel l -> ([ (l, 1) ], 0L)
  | ConstAdd (a, b) ->
    let ta, ca = terms a and tb, cb = terms b in
    (ta @ tb, Int64.add ca cb)
  | ConstSub (a, b) ->
    let ta, ca = terms a and tb, cb = terms b in
    (ta @ List.map (fun (l, k) -> (l, -k)) tb, Int64.sub ca cb)

let mention_labels st c =
  List.iter (fun (l, _) -> if l <> "." then mention st l) (fst (terms c))

(* A data directive of [size] bytes: a constant now, or a field for later. *)
let data st size c =
  mention_labels st c;
  let b = (current_frag st.cur).fix in
  match c with
  | Const n -> add_le b size n
  | _ ->
    add_fixup st ~offset:(Buffer.length b) ~size (Data c);
    add_le b size 0L

(* End the current fragment with [var]. *)
let close_frag st var =
  (current_frag st.cur).var <- var;
  new_frag st.cur

let instruction st i =
  match E.encode i with
  | E.Code { bytes; fixups } ->
    let b = (current_frag st.cur).fix in
    let base = Buffer.length b in
    List.iter
      (fun (fx : E.fixup) ->
        (match fx.kind with
        | E.Gotpcrel | E.Gotpcrelx | E.Rex_gotpcrelx -> mention st got_symbol
        | _ -> ());
        mention st fx.symbol;
        add_fixup st ~offset:(base + fx.at) ~size:fx.size (Insn fx))
      fixups;
    Buffer.add_bytes b bytes
  | E.Branch { cond; target } ->
    mention st (fst (E.split_suffix target));
    close_frag st (Jump { cond; target; long = false })

let cfi st insn =
  match st.open_fde with
  | None -> unsupported "CFI directive outside .cfi_startproc"
  | Some fde ->
    let insn =
      match insn with
      | `Adjust n ->
        fde.cfa_offset <- fde.cfa_offset + n;
        Def_cfa_offset fde.cfa_offset
      | `Offset n ->
        fde.cfa_offset <- n;
        Def_cfa_offset n
      | `Register r -> Def_cfa_register r
      | `Remember ->
        fde.saved <- fde.cfa_offset :: fde.saved;
        Remember_state
      | `Restore ->
        (match fde.saved with
        | o :: rest ->
          fde.cfa_offset <- o;
          fde.saved <- rest
        | [] -> unsupported ".cfi_restore_state without .cfi_remember_state");
        Restore_state
    in
    fde.insns <- (here st, insn) :: fde.insns

(* DWARF register numbers. *)
let dwarf_reg = function
  | "rax" -> 0 | "rdx" -> 1 | "rcx" -> 2 | "rbx" -> 3
  | "rsi" -> 4 | "rdi" -> 5 | "rbp" -> 6 | "rsp" -> 7
  | r ->
    (match Scanf.sscanf_opt r "r%d%!" Fun.id with
    | Some n when n >= 8 && n <= 15 -> n
    | _ -> unsupported ".cfi_def_cfa_register %%%s" r)

let line st = function
  | Ins i -> instruction st i
  | NewLabel (name, _) ->
    if Hashtbl.mem st.labels name then unsupported "label %s defined twice" name;
    mention st name;
    Hashtbl.replace st.labels name (here st)
  | Section (names, flags, args) -> switch_section st (String.concat "," names) flags args
  | Align (_, n) ->
    if n <= 0 || n land (n - 1) <> 0 then unsupported ".align %d" n;
    st.cur.align <- max st.cur.align n;
    if n > 1 then close_frag st (Align n)
  | Byte c -> data st 1 c
  | Word c -> data st 2 c
  | Long c -> data st 4 c
  | Quad c -> data st 8 c
  | Bytes s -> Buffer.add_string (current_frag st.cur).fix s
  | Space n -> Buffer.add_string (current_frag st.cur).fix (String.make n '\000')
  | Global s ->
    mention st s;
    Hashtbl.replace st.globals s ()
  | Type (s, t) ->
    mention st s;
    Hashtbl.replace st.types s
      (match t with
      | "@function" -> 2 (* STT_FUNC *)
      | "@object" -> 1 (* STT_OBJECT *)
      | t -> unsupported ".type %s" t)
  | Size (s, c) ->
    mention st s;
    mention_labels st c;
    st.sizes <- (s, c, here st) :: st.sizes
  | Comment _ -> ()
  (* Line tables need [.loc]; a plugin is compiled without [-g]. *)
  | File _ -> ()
  | Cfi_startproc ->
    if st.open_fde <> None then unsupported "nested .cfi_startproc";
    let fde = { start = here st; stop = None; insns = []; cfa_offset = 8; saved = [] } in
    st.open_fde <- Some fde;
    st.fdes <- fde :: st.fdes
  | Cfi_endproc ->
    (match st.open_fde with
    | Some fde ->
      if fde.start.sec != st.cur then unsupported ".cfi_endproc in another section";
      fde.stop <- Some (here st);
      st.open_fde <- None
    | None -> unsupported ".cfi_endproc without .cfi_startproc")
  | Cfi_adjust_cfa_offset n -> cfi st (`Adjust n)
  | Cfi_def_cfa_offset n -> cfi st (`Offset n)
  | Cfi_def_cfa_register r -> cfi st (`Register (dwarf_reg r))
  | Cfi_remember_state -> cfi st `Remember
  | Cfi_restore_state -> cfi st `Restore
  | Loc _ -> unsupported ".loc (line tables)"
  | Set _ -> unsupported ".set"
  | Indirect_symbol _ -> unsupported ".indirect_symbol"
  | Private_extern _ -> unsupported ".private_extern"
  | External _ | Mode386 | Model _ -> unsupported "a MASM directive"

(* --- Layout --------------------------------------------------------- *)

let pad address align = (align - (address mod align)) mod align

let local_label name = String.starts_with ~prefix:".L" name

let is_global st name = Hashtbl.mem st.globals name

(* A jump is relaxable when its target is a label of the same section
   that [as] resolves there: any label it defines, global ones included
   (an object is not a shared library, so nothing preempts them).  An
   explicit [@PLT] always keeps the relocation. *)
let relaxable st sec target =
  match Hashtbl.find_opt st.labels target with
  | Some l -> l.sec == sec
  | None -> false

let jump_size cond long =
  match cond, long with _, false -> 2 | None, true -> 5 | Some _, true -> 6

(* The fixed part, then the variable part's size at [address]. *)
let var_size f ~address =
  match f.var with
  | Fixed -> 0
  | Jump { cond; long; _ } -> jump_size cond long
  | Align n -> pad (address + Buffer.length f.fix) n

(* [as]'s [relax_segment]: all relaxable jumps start short; each pass
   walks the fragments in order, moving each by the growth so far
   ([stretch]), re-padding alignments and growing any short jump whose
   target is out of reach, until a pass grows nothing.  Jumps never
   shrink back.  A target not yet reached in the pass is taken at its
   old address, plus [stretch] only when no alignment lies between
   (an alignment starts a new region) or the stretch is negative;
   across an alignment, a target that then lies behind the jump is
   left for the next pass. *)
(* A jump to another section, to a symbol defined nowhere, or through
   the PLT takes the long form, with a relocation on its displacement. *)
let fix_far_jumps st sec =
  List.iter
    (fun f ->
      match f.var with
      | Jump ({ target; _ } as j) when not (relaxable st sec target) ->
        f.var <- Fixed;
        Buffer.add_string f.fix (E.branch_long j.cond);
        let target, kind =
          match E.split_suffix target with
          | target, "PLT" -> (target, E.Plt)
          | target, "" ->
            ( target,
              match Hashtbl.find_opt st.labels target with
              | Some _ when not (is_global st target) -> E.Pc
              | _ -> E.Plt )
          | _, s -> unsupported "jump to @%s" s
        in
        let offset = Buffer.length f.fix in
        let field = Branch_disp { target; kind } in
        sec.fixups <- { frag = f; offset; size = 4; field } :: sec.fixups;
        add_le f.fix 4 0L
      | _ -> ())
    sec.frags

let relax st sec =
  fix_far_jumps st sec;
  let frags = Array.of_list (List.rev sec.frags) in
  let next = ref 0 in
  let region = Array.make (Array.length frags) 0 in
  Array.iteri
    (fun i f ->
      f.address <- !next;
      next := !next + Buffer.length f.fix + var_size f ~address:!next;
      if i > 0 then
        region.(i) <-
          (region.(i - 1) + match frags.(i - 1).var with Align _ -> 1 | _ -> 0))
    frags;
  let label_address name = address (Hashtbl.find st.labels name) in
  let label_frag name = (Hashtbl.find st.labels name).at_frag.id in
  let stretched = ref true in
  while !stretched do
    stretched := false;
    let stretch = ref 0 in
    Array.iter
      (fun f ->
        let was = f.address in
        f.address <- f.address + !stretch;
        let growth =
          match f.var with
          | Fixed -> 0
          | Align n ->
            let fix = Buffer.length f.fix in
            pad (f.address + fix) n - pad (was + fix) n
          | Jump j when j.long -> 0
          | Jump j ->
            let g = label_frag j.target in
            let ahead = !stretch <> 0 && g > f.id in
            let same_region = region.(g) = region.(f.id) in
            let target =
              label_address j.target
              + if ahead && (same_region || !stretch < 0) then !stretch else 0
            in
            (* [as] aims from the displacement's address. *)
            let disp = f.address + Buffer.length f.fix + 1 in
            let aim = target - disp in
            if (ahead && (not same_region) && !stretch > 0 && target < disp)
               || (aim >= -127 && aim <= 128)
            then 0
            else begin
              j.long <- true;
              jump_size j.cond true - jump_size j.cond false
            end
        in
        if growth <> 0 then begin
          stretch := !stretch + growth;
          stretched := true
        end)
      frags
  done

(* [as]'s padding in code: one NOP of up to 11 bytes, longer runs as
   11-byte NOPs then the rest. *)
let nops =
  [| ""; "\x90"; "\x66\x90"; "\x0f\x1f\x00"; "\x0f\x1f\x40\x00"; "\x0f\x1f\x44\x00\x00";
     "\x66\x0f\x1f\x44\x00\x00"; "\x0f\x1f\x80\x00\x00\x00\x00";
     "\x0f\x1f\x84\x00\x00\x00\x00\x00"; "\x66\x0f\x1f\x84\x00\x00\x00\x00\x00";
     "\x66\x2e\x0f\x1f\x84\x00\x00\x00\x00\x00";
     "\x66\x66\x2e\x0f\x1f\x84\x00\x00\x00\x00\x00" |]

let rec add_nops b n =
  if n > 11 then begin
    Buffer.add_string b nops.(11);
    add_nops b (n - 11)
  end
  else Buffer.add_string b nops.(n)

(* The section's bytes at the final addresses, jumps to labels resolved. *)
let lay_out st sec =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      assert (Buffer.length b = f.address);
      Buffer.add_buffer b f.fix;
      match f.var with
      | Fixed -> ()
      | Align n ->
        let n = pad (Buffer.length b) n in
        if code sec then add_nops b n else Buffer.add_string b (String.make n '\000')
      | Jump { cond; target; long } ->
        let after = Buffer.length b + jump_size cond long in
        let disp = address (Hashtbl.find st.labels target) - after in
        if long then begin
          Buffer.add_string b (E.branch_long cond);
          add_le b 4 (Int64.of_int disp)
        end
        else begin
          Buffer.add_string b (E.branch_short cond);
          add_le b 1 (Int64.of_int disp)
        end)
    (List.rev sec.frags);
  sec.contents <- Buffer.to_bytes b

(* --- Fields and relocations ----------------------------------------- *)

let r_x86_64_64 = 1
let r_x86_64_pc32 = 2
let r_x86_64_gotpcrel = 9
let r_x86_64_32 = 10
let r_x86_64_32s = 11
let r_x86_64_16 = 12
let r_x86_64_8 = 14
let r_x86_64_pc64 = 24
let r_x86_64_plt32 = 4
let r_x86_64_gotpcrelx = 41
let r_x86_64_rex_gotpcrelx = 42

(* The symbol a relocation against [name] keeps, as [as] decides: a
   local label becomes its section plus the label's address, unless the
   relocation is through the GOT or PLT, or the label is in a mergeable
   section and the addend is not zero (the linker needs the label to
   find the merged constant). *)
let reloc_target st name ~addend ~keep =
  match Hashtbl.find_opt st.labels name with
  | Some l
    when not
           (is_global st name || keep
           || (l.sec.flags land shf_merge <> 0 && addend <> 0L)) ->
    (Section_of l.sec, Int64.add addend (Int64.of_int (address l)))
  | _ -> (Symbol name, addend)

let write_field sec ~offset ~size v =
  let fits =
    match size with
    | 1 -> Int64.compare v (-128L) >= 0 && Int64.compare v 255L <= 0
    | 2 -> Int64.compare v (-32768L) >= 0 && Int64.compare v 65535L <= 0
    | 4 -> Int64.compare v (-2147483648L) >= 0 && Int64.compare v 0xFFFF_FFFFL <= 0
    | _ -> true
  in
  if not fits then unsupported "value %Ld does not fit in %d bytes" v size;
  for i = 0 to size - 1 do
    Bytes.set sec.contents (offset + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let add_reloc sec ~offset r_type (target, addend) =
  sec.relocs <-
    { r_offset = offset; r_type; r_symbol = target; r_addend = addend } :: sec.relocs

(* What [c] at [here] comes to: terms in one section whose coefficients
   cancel become a number; one label left over is an absolute
   relocation, and one left over against minus a location in the
   field's own section a PC-relative one. *)
let evaluate st (here : loc) c =
  let tl, const = terms c in
  let loc_of l = if l = "." then Some here else Hashtbl.find_opt st.labels l in
  let by_section = Hashtbl.create 4 in
  let undefined = ref [] in
  List.iter
    (fun (l, k) ->
      match loc_of l with
      | Some loc ->
        let k', ts =
          Option.value (Hashtbl.find_opt by_section loc.sec.name) ~default:(0, [])
        in
        Hashtbl.replace by_section loc.sec.name (k' + k, (l, k, loc) :: ts)
      | None -> undefined := (l, k) :: !undefined)
    tl;
  let const = ref const and left = ref [] and own = ref 0 in
  Hashtbl.iter
    (fun name (k, ts) ->
      let sum = List.fold_left (fun acc (_, k, loc) -> acc + (k * address loc)) 0 ts in
      if k = 0 then const := Int64.add !const (Int64.of_int sum)
      else if name = here.sec.name && k = -1 then begin
        own := -1;
        const := Int64.add !const (Int64.of_int (address here + sum))
      end
      else
        match ts with
        | [ (l, 1, _) ] -> left := l :: !left
        | _ -> unsupported "expression over section %s" name)
    by_section;
  List.iter
    (fun (l, k) -> if k = 1 then left := l :: !left else unsupported "expression over %s" l)
    !undefined;
  match !left, !own with
  | [], 0 -> `Const !const
  | [ l ], 0 -> `Abs (l, !const)
  | [ l ], -1 -> `Pc (l, !const)
  | _ -> unsupported "expression with %d relocatable terms" (List.length !left)

let absolute = function
  | 8 -> r_x86_64_64
  | 4 -> r_x86_64_32
  | 2 -> r_x86_64_16
  | _ -> r_x86_64_8

let resolve st sec fx =
  let offset = fx.frag.address + fx.offset in
  let here = { sec; at_frag = fx.frag; at = fx.offset } in
  let pc_field ~symbol ~addend ~r_type ~keep =
    match Hashtbl.find_opt st.labels symbol with
    | Some l when l.sec == sec && not (is_global st symbol) ->
      write_field sec ~offset ~size:fx.size
        (Int64.add addend (Int64.of_int (address l - offset)))
    | _ -> add_reloc sec ~offset r_type (reloc_target st symbol ~addend ~keep)
  in
  match fx.field with
  | Insn { symbol; addend; kind; _ } ->
    (match kind with
    | E.Pc -> pc_field ~symbol ~addend ~r_type:r_x86_64_pc32 ~keep:false
    | E.Plt -> pc_field ~symbol ~addend ~r_type:r_x86_64_plt32 ~keep:true
    | E.Gotpcrel -> add_reloc sec ~offset r_x86_64_gotpcrel (Symbol symbol, addend)
    | E.Gotpcrelx -> add_reloc sec ~offset r_x86_64_gotpcrelx (Symbol symbol, addend)
    | E.Rex_gotpcrelx ->
      add_reloc sec ~offset r_x86_64_rex_gotpcrelx (Symbol symbol, addend)
    | E.Abs ->
      add_reloc sec ~offset (absolute fx.size) (reloc_target st symbol ~addend ~keep:false)
    | E.Abs_signed ->
      add_reloc sec ~offset r_x86_64_32s (reloc_target st symbol ~addend ~keep:false))
  | Branch_disp { target; kind } ->
    let r_type = if kind = E.Plt then r_x86_64_plt32 else r_x86_64_pc32 in
    add_reloc sec ~offset r_type (reloc_target st target ~addend:(-4L) ~keep:(kind = E.Plt))
  | Data c ->
    (match evaluate st here c with
    | `Const v -> write_field sec ~offset ~size:fx.size v
    | `Abs (l, addend) ->
      add_reloc sec ~offset (absolute fx.size) (reloc_target st l ~addend ~keep:false)
    | `Pc (l, addend) ->
      let r_type =
        match fx.size with
        | 4 -> r_x86_64_pc32
        | 8 -> r_x86_64_pc64
        | n -> unsupported "a %d-byte PC-relative field" n
      in
      add_reloc sec ~offset r_type (reloc_target st l ~addend ~keep:false))

(* --- .eh_frame ------------------------------------------------------ *)

let add_uleb b n =
  let rec go n =
    let byte = n land 0x7f and rest = n lsr 7 in
    if rest = 0 then Buffer.add_char b (Char.chr byte)
    else begin
      Buffer.add_char b (Char.chr (byte lor 0x80));
      go rest
    end
  in
  go n

type cie_insn = Def_cfa of int * int | Offset of int * int | Insn_cfi of cfi

let add_insn b = function
  | Def_cfa (r, o) ->
    Buffer.add_char b '\x0c';
    add_uleb b r;
    add_uleb b o
  | Offset (r, o) ->
    Buffer.add_char b (Char.chr (0x80 lor r));
    add_uleb b (o / 8)
  | Insn_cfi (Def_cfa_offset o) ->
    if o < 0 then unsupported "negative CFA offset %d" o;
    Buffer.add_char b '\x0e';
    add_uleb b o
  | Insn_cfi (Def_cfa_register r) ->
    Buffer.add_char b '\x0d';
    add_uleb b r
  | Insn_cfi Remember_state -> Buffer.add_char b '\x0a'
  | Insn_cfi Restore_state -> Buffer.add_char b '\x0b'

let add_advance b delta =
  if delta < 0x40 then Buffer.add_char b (Char.chr (0x40 lor delta))
  else if delta <= 0xff then begin
    Buffer.add_char b '\x02';
    add_le b 1 (Int64.of_int delta)
  end
  else if delta <= 0xffff then begin
    Buffer.add_char b '\x03';
    add_le b 2 (Int64.of_int delta)
  end
  else begin
    Buffer.add_char b '\x04';
    add_le b 4 (Int64.of_int delta)
  end

let pad_to b align = while Buffer.length b mod align <> 0 do Buffer.add_char b '\000' done

(* [as]'s [.eh_frame]: a CIE ("zR", code alignment 1, data alignment
   -8, return address column 16, pc-relative 4-byte addresses), then one
   FDE per [.cfi_startproc]/[.cfi_endproc] pair.  Each FDE's
   instructions up to its first advance or [remember_state] belong to
   its CIE, which is shared by every FDE that starts the same way and
   written before the first of them.  CIEs and FDEs end with DW_CFA_nop
   padding at a multiple of 4 bytes into the section, the last FDE at a
   multiple of 8. *)
let eh_frame st =
  let fdes = List.rev st.fdes in
  if fdes = [] then None
  else begin
    let sec = make_section ".eh_frame" ~sh_type:sht_progbits ~flags:shf_alloc ~entsize:0 in
    sec.align <- 8;
    let b = Buffer.create 1024 in
    let cies = ref [] in
    let last = List.length fdes - 1 in
    List.iteri
      (fun n fde ->
        let stop =
          match fde.stop with Some l -> l | None -> unsupported "missing .cfi_endproc"
        in
        (* The instructions, with an advance wherever the location moved
           ([as] compares locations, not addresses). *)
        let insns =
          let last = ref fde.start in
          List.concat_map
            (fun (loc, i) ->
              let moved = loc.at_frag != !last.at_frag || loc.at <> !last.at in
              let prev = !last in
              last := loc;
              (if moved then [ `Advance (prev, loc) ] else []) @ [ `Insn (Insn_cfi i) ])
            (List.rev fde.insns)
        in
        let rec split acc = function
          | (`Insn (Insn_cfi Remember_state) :: _ | `Advance _ :: _) as rest ->
            (List.rev acc, rest)
          | `Insn i :: rest -> split (i :: acc) rest
          | [] -> (List.rev acc, [])
        in
        let prefix, body = split [] insns in
        let initial = [ Def_cfa (7, 8); Offset (16, 8) ] @ prefix in
        let cie_at =
          match List.assoc_opt initial !cies with
          | Some at -> at
          | None ->
            let at = Buffer.length b in
            let c = Buffer.create 32 in
            Buffer.add_string c "\000\000\000\000\001zR\000\001\x78\x10\001\x1b";
            List.iter (add_insn c) initial;
            pad_to c 4;
            add_le b 4 (Int64.of_int (Buffer.length c));
            Buffer.add_buffer b c;
            cies := (initial, at) :: !cies;
            at
        in
        let start = Buffer.length b in
        let f = Buffer.create 64 in
        add_le f 4 (Int64.of_int (start + 4 - cie_at));
        add_le f 4 0L (* pc_begin, relocated *);
        add_le f 4 (Int64.of_int (address stop - address fde.start));
        add_uleb f 0;
        List.iter
          (function
            | `Advance (a, b') ->
              let delta = address b' - address a in
              if delta > 0 then add_advance f delta
            | `Insn i -> add_insn f i)
          body;
        let align = if n = last then 8 else 4 in
        while (start + 4 + Buffer.length f) mod align <> 0 do Buffer.add_char f '\000' done;
        add_le b 4 (Int64.of_int (Buffer.length f));
        let pc_begin = Buffer.length b + 4 in
        Buffer.add_buffer b f;
        add_reloc sec ~offset:pc_begin r_x86_64_pc32
          (Section_of fde.start.sec, Int64.of_int (address fde.start)))
      fdes;
    sec.contents <- Buffer.to_bytes b;
    Some sec
  end

(* --- Symbols -------------------------------------------------------- *)

type symbol = {
  name : string;
  global : bool;
  kind : int;
  section : int option;
  value : int;
  size : int;
}

let symbols st sections =
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun (s, c, here) ->
      match evaluate st here c with
      | `Const n -> Hashtbl.replace sizes s (Int64.to_int n)
      | _ -> unsupported ".size %s is not a constant" s)
    st.sizes;
  let referenced = Hashtbl.create 64 in
  List.iter
    (fun sec ->
      List.iter
        (fun r ->
          match r.r_symbol with
          | Symbol s -> Hashtbl.replace referenced s ()
          | Section_of _ -> ())
        sec.relocs)
    sections;
  if Hashtbl.mem st.mentioned got_symbol then Hashtbl.replace referenced got_symbol ();
  let index sec =
    let rec go i = function
      | s :: rest -> if s == sec then i else go (i + 1) rest
      | [] -> assert false
    in
    go 0 sections
  in
  let defined name (l : loc) =
    { name; global = is_global st name;
      kind = Option.value (Hashtbl.find_opt st.types name) ~default:0;
      section = Some (index l.sec); value = address l;
      size = Option.value (Hashtbl.find_opt sizes name) ~default:0 }
  in
  let syms =
    Hashtbl.fold
      (fun name l acc ->
        if local_label name && not (Hashtbl.mem referenced name) then acc
        else defined name l :: acc)
      st.labels []
  in
  let undefined =
    Hashtbl.fold
      (fun name () acc ->
        if Hashtbl.mem st.labels name then acc
        else { name; global = true; kind = 0; section = None; value = 0; size = 0 } :: acc)
      (let u = Hashtbl.copy referenced in
       Hashtbl.iter (fun g () -> Hashtbl.replace u g ()) st.globals;
       u)
      []
  in
  (* [as]'s order, which [ld] follows when it numbers dynamic symbols
     and GOT and PLT slots: locals, then globals, each by first
     mention. *)
  let rank (s : symbol) = Hashtbl.find st.mentioned s.name in
  List.sort
    (fun (a : symbol) b -> compare (a.global, rank a) (b.global, rank b))
    (syms @ undefined)

(* --- The object ----------------------------------------------------- *)

type section = {
  name : string;
  sh_type : int;
  flags : int;
  entsize : int;
  align : int;
  contents : string;
  relocs : reloc list;
}

and reloc = { offset : int; r_type : int; target : target; addend : int64 }

and target = Symbol of string | Section of int

type t = { sections : section list; symbols : symbol list }

let of_program program =
  let text =
    make_section ".text" ~sh_type:sht_progbits ~flags:(shf_alloc lor shf_execinstr)
      ~entsize:0
  in
  let st =
    { sections = [ text ]; cur = text; labels = Hashtbl.create 256;
      globals = Hashtbl.create 64; types = Hashtbl.create 64; sizes = []; fdes = [];
      open_fde = None; mentioned = Hashtbl.create 256 }
  in
  switch_section st ".data" None [];
  switch_section st ".bss" None [];
  st.cur <- text;
  List.iter (line st) program;
  if st.open_fde <> None then unsupported "missing .cfi_endproc";
  let sections = List.rev st.sections in
  List.iter (relax st) sections;
  List.iter (lay_out st) sections;
  List.iter (fun sec -> List.iter (resolve st sec) (List.rev sec.fixups)) sections;
  let sections = sections @ Option.to_list (eh_frame st) in
  let index sec =
    let rec go i = function
      | s :: rest -> if s == sec then i else go (i + 1) rest
      | [] -> assert false
    in
    go 0 sections
  in
  let section (s : asm_section) =
    { name = s.name; sh_type = s.sh_type; flags = s.flags; entsize = s.entsize;
      align = s.align; contents = Bytes.to_string s.contents;
      relocs =
        List.rev_map
          (fun r ->
            { offset = r.r_offset; r_type = r.r_type; addend = r.r_addend;
              target =
                (match r.r_symbol with
                | Symbol s -> Symbol s
                | Section_of x -> Section (index x)) })
          s.relocs }
  in
  { symbols = symbols st sections; sections = List.map section sections }

(* --- The ELF file --------------------------------------------------- *)

let to_elf { sections; symbols } =
  let sections = Array.of_list sections in
  let referenced = Array.make (Array.length sections) false in
  Array.iter
    (fun s ->
      List.iter
        (fun r -> match r.target with Section i -> referenced.(i) <- true | Symbol _ -> ())
        s.relocs)
    sections;
  let locals = List.filter (fun (s : symbol) -> not s.global) symbols
  and globals = List.filter (fun (s : symbol) -> s.global) symbols in
  (* Section header order: each section followed by its relocations,
     then the symbol and string tables. *)
  let headers =
    List.concat
      (List.init (Array.length sections) (fun i ->
           if sections.(i).relocs = [] then [ `Sec i ] else [ `Sec i; `Rela i ]))
    @ [ `Symtab; `Strtab; `Shstrtab ]
  in
  let index_of h =
    let rec go i = function
      | x :: rest -> if x = h then i else go (i + 1) rest
      | [] -> assert false
    in
    go 1 headers
  in
  let header_name = function
    | `Sec i -> sections.(i).name
    | `Rela i -> ".rela" ^ sections.(i).name
    | `Symtab -> ".symtab"
    | `Strtab -> ".strtab"
    | `Shstrtab -> ".shstrtab"
  in
  let strtab = Buffer.create 1024 in
  Buffer.add_char strtab '\000';
  let add_str tbl s =
    if s = "" then 0
    else begin
      let at = Buffer.length tbl in
      Buffer.add_string tbl s;
      Buffer.add_char tbl '\000';
      at
    end
  in
  let symtab = Buffer.create 2048 in
  let add_sym ~name ~info ~shndx ~value ~size =
    add_le symtab 4 (Int64.of_int name);
    Buffer.add_char symtab (Char.chr info);
    Buffer.add_char symtab '\000';
    add_le symtab 2 (Int64.of_int shndx);
    add_le symtab 8 (Int64.of_int value);
    add_le symtab 8 (Int64.of_int size)
  in
  add_sym ~name:0 ~info:0 ~shndx:0 ~value:0 ~size:0;
  (* [X86_gas] opens every [.s] with [.file ""]. *)
  add_sym ~name:0 ~info:4 (* LOCAL FILE *) ~shndx:0xfff1 ~value:0 ~size:0;
  let section_sym = Array.make (Array.length sections) 0 in
  let next = ref 2 in
  Array.iteri
    (fun i r ->
      if r then begin
        add_sym ~name:0 ~info:3 (* LOCAL SECTION *) ~shndx:(index_of (`Sec i)) ~value:0
          ~size:0;
        section_sym.(i) <- !next;
        incr next
      end)
    referenced;
  let sym_index = Hashtbl.create 64 in
  let first_global = ref 0 in
  List.iter
    (fun (s : symbol) ->
      if s.global && !first_global = 0 then first_global := !next;
      add_sym ~name:(add_str strtab s.name)
        ~info:(((if s.global then 1 else 0) lsl 4) lor s.kind)
        ~shndx:(match s.section with Some i -> index_of (`Sec i) | None -> 0)
        ~value:s.value ~size:s.size;
      Hashtbl.replace sym_index s.name !next;
      incr next)
    (locals @ globals);
  if !first_global = 0 then first_global := !next;
  let rela sec =
    let b = Buffer.create 1024 in
    List.iter
      (fun r ->
        let sym =
          match r.target with
          | Symbol s -> Hashtbl.find sym_index s
          | Section i -> section_sym.(i)
        in
        add_le b 8 (Int64.of_int r.offset);
        add_le b 8
          (Int64.logor (Int64.shift_left (Int64.of_int sym) 32) (Int64.of_int r.r_type));
        add_le b 8 r.addend)
      sec.relocs;
    Buffer.contents b
  in
  let shstrtab = Buffer.create 256 in
  Buffer.add_char shstrtab '\000';
  let out = Buffer.create 16384 in
  Buffer.add_string out (String.make 64 '\000');
  (* name, type, flags, addralign, entsize, link, info, contents *)
  let shdrs =
    List.map
      (fun h ->
        let name = add_str shstrtab (header_name h) in
        let t, flags, align, entsize, link, info, data =
          match h with
          | `Sec i ->
            let s = sections.(i) in
            (s.sh_type, s.flags, s.align, s.entsize, 0, 0, s.contents)
          | `Rela i ->
            (sht_rela, shf_info_link, 8, 24, index_of `Symtab, index_of (`Sec i),
             rela sections.(i))
          | `Symtab ->
            ( sht_symtab, 0, 8, 24, index_of `Strtab, !first_global,
              Buffer.contents symtab )
          | `Strtab -> (sht_strtab, 0, 1, 0, 0, 0, Buffer.contents strtab)
          | `Shstrtab -> (sht_strtab, 0, 1, 0, 0, 0, Buffer.contents shstrtab)
        in
        pad_to out (max align 1);
        let offset = Buffer.length out in
        if t <> sht_nobits then Buffer.add_string out data;
        (name, t, flags, offset, String.length data, link, info, align, entsize))
      headers
  in
  pad_to out 8;
  let shoff = Buffer.length out in
  Buffer.add_string out (String.make 64 '\000');
  List.iter
    (fun (name, t, flags, offset, size, link, info, align, entsize) ->
      add_le out 4 (Int64.of_int name);
      add_le out 4 (Int64.of_int t);
      add_le out 8 (Int64.of_int flags);
      add_le out 8 0L;
      add_le out 8 (Int64.of_int offset);
      add_le out 8 (Int64.of_int size);
      add_le out 4 (Int64.of_int link);
      add_le out 4 (Int64.of_int info);
      add_le out 8 (Int64.of_int align);
      add_le out 8 (Int64.of_int entsize))
    shdrs;
  let file = Buffer.to_bytes out in
  let header = Buffer.create 64 in
  Buffer.add_string header "\x7fELF\002\001\001\000";
  Buffer.add_string header (String.make 8 '\000');
  add_le header 2 1L (* ET_REL *);
  add_le header 2 62L (* EM_X86_64 *);
  add_le header 4 1L;
  add_le header 8 0L (* entry *);
  add_le header 8 0L (* phoff *);
  add_le header 8 (Int64.of_int shoff);
  add_le header 4 0L (* flags *);
  add_le header 2 64L (* ehsize *);
  add_le header 2 0L;
  add_le header 2 0L;
  add_le header 2 64L (* shentsize *);
  add_le header 2 (Int64.of_int (List.length headers + 1));
  add_le header 2 (Int64.of_int (index_of `Shstrtab));
  Bytes.blit_string (Buffer.contents header) 0 file 0 64;
  Bytes.unsafe_to_string file
