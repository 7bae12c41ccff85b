(* Machine code for one [X86_ast] instruction, as GNU [as] encodes the
   line [X86_gas] prints for it: the same opcode, operand order, ModRM
   and SIB choices, immediate and displacement widths, and prefixes.

   Where [as] has a choice, it takes the shortest form that needs no
   optimization flag: an 8-bit immediate when the value fits, the
   accumulator forms ([add $1000, %rax] is [48 05 ..]), [d1] for a shift
   by one, the store direction ([89], [01], ...) for register to
   register, the load direction for SSE moves between registers, and no
   operand-size narrowing ([movq $1, %rax] stays [48 c7 c0 ..]).
   Anything else raises [Unsupported] with what it was. *)

open X86_ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* How a field that names a symbol becomes bytes: resolved against a
   label once addresses are known, or left to the linker as an ELF
   relocation of the matching type. *)
type kind =
  | Abs  (** [R_X86_64_64], [_32], [_16], [_8] by size *)
  | Abs_signed  (** [R_X86_64_32S]: a sign-extended 32-bit immediate *)
  | Pc  (** [R_X86_64_PC32] *)
  | Plt  (** [R_X86_64_PLT32]: a call or jump *)
  | Gotpcrel  (** [R_X86_64_GOTPCREL] *)
  | Gotpcrelx  (** [R_X86_64_GOTPCRELX]: relaxable, no REX prefix *)
  | Rex_gotpcrelx  (** [R_X86_64_REX_GOTPCRELX] *)

(* A field of [size] bytes at [at] within the instruction, holding
   [symbol + addend] (minus the field's own address when [kind] is
   PC-relative).  A RIP-relative displacement is relative to the end of
   the instruction, so its addend already subtracts the bytes from the
   field to that end. *)
type fixup = {
  at : int;
  size : int;
  symbol : string;
  addend : int64;
  kind : kind;
}

type t =
  | Code of { bytes : Bytes.t; fixups : fixup list }
  | Branch of { cond : condition option; target : string }
      (** A jump to a label: [as] relaxes it to the short form when the
          label is in reach, so its size waits for the layout. *)

(* [foo@PLT] and [foo@GOTPCREL] name [foo]. *)
let split_suffix s =
  match String.index_opt s '@' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* --- Operands ------------------------------------------------------- *)

let reg_num = function
  | RAX -> 0 | RCX -> 1 | RDX -> 2 | RBX -> 3
  | RSP -> 4 | RBP -> 5 | RSI -> 6 | RDI -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let reg8h_num = function AH -> 4 | CH -> 5 | DH -> 6 | BH -> 7

let cond_code = function
  | O -> 0x0 | NO -> 0x1 | B -> 0x2 | AE -> 0x3
  | E -> 0x4 | NE -> 0x5 | BE -> 0x6 | A -> 0x7
  | S -> 0x8 | NS -> 0x9 | P -> 0xa | NP -> 0xb
  | L -> 0xc | GE -> 0xd | LE -> 0xe | G -> 0xf

let fits_int8 n = Int64.compare n (-128L) >= 0 && Int64.compare n 127L <= 0

let fits_int32 n =
  Int64.compare n (-2147483648L) >= 0 && Int64.compare n 2147483647L <= 0

let fits_uint32 n = Int64.compare n 0L >= 0 && Int64.compare n 0xFFFF_FFFFL <= 0

(* The r/m operand of a ModRM byte. *)
type rm =
  | Direct of int
  | Indirect of {
      base : int option;
      index : (int * int) option;  (** register, scale *)
      disp : int;
      sym : string option;
    }
  | Rip of { sym : string; disp : int }

(* The operand size [X86_gas] prints as a suffix. *)
let size_of_type = function
  | BYTE -> Some 1
  | WORD -> Some 2
  | DWORD | REAL8 -> Some 4
  | QWORD -> Some 8
  | NONE -> None
  | REAL4 | OWORD | NEAR | PROC -> None

let operand_size = function
  | Reg8L _ | Reg8H _ -> Some 1
  | Reg16 _ -> Some 2
  | Reg32 _ -> Some 4
  | Reg64 _ -> Some 8
  | Mem { typ; _ } | Mem64_RIP (typ, _, _) -> size_of_type typ
  | Imm _ | Sym _ | Regf _ -> None

let memory = function
  | Mem { arch = X86; _ } -> unsupported "32-bit addressing"
  | Mem { idx; scale; base; sym; displ; _ } ->
    if scale = 0 then Indirect { base = None; index = None; disp = displ; sym }
    else begin
      if not (List.mem scale [ 1; 2; 4; 8 ]) then unsupported "scale %d" scale;
      match base with
      | None when scale = 1 ->
        Indirect { base = Some (reg_num idx); index = None; disp = displ; sym }
      | base ->
        if idx = RSP then unsupported "%%rsp as an index";
        Indirect
          { base = Option.map reg_num base; index = Some (reg_num idx, scale);
            disp = displ; sym }
    end
  | Mem64_RIP (_, sym, disp) -> Rip { sym; disp }
  | _ -> assert false

(* A general register or memory operand, and whether it is one of
   [%spl], [%bpl], [%sil], [%dil], which need a REX prefix. *)
let rm_of arg =
  match arg with
  | Reg8L r ->
    (Direct (reg_num r), match r with RSP | RBP | RSI | RDI -> true | _ -> false)
  | Reg8H r -> (Direct (reg8h_num r), false)
  | Reg16 r | Reg32 r | Reg64 r -> (Direct (reg_num r), false)
  | Regf (XMM n) -> (Direct n, false)
  | Mem _ | Mem64_RIP _ -> (memory arg, false)
  | Regf (TOS | ST _) -> unsupported "x87 register"
  | Imm _ | Sym _ -> unsupported "immediate where a register or memory operand goes"

(* --- Emission ------------------------------------------------------- *)

type imm =
  | No_imm
  | Imm_int of int * int64  (** size, value *)
  | Imm_sym of int * string * int64 * kind  (** size, symbol, addend, relocation *)

let imm_size = function No_imm -> 0 | Imm_int (n, _) | Imm_sym (n, _, _, _) -> n

let add_le b size v =
  for i = 0 to size - 1 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

(* [prefixes] (66, F2, F3), then REX, then [opcode], then ModRM, SIB,
   displacement and immediate.  [reg] is the ModRM reg field: a register
   number or an opcode extension.  A [@GOTPCREL] operand of an opcode
   the linker may rewrite ([relax_got]: a load, test or arithmetic from
   memory, an indirect call or jump) gets [as]'s relaxable relocation,
   whose type says whether a REX prefix precedes. *)
let emit ?(prefixes = []) ?(w = false) ?(force_rex = false) ?(relax_got = false)
    ~opcode ~reg ~rm ?(imm = No_imm) () =
  let b = Buffer.create 16 and fixups = ref [] in
  List.iter (Buffer.add_char b) (List.map Char.chr prefixes);
  let rex_r = reg lsr 3 land 1 in
  let rex_x, rex_b =
    match rm with
    | Direct n -> (0, n lsr 3 land 1)
    | Indirect { base; index; _ } ->
      ( (match index with Some (i, _) -> i lsr 3 land 1 | None -> 0),
        match base with Some n -> n lsr 3 land 1 | None -> 0 )
    | Rip _ -> (0, 0)
  in
  let rex = (if w then 8 else 0) lor (rex_r lsl 2) lor (rex_x lsl 1) lor rex_b in
  let has_rex = rex <> 0 || force_rex in
  if has_rex then Buffer.add_char b (Char.chr (0x40 lor rex));
  List.iter (fun c -> Buffer.add_char b (Char.chr c)) opcode;
  let modrm md r m =
    Buffer.add_char b (Char.chr ((md lsl 6) lor ((r land 7) lsl 3) lor (m land 7)))
  in
  let fixup ~size ~symbol ~addend ~kind =
    fixups := { at = Buffer.length b; size; symbol; addend; kind } :: !fixups;
    add_le b size 0L
  in
  (match rm with
  | Direct n -> modrm 3 reg n
  | Rip { sym; disp } ->
    modrm 0 reg 5;
    let symbol, suffix = split_suffix sym in
    let kind =
      match suffix with
      | "" -> Pc
      | "GOTPCREL" when relax_got -> if has_rex then Rex_gotpcrelx else Gotpcrelx
      | "GOTPCREL" -> Gotpcrel
      | s -> unsupported "@%s in a memory operand" s
    in
    fixup ~size:4 ~symbol ~kind
      ~addend:(Int64.of_int (disp - 4 - imm_size imm))
  | Indirect { base; index; disp; sym } ->
    let disp_field md =
      match sym with
      | Some s ->
        let symbol, suffix = split_suffix s in
        if suffix <> "" then unsupported "@%s in an absolute address" suffix;
        fixup ~size:4 ~symbol ~addend:(Int64.of_int disp) ~kind:Abs_signed
      | None -> add_le b (if md = 1 then 1 else 4) (Int64.of_int disp)
    in
    let mode base_low =
      if sym <> None then 2
      else if disp = 0 && base_low <> 5 then 0
      else if fits_int8 (Int64.of_int disp) then 1
      else 2
    in
    (match base, index with
    | None, None ->
      (* Absolute: [rm = 101] is RIP-relative in 64-bit mode, so a SIB
         with neither base nor index. *)
      modrm 0 reg 4;
      Buffer.add_char b '\x25';
      disp_field 2
    | Some bs, None ->
      let md = mode (bs land 7) in
      if bs land 7 = 4 then begin
        modrm md reg 4;
        Buffer.add_char b (Char.chr (0x20 lor (bs land 7)))
      end
      else modrm md reg bs;
      if md <> 0 then disp_field md
    | base, Some (i, scale) ->
      let ss = match scale with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3 in
      let sib bs =
        Buffer.add_char b (Char.chr ((ss lsl 6) lor ((i land 7) lsl 3) lor bs))
      in
      (match base with
      | None ->
        modrm 0 reg 4;
        sib 5;
        disp_field 2
      | Some bs ->
        let md = mode (bs land 7) in
        modrm md reg 4;
        sib (bs land 7);
        if md <> 0 then disp_field md)));
  (match imm with
  | No_imm -> ()
  | Imm_int (size, v) -> add_le b size v
  | Imm_sym (size, s, addend, kind) ->
    let symbol, suffix = split_suffix s in
    if suffix <> "" then unsupported "@%s in an immediate" suffix;
    fixup ~size ~symbol ~addend ~kind);
  Code { bytes = Buffer.to_bytes b; fixups = List.rev !fixups }

let raw bytes = Code { bytes = Bytes.of_string bytes; fixups = [] }

(* An instruction without ModRM: [prefixes], a REX prefix with the bits
   [rex] (none when 0, unless [force_rex]), [opcode], then [imm]. *)
let short ?(prefixes = []) ?(rex = 0) ?(force_rex = false) opcode imm =
  let b = Buffer.create 12 in
  List.iter (fun c -> Buffer.add_char b (Char.chr c)) prefixes;
  if rex <> 0 || force_rex then Buffer.add_char b (Char.chr (0x40 lor rex));
  List.iter (fun c -> Buffer.add_char b (Char.chr c)) opcode;
  let fixups =
    match imm with
    | No_imm -> []
    | Imm_int (size, v) ->
      add_le b size v;
      []
    | Imm_sym (size, symbol, addend, kind) ->
      let at = Buffer.length b in
      add_le b size 0L;
      [ { at; size; symbol; addend; kind } ]
  in
  Code { bytes = Buffer.to_bytes b; fixups }

(* --- Instruction forms ---------------------------------------------- *)

let size_prefix = function 2 -> [ 0x66 ] | _ -> []

(* The operand size of a two-operand integer instruction: [X86_gas]
   prints the suffix of the destination, and [as] falls back on the
   register operand when there is none. *)
let size2 name src dst =
  match operand_size dst, operand_size src with
  | Some s, _ -> s
  | None, Some s -> s
  | None, None -> unsupported "%s: no operand size" name

let size1 name arg =
  match operand_size arg with Some s -> s | None -> unsupported "%s: no operand size" name

let is_reg = function Reg8L _ | Reg8H _ | Reg16 _ | Reg32 _ | Reg64 _ -> true | _ -> false

let is_mem = function Mem _ | Mem64_RIP _ -> true | _ -> false

let reg_of = function
  | Reg8L r | Reg16 r | Reg32 r | Reg64 r -> reg_num r
  | Reg8H r -> reg8h_num r
  | Regf (XMM n) -> n
  | _ -> assert false

let is_accumulator = function
  | Reg8L RAX | Reg16 RAX | Reg32 RAX | Reg64 RAX -> true
  | _ -> false

(* The immediate of an [size]-byte operation. *)
let imm_field size = function
  | Imm n -> Imm_int (min size 4, n)
  | Sym s -> Imm_sym (min size 4, s, 0L, if size = 8 then Abs_signed else Abs)
  | _ -> assert false

let check_imm name size n =
  let ok =
    match size with
    | 1 -> Int64.compare n (-128L) >= 0 && Int64.compare n 255L <= 0
    | 2 -> Int64.compare n (-32768L) >= 0 && Int64.compare n 65535L <= 0
    | 4 -> fits_int32 n || fits_uint32 n
    | _ -> fits_int32 n
  in
  if not ok then unsupported "%s: immediate %Ld out of range" name n

(* One operand in r/m with the opcode extension [ext]: [op8] for bytes,
   [op] otherwise. *)
let unary name ~op8 ~op ~ext arg =
  let size = size1 name arg in
  let rm, byte_rex = rm_of arg in
  emit ~prefixes:(size_prefix size) ~w:(size = 8) ~force_rex:byte_rex
    ~opcode:[ (if size = 1 then op8 else op) ] ~reg:ext ~rm ()

(* A register [reg] and an r/m operand. *)
let reg_rm ?(prefixes = []) ?relax_got ~size ~opcode reg_arg rm_arg =
  let rm, rex1 = rm_of rm_arg in
  let _, rex2 = rm_of reg_arg in
  emit ~prefixes:(prefixes @ size_prefix size) ~w:(size = 8) ~force_rex:(rex1 || rex2)
    ?relax_got ~opcode ~reg:(reg_of reg_arg) ~rm ()

(* ADD, OR, AND, SUB, XOR, CMP: [ext] is the group-1 opcode extension,
   and also picks the opcode row of the register forms. *)
let alu name ext src dst =
  let size = size2 name src dst in
  match src with
  | Imm _ | Sym _ ->
    (match src with Imm n -> check_imm name size n | _ -> ());
    let imm8 = match src with Imm n -> size > 1 && fits_int8 n | _ -> false in
    if imm8 then
      let rm, rex = rm_of dst in
      emit ~prefixes:(size_prefix size) ~w:(size = 8) ~force_rex:rex ~opcode:[ 0x83 ]
        ~reg:ext ~rm ~imm:(Imm_int (1, match src with Imm n -> n | _ -> 0L)) ()
    else if is_accumulator dst then
      short ~prefixes:(size_prefix size) ~rex:(if size = 8 then 8 else 0)
        [ (ext lsl 3) lor if size = 1 then 4 else 5 ]
        (imm_field size src)
    else
      let rm, rex = rm_of dst in
      emit ~prefixes:(size_prefix size) ~w:(size = 8) ~force_rex:rex
        ~opcode:[ (if size = 1 then 0x80 else 0x81) ]
        ~reg:ext ~rm ~imm:(imm_field size src) ()
  | _ when is_reg src ->
    reg_rm ~size ~opcode:[ (ext lsl 3) lor if size = 1 then 0 else 1 ] src dst
  | _ when is_mem src && is_reg dst ->
    reg_rm ~relax_got:(size > 1) ~size
      ~opcode:[ (ext lsl 3) lor if size = 1 then 2 else 3 ]
      dst src
  | _ -> unsupported "%s: operands" name

let test src dst =
  let size = size2 "test" src dst in
  match src with
  | Imm n ->
    check_imm "test" size n;
    if is_accumulator dst then
      short ~prefixes:(size_prefix size) ~rex:(if size = 8 then 8 else 0)
        [ (if size = 1 then 0xa8 else 0xa9) ]
        (Imm_int (min size 4, n))
    else
      let rm, rex = rm_of dst in
      emit ~prefixes:(size_prefix size) ~w:(size = 8) ~force_rex:rex
        ~opcode:[ (if size = 1 then 0xf6 else 0xf7) ]
        ~reg:0 ~rm ~imm:(Imm_int (min size 4, n)) ()
  | _ when is_reg src -> reg_rm ~size ~opcode:[ (if size = 1 then 0x84 else 0x85) ] src dst
  | _ when is_mem src && is_reg dst ->
    reg_rm ~relax_got:(size > 1) ~size ~opcode:[ (if size = 1 then 0x84 else 0x85) ] dst src
  | _ -> unsupported "test: operands"

let mov src dst =
  let size = size2 "mov" src dst in
  match src, dst with
  | Imm n, Reg64 r when not (fits_int32 n) ->
    short ~rex:(8 lor (reg_num r lsr 3)) [ 0xb8 lor (reg_num r land 7) ] (Imm_int (8, n))
  | (Imm _ | Sym _), (Reg8L _ | Reg8H _ | Reg16 _ | Reg32 _) ->
    (match src with Imm n -> check_imm "mov" size n | _ -> ());
    let _, force_rex = rm_of dst and r = reg_of dst in
    short ~prefixes:(size_prefix size) ~rex:(r lsr 3) ~force_rex
      [ (if size = 1 then 0xb0 else 0xb8) lor (r land 7) ]
      (imm_field size src)
  | (Imm _ | Sym _), _ ->
    (match src with Imm n -> check_imm "mov" size n | _ -> ());
    let rm, rex = rm_of dst in
    emit ~prefixes:(size_prefix size) ~w:(size = 8) ~force_rex:rex
      ~opcode:[ (if size = 1 then 0xc6 else 0xc7) ] ~reg:0 ~rm ~imm:(imm_field size src) ()
  | _ when is_reg src -> reg_rm ~size ~opcode:[ (if size = 1 then 0x88 else 0x89) ] src dst
  | _ when is_mem src && is_reg dst ->
    reg_rm ~relax_got:(size > 1) ~size ~opcode:[ (if size = 1 then 0x8a else 0x8b) ] dst src
  | _ -> unsupported "mov: operands"

(* SAL, SHR, SAR by an immediate or by [%cl]. *)
let shift name ext count dst =
  let size = size1 name dst in
  let rm, rex = rm_of dst in
  let emit = emit ~prefixes:(size_prefix size) ~w:(size = 8) ~force_rex:rex ~reg:ext ~rm in
  match count with
  | Imm 1L -> emit ~opcode:[ (if size = 1 then 0xd0 else 0xd1) ] ()
  | Imm n -> emit ~opcode:[ (if size = 1 then 0xc0 else 0xc1) ] ~imm:(Imm_int (1, n)) ()
  | Reg8L RCX -> emit ~opcode:[ (if size = 1 then 0xd2 else 0xd3) ] ()
  | _ -> unsupported "%s: shift count" name

let imul src dst =
  match dst with
  | None -> unary "imul" ~op8:0xf6 ~op:0xf7 ~ext:5 src
  | Some dst ->
    let size = size2 "imul" src dst in
    if size = 1 || not (is_reg dst) then unsupported "imul: operands";
    (match src with
    | Imm n ->
      let rm, _ = rm_of dst in
      let emit = emit ~prefixes:(size_prefix size) ~w:(size = 8) ~reg:(reg_of dst) ~rm in
      if fits_int8 n then emit ~opcode:[ 0x6b ] ~imm:(Imm_int (1, n)) ()
      else begin
        check_imm "imul" size n;
        emit ~opcode:[ 0x69 ] ~imm:(Imm_int (min size 4, n)) ()
      end
    | _ -> reg_rm ~size ~opcode:[ 0x0f; 0xaf ] dst src)

let movx name ~op src dst =
  let src_size = size1 name src and dst_size = size1 name dst in
  let op =
    match src_size with 1 -> op | 2 -> op + 1 | _ -> unsupported "%s: source size" name
  in
  let rm, rex1 = rm_of src in
  let _, rex2 = rm_of dst in
  emit ~prefixes:(size_prefix dst_size) ~w:(dst_size = 8) ~force_rex:(rex1 || rex2)
    ~opcode:[ 0x0f; op ] ~reg:(reg_of dst) ~rm ()

let push_pop name arg =
  let push = name = "push" in
  match arg with
  | Reg64 r | Reg16 r ->
    let n = reg_num r in
    short
      ~prefixes:(match arg with Reg16 _ -> [ 0x66 ] | _ -> [])
      ~rex:(n lsr 3)
      [ (if push then 0x50 else 0x58) lor (n land 7) ]
      No_imm
  | Imm n when push ->
    if fits_int8 n then short [ 0x6a ] (Imm_int (1, n))
    else begin
      check_imm "push" 8 n;
      short [ 0x68 ] (Imm_int (4, n))
    end
  | Sym s when push ->
    let symbol, suffix = split_suffix s in
    if suffix <> "" then unsupported "push: @%s" suffix;
    short [ 0x68 ] (Imm_sym (4, symbol, 0L, Abs_signed))
  | Mem _ | Mem64_RIP _ ->
    let size = match operand_size arg with Some s -> s | None -> 8 in
    if size <> 8 && size <> 2 then unsupported "%s: operand size" name;
    let rm, _ = rm_of arg in
    emit ~prefixes:(size_prefix size) ~opcode:[ (if push then 0xff else 0x8f) ]
      ~reg:(if push then 6 else 0) ~rm ()
  | _ -> unsupported "%s: operand" name

(* CALL and JMP through a register or memory: FF /2 and FF /4. *)
let indirect ext arg =
  match arg with
  | Reg64 r ->
    let n = reg_num r in
    emit ~opcode:[ 0xff ] ~reg:ext ~rm:(Direct n) ()
  | Mem _ | Mem64_RIP _ ->
    let rm, _ = rm_of arg in
    emit ~relax_got:true ~opcode:[ 0xff ] ~reg:ext ~rm ()
  | _ -> unsupported "indirect call or jump: operand"

let call = function
  | Sym s ->
    let symbol, suffix = split_suffix s in
    let kind =
      match suffix with
      | "" | "PLT" -> Plt
      | s -> unsupported "call: @%s" s
    in
    short [ 0xe8 ] (Imm_sym (4, symbol, -4L, kind))
  | arg -> indirect 2 arg

(* SSE: [prefix] 0F [op] with the XMM register [dst] in reg. *)
let sse ?(w = false) ~prefix ~op ?(imm = No_imm) src dst =
  let rm, _ = rm_of src in
  emit ~prefixes:prefix ~w ~opcode:(0x0f :: op) ~reg:(reg_of dst) ~rm ~imm ()

let is_xmm = function Regf (XMM _) -> true | _ -> false

(* Moves with a load form [load] (XMM destination) and a store form
   [store] (memory destination); between registers [as] takes the load
   form. *)
let sse_move ~prefix ~load ~store src dst =
  if is_xmm dst then sse ~prefix ~op:[ load ] src dst
  else if is_xmm src && is_mem dst then sse ~prefix ~op:[ store ] dst src
  else unsupported "SSE move: operands"

let float_condition = function
  | EQf -> 0 | LTf -> 1 | LEf -> 2 | UNORDf -> 3
  | NEQf -> 4 | NLTf -> 5 | NLEf -> 6 | ORDf -> 7

let rounding = function
  | RoundNearest -> 0 | RoundDown -> 1 | RoundUp -> 2 | RoundTruncate -> 3

let x87 name = unsupported "%s: x87 instructions are not encoded" name

let encode = function
  | ADD (s, d) -> alu "add" 0 s d
  | OR (s, d) -> alu "or" 1 s d
  | AND (s, d) -> alu "and" 4 s d
  | SUB (s, d) -> alu "sub" 5 s d
  | XOR (s, d) -> alu "xor" 6 s d
  | CMP (s, d) -> alu "cmp" 7 s d
  | TEST (s, d) -> test s d
  | MOV (s, d) -> mov s d
  | LEA (s, d) ->
    let size = size1 "lea" d in
    reg_rm ~size ~opcode:[ 0x8d ] d s
  | MOVZX (s, d) -> movx "movz" ~op:0xb6 s d
  | MOVSX (s, d) -> movx "movs" ~op:0xbe s d
  | MOVSXD (s, d) -> reg_rm ~size:8 ~opcode:[ 0x63 ] d s
  | CMOV (c, s, d) ->
    reg_rm ~size:(size1 "cmov" d) ~opcode:[ 0x0f; 0x40 lor cond_code c ] d s
  | SET (c, d) ->
    let rm, rex = rm_of d in
    emit ~force_rex:rex ~opcode:[ 0x0f; 0x90 lor cond_code c ] ~reg:0 ~rm ()
  | SAL (c, d) -> shift "sal" 4 c d
  | SHR (c, d) -> shift "shr" 5 c d
  | SAR (c, d) -> shift "sar" 7 c d
  | INC d -> unary "inc" ~op8:0xfe ~op:0xff ~ext:0 d
  | DEC d -> unary "dec" ~op8:0xfe ~op:0xff ~ext:1 d
  | NEG d when is_mem d ->
    (* [X86_gas] prints [neg] without a suffix, so [as] takes its
       default operand size, 32 bits, whatever the memory's type. *)
    let rm, _ = rm_of d in
    emit ~opcode:[ 0xf7 ] ~reg:3 ~rm ()
  | NEG d -> unary "neg" ~op8:0xf6 ~op:0xf7 ~ext:3 d
  | IDIV d -> unary "idiv" ~op8:0xf6 ~op:0xf7 ~ext:7 d
  | IMUL (s, d) -> imul s d
  | XCHG (s, d) ->
    let size = size2 "xchg" s d in
    (* [xchg %eax, %eax] zero-extends, so it is not [nop]; the 16- and
       64-bit forms are, and [as] encodes [%rax, %rax] as a bare [nop]. *)
    if size = 8 && is_accumulator s && is_accumulator d then raw "\x90"
    else if size = 4 && is_accumulator s && is_accumulator d then raw "\x87\xc0"
    else if size > 1 && is_reg s && is_reg d && (is_accumulator s || is_accumulator d) then
      let n = reg_of (if is_accumulator s then d else s) in
      short ~prefixes:(size_prefix size)
        ~rex:((if size = 8 then 8 else 0) lor (n lsr 3))
        [ 0x90 lor (n land 7) ]
        No_imm
    else if is_reg s then reg_rm ~size ~opcode:[ (if size = 1 then 0x86 else 0x87) ] s d
    else reg_rm ~size ~opcode:[ (if size = 1 then 0x86 else 0x87) ] d s
  | BSWAP d ->
    let n = reg_of d in
    short
      ~rex:((if size1 "bswap" d = 8 then 8 else 0) lor (n lsr 3))
      [ 0x0f; 0xc8 lor (n land 7) ]
      No_imm
  | PUSH a -> push_pop "push" a
  | POP a -> push_pop "pop" a
  | CALL a -> call a
  | JMP (Sym s) -> Branch { cond = None; target = s }
  | JMP a -> indirect 4 a
  | J (c, Sym s) -> Branch { cond = Some c; target = s }
  | J _ -> unsupported "conditional jump: operand"
  | RET -> raw "\xc3"
  | LEAVE -> raw "\xc9"
  | NOP -> raw "\x90"
  | HLT -> raw "\xf4"
  | CDQ -> raw "\x99"
  | CQO -> raw "\x48\x99"
  | ADDSD (s, d) -> sse ~prefix:[ 0xf2 ] ~op:[ 0x58 ] s d
  | SUBSD (s, d) -> sse ~prefix:[ 0xf2 ] ~op:[ 0x5c ] s d
  | MULSD (s, d) -> sse ~prefix:[ 0xf2 ] ~op:[ 0x59 ] s d
  | DIVSD (s, d) -> sse ~prefix:[ 0xf2 ] ~op:[ 0x5e ] s d
  | SQRTSD (s, d) -> sse ~prefix:[ 0xf2 ] ~op:[ 0x51 ] s d
  | ANDPD (s, d) -> sse ~prefix:[ 0x66 ] ~op:[ 0x54 ] s d
  | XORPD (s, d) -> sse ~prefix:[ 0x66 ] ~op:[ 0x57 ] s d
  | UCOMISD (s, d) -> sse ~prefix:[ 0x66 ] ~op:[ 0x2e ] s d
  | COMISD (s, d) -> sse ~prefix:[ 0x66 ] ~op:[ 0x2f ] s d
  | CVTSD2SS (s, d) -> sse ~prefix:[ 0xf2 ] ~op:[ 0x5a ] s d
  | CVTSS2SD (s, d) -> sse ~prefix:[ 0xf3 ] ~op:[ 0x5a ] s d
  | CVTSI2SD (s, d) ->
    sse ~w:(size1 "cvtsi2sd" s = 8) ~prefix:[ 0xf2 ] ~op:[ 0x2a ] s d
  | CVTTSD2SI (s, d) -> sse ~w:(size1 "cvttsd2si" d = 8) ~prefix:[ 0xf2 ] ~op:[ 0x2c ] s d
  | CVTSD2SI (s, d) -> sse ~w:(size1 "cvtsd2si" d = 8) ~prefix:[ 0xf2 ] ~op:[ 0x2d ] s d
  | CMPSD (c, s, d) ->
    let imm = Imm_int (1, Int64.of_int (float_condition c)) in
    sse ~prefix:[ 0xf2 ] ~op:[ 0xc2 ] ~imm s d
  | ROUNDSD (r, s, d) ->
    (* No oracle: [X86_gas] prints [roundsd.down], which [as] rejects. *)
    let imm = Imm_int (1, Int64.of_int (rounding r)) in
    sse ~prefix:[ 0x66 ] ~op:[ 0x3a; 0x0b ] ~imm s d
  | MOVSD (s, d) -> sse_move ~prefix:[ 0xf2 ] ~load:0x10 ~store:0x11 s d
  | MOVSS (s, d) -> sse_move ~prefix:[ 0xf3 ] ~load:0x10 ~store:0x11 s d
  | MOVAPD (s, d) -> sse_move ~prefix:[ 0x66 ] ~load:0x28 ~store:0x29 s d
  | MOVLPD (s, d) -> sse_move ~prefix:[ 0x66 ] ~load:0x12 ~store:0x13 s d
  | MOVD (s, d) ->
    (* Printed without a suffix: 64 bits only from a 64-bit register. *)
    let wide = function Reg64 _ -> true | _ -> false in
    if is_xmm d then sse ~w:(wide s) ~prefix:[ 0x66 ] ~op:[ 0x6e ] s d
    else if is_xmm s then sse ~w:(wide d) ~prefix:[ 0x66 ] ~op:[ 0x7e ] d s
    else unsupported "movd: operands"
  | FABS -> x87 "fabs" | FADD _ -> x87 "fadd" | FADDP _ -> x87 "faddp"
  | FCHS -> x87 "fchs" | FCOMP _ -> x87 "fcomp" | FCOMPP -> x87 "fcompp"
  | FCOS -> x87 "fcos" | FDIV _ -> x87 "fdiv" | FDIVP _ -> x87 "fdivp"
  | FDIVR _ -> x87 "fdivr" | FDIVRP _ -> x87 "fdivrp" | FILD _ -> x87 "fild"
  | FISTP _ -> x87 "fistp" | FLD _ -> x87 "fld" | FLD1 -> x87 "fld1"
  | FLDCW _ -> x87 "fldcw" | FLDLG2 -> x87 "fldlg2" | FLDLN2 -> x87 "fldln2"
  | FLDZ -> x87 "fldz" | FMUL _ -> x87 "fmul" | FMULP _ -> x87 "fmulp"
  | FNSTCW _ -> x87 "fnstcw" | FNSTSW _ -> x87 "fnstsw" | FPATAN -> x87 "fpatan"
  | FPTAN -> x87 "fptan" | FSIN -> x87 "fsin" | FSQRT -> x87 "fsqrt"
  | FSTP _ -> x87 "fstp" | FSUB _ -> x87 "fsub" | FSUBP _ -> x87 "fsubp"
  | FSUBR _ -> x87 "fsubr" | FSUBRP _ -> x87 "fsubrp" | FXCH _ -> x87 "fxch"
  | FYL2X -> x87 "fyl2x"

(* The opcodes of a relaxable jump: the short form takes an 8-bit
   displacement, the long one a 32-bit one. *)
let branch_short = function
  | None -> "\xeb"
  | Some c -> String.make 1 (Char.chr (0x70 lor cond_code c))

let branch_long = function
  | None -> "\xe9"
  | Some c -> Printf.sprintf "\x0f%c" (Char.chr (0x80 lor cond_code c))
