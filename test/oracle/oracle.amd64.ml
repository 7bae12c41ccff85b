(* The oracle of the in-process encoder and linker: every plugin of the
   corpus ([corpus.exe], on stdin) is built in-process by
   [Steno_compile.compile], the build the compile worker runs, which
   encodes each plugin's merged program with [X86_object] and links it
   with [X86_link].  A hook keeps each merged program, which is also
   assembled from the text [X86_gas] prints, by [as].  The two objects
   must agree:
   - every allocated section, [.eh_frame] included, byte for byte, with
     the same type, flags, alignment and entry size;
   - the symbols as a set of (name, binding, type, section, value, size);
   - the relocations as a set of (section, offset, type, symbol, addend).
   The plugin the build wrote must equal, byte for byte, what [ld]
   links from the encoder's object, and from [as]'s, and its header must
   name [Stdlib] and [Steno_rt] with their [.cmi] files' CRCs.  A program of every
   instruction form the encoder covers, over all registers and
   addressing modes, and 100 random programs of jumps and alignments
   are held to [as] the same way, and an object of every relocation the
   linker accepts, against defined and undefined symbols, to [ld]; the
   relocations [ld] rejects in a shared object must be rejected too.

   Any mismatch, and any construct the encoder or the linker rejects
   in a plugin, fails the test.  Without [as] or [ld] on PATH there is
   nothing to compare with: the test says so and passes. *)

open X86_ast

let failures = ref 0

let report name lines =
  incr failures;
  Printf.printf "MISMATCH %s\n" name;
  List.iter (Printf.printf "  %s\n") lines

let read path = In_channel.with_open_bin path In_channel.input_all

let run cmd = if Sys.command cmd <> 0 then failwith ("failed: " ^ cmd)

(* [X86_gas] prints [ROUNDSD] as [roundsd.down], which [as] rejects:
   the form [as] takes has the rounding mode as an immediate. *)
let roundsd_modes = [ ("near", 0); ("down", 1); ("up", 2); ("trunc", 3) ]

let rewrite_roundsd text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ ""; op; operands ] when String.starts_with ~prefix:"roundsd." op ->
           let mode = String.sub op 8 (String.length op - 8) in
           Printf.sprintf "\troundsd\t$%d, %s" (List.assoc mode roundsd_modes) operands
         | _ -> line)
  |> String.concat "\n"

(* [as] on [program], as the compiler would run it on its [.s] ([-W]:
   the instruction forms include a [neg] on memory, which [X86_gas]
   prints without a suffix and [as] warns about): the object's bytes. *)
let gas ~dir program =
  let s = Filename.concat dir "oracle.s" and o = Filename.concat dir "oracle-as.o" in
  Out_channel.with_open_text s (fun oc -> X86_gas.generate_asm oc program);
  let text = read s in
  Out_channel.with_open_text s (fun oc -> output_string oc (rewrite_roundsd text));
  run (Printf.sprintf "%s -W -o %s %s" Config.asm (Filename.quote o) (Filename.quote s));
  let obj = read o in
  Sys.remove s;
  Sys.remove o;
  obj

(* The command [ld] links a plugin with, on Linux: what [X86_link]
   reproduces. *)
let ld =
  match String.split_on_char ' ' Config.native_pack_linker with
  | ld :: _ when ld <> "" -> ld ^ " --build-id --eh-frame-hdr --hash-style=gnu -shared"
  | _ -> "ld --build-id --eh-frame-hdr --hash-style=gnu -shared"

(* The shared object [ld] makes of one object, or [None] when it
   refuses to. *)
let link ~dir obj =
  let o = Filename.concat dir "oracle-link.o"
  and so = Filename.concat dir "oracle-link.so" in
  Out_channel.with_open_bin o (fun oc -> output_string oc obj);
  let linked =
    let cmd =
      Printf.sprintf "%s -o %s %s 2>/dev/null" ld (Filename.quote so) (Filename.quote o)
    in
    if Sys.command cmd = 0 then Some (read so)
    else None
  in
  Sys.remove o;
  (try Sys.remove so with Sys_error _ -> ());
  linked

(* Encode [program] both ways; the encoder's object and [as]'s, or
   [None] when the encoder rejects a construct. *)
let check ~dir name program =
  let expected = gas ~dir program in
  match X86_object.of_program program with
  | exception X86_encode.Unsupported what ->
    report name [ "rejected: " ^ what ];
    None
  | obj ->
    let mine = X86_object.to_elf obj in
    (match Elf_read.diff (Elf_read.read mine) (Elf_read.read expected) with
    | [] -> ()
    | lines -> report name lines);
    Some (obj, mine, expected)

(* Link [obj] in-process and with [ld], both from the encoder's object
   and from [as]'s: three equal images. *)
let check_link ~dir name (obj, mine, expected) =
  match X86_link.link obj, link ~dir mine with
  | exception X86_link.Unsupported what -> report name [ "linker rejected: " ^ what ]
  | _, None -> report name [ "ld failed" ]
  | image, Some linked ->
    if image <> linked then report name [ "the in-process link differs from ld's" ];
    if link ~dir expected <> Some linked then
      report name [ "the encoder's and as's objects link to different plugins" ]

(* --- Every instruction form ------------------------------------------ *)

let regs =
  [ RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 ]

let mem ?(typ = QWORD) ?base ?(scale = 1) displ idx =
  Mem { arch = X64; typ; idx; scale; base; sym = None; displ }

let rip ?(typ = QWORD) ?(ofs = 0) sym = Mem64_RIP (typ, sym, ofs)

let got = rip "oracle_extern@GOTPCREL"

(* Base-only operands over every register, and indexed ones over every
   register that can index, with each displacement width. *)
let mems typ =
  List.concat_map
    (fun r ->
      let base = [ mem ~typ 0 r; mem ~typ 8 r; mem ~typ (-8) r; mem ~typ 1000 r ] in
      if r = RSP then base
      else
        base
        @ [ mem ~typ ~base:RAX 0 r; mem ~typ ~base:R13 ~scale:8 16 r;
            mem ~typ ~base:RBP ~scale:2 (-4) r; mem ~typ ~scale:4 24 r;
            mem ~typ ~base:RSP 0 r ])
    regs
  @ [ rip ~typ "oracle_data"; rip ~typ ~ofs:12 "oracle_data"; rip ~typ ".Lnear";
      rip ~typ ~ofs:(-8) "oracle_extern" ]

let imms = [ 0L; 1L; -1L; 127L; -128L; 128L; 1000L; -70000L; 0x7fffffffL ]

let typ_of = function
  | Reg64 _ -> QWORD
  | Reg32 _ -> DWORD
  | Reg16 _ -> WORD
  | _ -> BYTE

let fits typ n =
  match typ with
  | BYTE -> Int64.compare n (-128L) >= 0 && Int64.compare n 255L <= 0
  | WORD -> Int64.compare n (-32768L) >= 0 && Int64.compare n 65535L <= 0
  | _ -> true

(* [op] at every operand size, register to register, memory to register,
   register to memory and immediate to either. *)
let two_operand op =
  List.concat_map
    (fun mk ->
      List.concat_map
        (fun r ->
          let d = mk r and typ = typ_of (mk r) in
          List.map (fun r' -> op (mk r') d) [ RAX; RBX; R9; RSI ]
          @ [ op (mem ~typ 8 r) d; op (rip ~typ "oracle_data") d;
              op d (mem ~typ 16 RBX) ]
          @ List.filter_map
              (fun n -> if fits typ n then Some (op (Imm n) d) else None)
              imms)
        regs)
    [ (fun r -> Reg64 r); (fun r -> Reg32 r); (fun r -> Reg16 r); (fun r -> Reg8L r) ]
  @ List.concat_map
      (fun m -> [ op (Imm 5L) m; op (Imm 1000L) m; op (Reg64 R10) m ])
      (mems QWORD)
  @ [ op (Imm 5L) (mem ~typ:BYTE 0 RAX); op (Imm 300L) (mem ~typ:WORD 0 RAX);
      op (Imm 70000L) (mem ~typ:DWORD 0 R12) ]

let one_operand op =
  List.concat_map (fun r -> [ op (Reg64 r); op (Reg32 r); op (Reg8L r) ]) regs
  @ [ op (mem 8 RAX); op (mem ~typ:BYTE 8 R9) ]

let xmm n = Regf (XMM n)

let sse op =
  List.concat_map
    (fun n ->
      [ op (xmm 3) (xmm n); op (xmm n) (xmm 12); op (mem ~typ:REAL8 8 RAX) (xmm n);
        op (rip ~typ:REAL8 "oracle_data") (xmm n) ])
    (List.init 16 Fun.id)

let per_register r =
  [ MOV (Imm 0x123456789L, Reg64 r); MOV (Imm (-0x80000001L), Reg64 r);
    MOV (Imm 0xffffffffL, Reg32 r); MOV (Sym "oracle_data", Reg64 r);
    MOV (Sym "oracle_data", Reg32 r); MOV (got, Reg64 r);
    MOV (rip ~typ:DWORD "oracle_extern@GOTPCREL", Reg32 r);
    LEA (mem ~typ:NONE 8 r, Reg64 R11); LEA (rip ~typ:NONE ".Lnear", Reg64 r);
    LEA (rip ~typ:NONE "oracle_extern@GOTPCREL", Reg64 r);
    TEST (Reg64 r, Reg64 RAX); TEST (Reg64 RAX, Reg64 r); TEST (Imm 1L, Reg64 r);
    TEST (Imm 1L, Reg8L r); TEST (Imm 1000L, Reg32 r); TEST (Reg64 r, mem 0 RAX);
    TEST (mem 0 RAX, Reg64 r); TEST (got, Reg64 r); ADD (got, Reg64 r);
    MOVZX (Reg8L r, Reg64 RAX); MOVZX (Reg8L RBX, Reg64 r); MOVZX (Reg8L r, Reg32 RCX);
    MOVZX (Reg16 r, Reg64 R9); MOVZX (mem ~typ:BYTE 3 r, Reg64 RDX);
    MOVZX (mem ~typ:WORD 3 r, Reg32 RDX); MOVSX (Reg8L r, Reg64 RAX);
    MOVSX (Reg16 r, Reg64 R8); MOVSX (mem ~typ:BYTE 1 r, Reg64 R15);
    MOVSX (mem ~typ:WORD 1 r, Reg32 R15); MOVSXD (Reg32 r, Reg64 RAX);
    MOVSXD (Reg32 RAX, Reg64 r); MOVSXD (mem ~typ:DWORD 4 r, Reg64 R14);
    SET (E, Reg8L r); SET (L, Reg8L r); SET (A, mem ~typ:BYTE 0 r);
    SAL (Imm 1L, Reg64 r); SAL (Imm 3L, Reg64 r); SAR (Imm 63L, Reg64 r);
    SHR (Imm 1L, Reg32 r); SHR (Reg8L RCX, Reg64 r); SAR (Reg8L RCX, Reg32 r);
    SAL (Imm 2L, mem 8 r); SAR (Imm 1L, Reg8L r);
    IMUL (Reg64 r, Some (Reg64 RAX)); IMUL (Reg64 RBX, Some (Reg64 r));
    IMUL (Imm 5L, Some (Reg64 r)); IMUL (Imm 1000L, Some (Reg64 r));
    IMUL (mem 8 r, Some (Reg64 R10)); IMUL (Reg64 r, None);
    IMUL (Imm (-3L), Some (Reg32 r));
    IDIV (Reg64 r); NEG (Reg64 r); INC (Reg64 r); DEC (Reg64 r); INC (Reg32 r);
    DEC (mem 0 r); CMOV (L, Reg64 r, Reg64 RAX); CMOV (GE, mem 8 r, Reg64 R12);
    CMOV (NE, Reg32 r, Reg32 RDX); PUSH (Reg64 r); POP (Reg64 r); PUSH (mem 8 r);
    POP (mem 8 r); CALL (Reg64 r); JMP (Reg64 r); CALL (mem 16 r); JMP (mem 16 r);
    XCHG (Reg64 r, Reg64 RAX); XCHG (Reg64 RAX, Reg64 r); XCHG (Reg64 r, Reg64 RBX);
    XCHG (Reg32 r, Reg32 R8); BSWAP (Reg64 r); BSWAP (Reg32 r);
    MOVD (Reg64 r, xmm 1); MOVD (xmm 9, Reg64 r); MOVD (Reg32 r, xmm 10);
    MOVD (mem 8 r, xmm 4); MOVD (xmm 12, mem ~typ:DWORD 8 r);
    CVTSI2SD (Reg64 r, xmm 2); CVTSI2SD (Reg32 r, xmm 12); CVTTSD2SI (xmm 3, Reg64 r);
    CVTSD2SI (xmm 11, Reg64 r); CVTTSD2SI (xmm 4, Reg32 r) ]

let per_xmm n =
  let x = xmm n and mask = rip ~typ:OWORD "oracle_mask" in
  [ MOVSD (x, mem ~typ:REAL8 8 R13); MOVSS (x, mem ~typ:REAL4 8 RSP);
    MOVAPD (x, mem ~typ:OWORD 0 RAX); MOVLPD (mem ~typ:REAL8 0 RBX, x);
    MOVLPD (x, mem ~typ:REAL8 0 RBX); CVTSI2SD (mem ~typ:QWORD 8 RAX, x);
    CVTSI2SD (mem ~typ:DWORD 8 RAX, x); CVTTSD2SI (mem ~typ:REAL8 0 RSP, Reg64 R8);
    XORPD (mask, x); ANDPD (mask, x) ]

let others =
  [ XCHG (Reg8H AH, Reg8L RAX); XCHG (Reg8L RAX, Reg8H AH); XCHG (Reg32 RAX, Reg32 RAX);
    XCHG (Reg16 RAX, Reg16 RAX); XCHG (Reg16 RBX, Reg16 RAX); MOV (Reg8H BH, Reg8L RCX);
    MOV (Imm 7L, Reg8H CH); MOV (Imm 7L, Reg16 R9); PUSH (Imm 5L); PUSH (Imm 500L);
    PUSH (Imm (-1L)); PUSH (Sym "oracle_data"); CQO; CDQ; RET; LEAVE; NOP; HLT;
    CALL (Sym "oracle_extern@PLT"); CALL (Sym "oracle_extern"); CALL (Sym "oracle_global");
    CALL (Sym ".Lnear"); CALL got; JMP got; JMP (Sym "oracle_extern@PLT");
    JMP (Sym "oracle_extern"); J (E, Sym "oracle_extern"); JMP (Sym ".Lnear");
    J (NE, Sym ".Lnear"); J (L, Sym ".Lfar"); JMP (Sym ".Lfar"); JMP (Sym "oracle_global");
    J (B, Sym ".Lother") ]

let instructions =
  List.concat_map two_operand
    [ (fun a b -> ADD (a, b)); (fun a b -> SUB (a, b)); (fun a b -> AND (a, b));
      (fun a b -> OR (a, b)); (fun a b -> XOR (a, b)); (fun a b -> CMP (a, b));
      (fun a b -> MOV (a, b)) ]
  @ List.concat_map per_register regs
  @ List.concat_map one_operand [ (fun a -> NEG a); (fun a -> IDIV a); (fun a -> INC a) ]
  @ others
  @ List.concat_map sse
      [ (fun a b -> ADDSD (a, b)); (fun a b -> SUBSD (a, b)); (fun a b -> MULSD (a, b));
        (fun a b -> DIVSD (a, b)); (fun a b -> SQRTSD (a, b)); (fun a b -> ANDPD (a, b));
        (fun a b -> XORPD (a, b)); (fun a b -> UCOMISD (a, b)); (fun a b -> COMISD (a, b));
        (fun a b -> CVTSD2SS (a, b)); (fun a b -> CVTSS2SD (a, b));
        (fun a b -> MOVSD (a, b)); (fun a b -> MOVSS (a, b)); (fun a b -> MOVAPD (a, b));
        (fun a b -> CMPSD (LTf, a, b)); (fun a b -> CMPSD (NLEf, a, b));
        (fun a b -> ROUNDSD (RoundDown, a, b)); (fun a b -> ROUNDSD (RoundUp, a, b));
        (fun a b -> ROUNDSD (RoundTruncate, a, b)); (fun a b -> ROUNDSD (RoundNearest, a, b)) ]
  @ List.concat_map per_xmm (List.init 16 Fun.id)

(* One function holding every form, with CFI state changes and
   alignment every 50 instructions, then data that refers to it. *)
let forms =
  [ Section ([ ".text" ], None, []); Align (false, 16); Global "oracle_global";
    Type ("oracle_global", "@function"); NewLabel ("oracle_global", NONE); Cfi_startproc;
    Ins (SUB (Imm 24L, Reg64 RSP)); Cfi_adjust_cfa_offset 24; NewLabel (".Lnear", NONE) ]
  @ List.concat
      (List.mapi
         (fun i ins ->
           if i mod 50 <> 0 then [ Ins ins ]
           else
             [ Ins ins; Cfi_remember_state; Cfi_def_cfa_register "rbx"; Ins NOP;
               Cfi_restore_state; Align (false, 4); Ins (PUSH (Reg64 RAX));
               Cfi_adjust_cfa_offset 8; Ins (POP (Reg64 RAX)); Cfi_adjust_cfa_offset (-8) ])
         instructions)
  @ [ NewLabel (".Lfar", NONE); Ins (ADD (Imm 24L, Reg64 RSP)); Cfi_adjust_cfa_offset (-24);
      Ins RET; Cfi_endproc;
      Size ("oracle_global", ConstSub (ConstThis, ConstLabel "oracle_global"));
      Section ([ ".rodata.cst16" ], Some "aM", [ "@progbits"; "16" ]); Align (true, 16);
      NewLabel ("oracle_mask", NONE); Quad (Const (-1L)); Quad (Const 0L);
      Section ([ ".rodata" ], None, []); Align (false, 4); NewLabel (".Ltable", NONE);
      Long (ConstSub (ConstLabel ".Lnear", ConstLabel ".Ltable"));
      Long (ConstSub (ConstLabel ".Lfar", ConstLabel ".Ltable"));
      Section ([ ".text.other" ], Some "ax", [ "@progbits" ]); NewLabel (".Lother", NONE);
      Ins RET; Section ([ ".data" ], None, []); Align (true, 8); Global "oracle_data";
      NewLabel ("oracle_data", NONE); Quad (ConstLabel "oracle_global");
      Quad (ConstLabel ".Lfar"); Quad (ConstLabel "oracle_extern");
      Quad (ConstAdd (ConstLabel ".Lnear", Const 8L)); NewLabel ("oracle_local", NONE);
      Quad (ConstLabel "oracle_local");
      Long (ConstAdd (ConstSub (ConstLabel ".Lfar", ConstThis), Const 12L));
      Long (ConstSub (ConstLabel "oracle_local", ConstLabel "oracle_data"));
      Word (Const 513L); Byte (Const 7L); Bytes "abc\000\"\\\n"; Space 5; Align (true, 8);
      Quad (Const 0x123456789abcdefL);
      Size ("oracle_data", ConstSub (ConstThis, ConstLabel "oracle_data"));
      Section ([ ".note.GNU-stack" ], Some "", [ "%progbits" ]) ]

(* Jump relaxation: [n] random blocks of 1 to 40 bytes of code, each
   behind a label, with jumps to labels up to 300 bytes either way and
   alignments between them, so that jumps sit on both sides of the
   8-bit reach and alignment padding moves as they grow. *)
let relaxation seed =
  let rng = Random.State.make [| seed |] in
  let n = 40 + Random.State.int rng 80 in
  let label i = Printf.sprintf ".Lb%d" i in
  let filler () =
    List.init (Random.State.int rng 12) (fun _ ->
        Ins (match Random.State.int rng 4 with
            | 0 -> NOP
            | 1 -> ADD (Imm 1000L, Reg64 RBX)
            | 2 -> MOV (Imm 0x123456789L, Reg64 R11)
            | _ -> MOV (mem 8 RSP, Reg64 RAX)))
  in
  let jump i =
    let t = label (max 0 (min (n - 1) (i + Random.State.int rng 21 - 10))) in
    match Random.State.int rng 3 with
    | 0 -> [ Ins (JMP (Sym t)) ]
    | 1 -> [ Ins (J (NE, Sym t)) ]
    | _ -> []
  in
  let align () =
    match Random.State.int rng 6 with
    | 0 -> [ Align (false, 16) ]
    | 1 -> [ Align (false, 4) ]
    | _ -> []
  in
  [ Section ([ ".text" ], None, []); Cfi_startproc ]
  @ List.concat
      (List.init n (fun i ->
           (NewLabel (label i, NONE) :: filler ()) @ jump i @ align ()
           @ if i mod 7 = 0 then [ Cfi_adjust_cfa_offset 8 ] else []))
  @ [ Ins RET; Cfi_endproc ]

(* --- The linker's relocations ------------------------------------- *)

(* Every relocation [X86_link] accepts, against a global it defines, an
   undefined symbol and a local, in the sections a plugin has: calls
   through the PLT (through [.plt.got] for a symbol also loaded from the
   GOT), loads through the GOT that [ld] rewrites ([mov], [call], [jmp]
   to a local) and ones it keeps (a [mov] of a global, an [add] or a
   [lea] to a local, which takes a GOT slot of its own), RIP-relative
   references to constants, a jump table and data, and absolute and
   PC-relative data words. *)
let relocations =
  let got ?(typ = QWORD) s = rip ~typ (s ^ "@GOTPCREL") in
  let fn ?(global = true) name body =
    (if global then [ Global name; Type (name, "@function") ] else [])
    @ [ NewLabel (name, NONE); Cfi_startproc ]
    @ body
    @ [ Cfi_endproc; Size (name, ConstSub (ConstThis, ConstLabel name)) ]
  in
  [ Section ([ ".text" ], None, []); Align (false, 16) ]
  @ fn "link_fun"
      [ Ins (SUB (Imm 8L, Reg64 RSP)); Cfi_adjust_cfa_offset 8;
        Ins (CALL (Sym "link_extern@PLT")); Ins (CALL (Sym "link_other@PLT"));
        Ins (CALL (Sym "link_local@PLT")); Ins (CALL (Sym "link_extern_2@PLT"));
        Ins (MOV (got "link_data", Reg64 RAX)); Ins (MOV (got "link_extern_data", Reg64 RBX));
        Ins (MOV (got "link_local_data", Reg64 RCX)); Ins (MOV (got "link_fun", Reg64 R9));
        Ins (CALL (Sym "link_extern_4@PLT")); Ins (MOV (got "link_extern_4", Reg64 R10));
        Ins (MOV (got ~typ:DWORD "link_local_data", Reg32 RDX));
        Ins (CALL (got "link_local")); Ins (CALL (got "link_extern_3"));
        Ins (ADD (got "link_local_2", Reg64 RAX)); Ins (TEST (got "link_local_2", Reg64 RAX));
        Ins (LEA (got "link_local_3", Reg64 RSI)); Ins (LEA (got "link_data", Reg64 RSI));
        Ins (MOVSD (rip ~typ:REAL8 ".Lconst", xmm 0));
        Ins (ANDPD (rip ~typ:OWORD "link_mask", xmm 1));
        Ins (LEA (rip ~typ:NONE ".Llocal_data", Reg64 RDI));
        Ins (LEA (rip ~typ:NONE ".Ltable", Reg64 RDX)); NewLabel (".Lcase", NONE);
        Ins (LEA (rip ~typ:NONE "link_local_data", Reg64 RDI));
        Ins (ADD (Imm 8L, Reg64 RSP)); Cfi_adjust_cfa_offset (-8);
        Ins (JMP (got "link_local")) ]
  @ [ Align (false, 16) ]
  @ fn "link_other" [ Ins (CALL (Sym "link_fun@PLT")); Ins RET ]
  @ fn ~global:false "link_local"
      [ Ins (PUSH (Reg64 RBX)); Cfi_adjust_cfa_offset 8; Ins (POP (Reg64 RBX));
        Cfi_adjust_cfa_offset (-8); Ins RET ]
  @ [ Section ([ ".rodata.cst8" ], Some "aM", [ "@progbits"; "8" ]); Align (true, 8);
      NewLabel (".Lconst", NONE); Quad (Const 0x4050000000000000L);
      NewLabel (".Lconst_2", NONE); Quad (Const 0x4050000000000000L);
      Section ([ ".rodata.cst16" ], Some "aM", [ "@progbits"; "16" ]); Align (true, 16);
      NewLabel ("link_mask", NONE); Quad (Const (-1L)); Quad (Const 0L);
      Section ([ ".rodata" ], None, []); Align (false, 4); NewLabel (".Ltable", NONE);
      Long (ConstSub (ConstLabel ".Lcase", ConstLabel ".Ltable"));
      Long (ConstSub (ConstLabel "link_local", ConstLabel ".Ltable"));
      Section ([ ".data" ], None, []); Align (true, 8); Global "link_data";
      NewLabel ("link_data", NONE); Quad (ConstLabel "link_data");
      Quad (ConstLabel "link_extern_data"); Quad (ConstLabel "link_local_data");
      Quad (ConstLabel ".Llocal_data"); Quad (ConstAdd (ConstLabel "link_fun", Const 8L));
      Quad (ConstLabel "link_mask"); Quad (ConstAdd (ConstLabel ".Lconst_2", Const 0L));
      Quad (ConstSub (ConstLabel "link_local", ConstThis));
      Long (ConstSub (ConstLabel "link_other", ConstLabel "link_fun"));
      Long (ConstAdd (ConstSub (ConstLabel "link_local", ConstThis), Const 4L));
      NewLabel ("link_local_data", NONE); Quad (Const 7L); NewLabel ("link_local_2", NONE);
      Quad (ConstLabel "link_extern_data"); NewLabel ("link_local_3", NONE);
      Quad (ConstLabel "link_other"); NewLabel (".Llocal_data", NONE); Quad (Const 9L);
      Size ("link_data", ConstSub (ConstThis, ConstLabel "link_data"));
      Section ([ ".note.GNU-stack" ], Some "", [ "%progbits" ]) ]

(* Calls only through [.plt.got], so [.plt] holds only its first entry,
   from functions whose CFI starts before their first instruction, so
   no CIE of the object's is the one [ld]'s PLT FDEs share. *)
let plt_got_only =
  [ Section ([ ".text" ], None, []); Global "link_fun"; Type ("link_fun", "@function");
    NewLabel ("link_fun", NONE); Cfi_startproc; Cfi_adjust_cfa_offset 8;
    Ins (CALL (Sym "link_fun@PLT")); Ins (CALL (Sym "link_extern@PLT"));
    Ins (MOV (rip "link_fun@GOTPCREL", Reg64 RAX));
    Ins (MOV (rip "link_extern@GOTPCREL", Reg64 RAX)); Ins RET; Cfi_endproc;
    Section ([ ".data" ], None, []); Align (true, 8); Quad (ConstLabel "link_fun");
    Section ([ ".note.GNU-stack" ], Some "", [ "%progbits" ]) ]

(* What [ld] rejects in a shared object, [X86_link] rejects too, naming
   the relocation and its symbol: absolute 32-bit addresses, and a
   PC-relative reference to a preemptible global. *)
let rejections =
  let program insn =
    [ Section ([ ".text" ], None, []); Global "link_fun"; NewLabel ("link_fun", NONE);
      Cfi_startproc; Ins insn; Ins RET; Cfi_endproc; Section ([ ".data" ], None, []);
      Align (true, 8); Global "link_data"; NewLabel ("link_data", NONE); Quad (Const 0L);
      Section ([ ".note.GNU-stack" ], Some "", [ "%progbits" ]) ]
  in
  [ ("R_X86_64_32", program (MOV (Sym "link_data", Reg32 RAX)));
    ("R_X86_64_32S", program (MOV (Sym "link_data", Reg64 RAX)));
    ("R_X86_64_PC32", program (LEA (rip ~typ:NONE "link_data", Reg64 RAX))) ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let check_rejection ~dir (r_type, program) =
  let name = "rejected " ^ r_type in
  match check ~dir name program with
  | None -> ()
  | Some (obj, mine, _) ->
    (match X86_link.link obj with
    | exception X86_link.Unsupported what ->
      if not (contains what r_type && contains what "link_data") then
        report name [ "the rejection does not name the relocation: " ^ what ]
    | _ -> report name [ "linked, though ld rejects it" ]);
    if link ~dir mine <> None then report name [ "ld linked it" ]

(* --- The plugin corpus ----------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The header Dynlink reads from a plugin: its units, each with the
   interfaces it imports and their CRCs. *)
let plugin_header image =
  let elf = Elf_read.read image in
  let ( let* ) = Option.bind in
  let* _, _, _, section, value, _ =
    List.find_opt (fun (n, _, _, _, _, _) -> n = "caml_plugin_header") elf.symbols
  in
  let* s = List.find_opt (fun (s : Elf_read.section) -> s.name = section) elf.sections in
  Some (Marshal.from_string s.data (value - s.addr) : Cmxs_format.dynheader)

(* A plugin's header must name the interfaces every plugin uses with the
   CRCs of the [.cmi] files the build read, which are the host's: with
   an interface missing, Dynlink would load the plugin into a host built
   against another version of it. *)
let check_header ~dir name image =
  let crc cmi unit =
    Option.join (List.assoc_opt unit (Cmi_format.read_cmi cmi).Cmi_format.cmi_crcs)
  in
  let expected =
    [ ("Stdlib", crc (Filename.concat Config.standard_library "stdlib.cmi") "Stdlib");
      ("Steno_rt", crc (Filename.concat dir "steno_rt.cmi") "Steno_rt") ]
  in
  match plugin_header image with
  | None -> report name [ "no caml_plugin_header" ]
  | Some { dynu_magic; dynu_units = [ u ] } when dynu_magic = Config.cmxs_magic_number ->
    List.iter
      (fun (unit, crc) ->
        match List.assoc_opt unit u.dynu_imports_cmi with
        | Some (Some c) when Some c = crc -> ()
        | Some (Some _) -> report name [ "the header's CRC of " ^ unit ^ " is not the .cmi's" ]
        | Some None | None -> report name [ "the header does not import " ^ unit ])
      expected
  | Some _ -> report name [ "the header is not one unit's" ]

(* Every corpus plugin, built in-process as the worker builds it, with
   each merged program checked both ways, the plugin held to [ld]'s
   link of either object, and its header to the interfaces it imports. *)
let plugins ~dir rt_cmi sources =
  Out_channel.with_open_bin (Filename.concat dir "steno_rt.cmi") (fun oc ->
      output_string oc rt_cmi);
  let programs = ref [] and rejected = ref 0 in
  Steno_compile.install ();
  X86_proc.register_internal_assembler (fun program obj ->
      programs := program :: !programs;
      X86_merge.hook program obj);
  List.iteri
    (fun i (name, source) ->
      programs := [];
      let file ext = Filename.concat dir (Printf.sprintf "oracle_%d%s" i ext) in
      Out_channel.with_open_bin (file ".ml") (fun oc -> output_string oc source);
      match Steno_compile.compile ~ml:(file ".ml") ~cmxs:(file ".cmxs") ~dir with
      | exception e ->
        let text =
          try Format.asprintf "%a" Location.report_exception e
          with e -> Printexc.to_string e
        in
        if contains text "x86 encoder" || contains text "x86 linker" then incr rejected;
        report name [ "build failed: " ^ text ]
      | () -> (
        match !programs with
        | [ startup; unit_program ] -> (
          match check ~dir name (X86_merge.merge unit_program startup) with
          | None -> incr rejected
          | Some (_, mine, expected) ->
            check_header ~dir name (read (file ".cmxs"));
            let plugin = Some (read (file ".cmxs")) in
            if link ~dir mine <> plugin then
              report name [ "the plugin differs from ld's link of the encoder's object" ];
            if link ~dir expected <> plugin then
              report name [ "the plugin differs from ld's link of as's object" ])
        | _ -> report name [ "not one unit and one startup program" ]))
    sources;
  !rejected

let relaxation_programs = 100

let () =
  set_binary_mode_in stdin true;
  let (rt_cmi : string), (sources : (string * string) list) = Marshal.from_channel stdin in
  if not Steno_compile.in_process then
    Printf.printf "oracle: skipped, plugins are not built in-process on %s\n" Config.system
  else if not (Steno_compile.on_path Config.asm && Steno_compile.on_path ld) then
    Printf.printf "oracle: skipped, no %s or no ld on PATH to compare with\n" Config.asm
  else begin
    let dir = Filename.temp_dir "steno-oracle" "" in
    Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
    ignore (check ~dir "instruction forms" forms);
    for seed = 1 to relaxation_programs do
      ignore (check ~dir (Printf.sprintf "relaxation %d" seed) (relaxation seed))
    done;
    Option.iter (check_link ~dir "relocations") (check ~dir "relocations" relocations);
    Option.iter (check_link ~dir ".plt.got only") (check ~dir ".plt.got only" plt_got_only);
    List.iter (check_rejection ~dir) rejections;
    let rejected = plugins ~dir rt_cmi sources in
    Printf.printf
      "oracle: %d plugins (encoded and linked both ways), the instruction forms, %d \
       relaxation programs, the linker's two relocation programs and %d rejections: %d \
       mismatches or failures, %d rejected\n"
      (List.length sources) relaxation_programs (List.length rejections) !failures rejected;
    if !failures > 0 then exit 1
  end
