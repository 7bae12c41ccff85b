(* The encoder's oracle: every plugin of the corpus ([corpus.exe], on
   stdin) is compiled in-process by [Steno_compile.compile], the build
   the compile worker runs, with an assembler hook that encodes each
   plugin's merged program twice: with [X86_object] and, from the text
   [X86_gas] prints, with [as].  The two objects must agree:
   - every allocated section, [.eh_frame] included, byte for byte, with
     the same type, flags, alignment and entry size;
   - the symbols as a set of (name, binding, type, section, value, size);
   - the relocations as a set of (section, offset, type, symbol, addend).
   The two objects must also link, with the worker's linker, to the same
   plugin byte for byte, which holds [as]'s symbol order too ([ld]
   numbers dynamic symbols and GOT and PLT slots by it).  The plugin is
   then linked from the encoder's object.  A program of every
   instruction form the encoder covers, over all registers and
   addressing modes, and 100 random programs of jumps and alignments
   are held to [as] the same way.

   Any mismatch, and any construct the encoder rejects, fails the test.
   Without [as] on PATH there is nothing to compare with: the test says
   so and passes. *)

open X86_ast

let failures = ref 0

let report name lines =
  incr failures;
  Printf.printf "MISMATCH %s\n" name;
  List.iter (Printf.printf "  %s\n") lines

let read path = In_channel.with_open_bin path In_channel.input_all

let run cmd = if Sys.command cmd <> 0 then failwith ("failed: " ^ cmd)

(* [as] on [program], as the compiler would run it on its [.s] ([-W]:
   the instruction forms include a [neg] on memory, which [X86_gas]
   prints without a suffix and [as] warns about): the object's bytes. *)
let gas ~dir program =
  let s = Filename.concat dir "oracle.s" and o = Filename.concat dir "oracle-as.o" in
  Out_channel.with_open_text s (fun oc -> X86_gas.generate_asm oc program);
  run (Printf.sprintf "%s -W -o %s %s" Config.asm (Filename.quote o) (Filename.quote s));
  let obj = read o in
  Sys.remove s;
  Sys.remove o;
  obj

(* The shared object the worker's linker makes of one object. *)
let link ~dir ~linker obj =
  let o = Filename.concat dir "oracle-link.o"
  and so = Filename.concat dir "oracle-link.so" in
  Out_channel.with_open_bin o (fun oc -> output_string oc obj);
  run (Printf.sprintf "%s -o %s %s" linker (Filename.quote so) (Filename.quote o));
  let linked = read so in
  Sys.remove o;
  Sys.remove so;
  linked

(* Encode [program] both ways, and with [linker] link both objects; the
   encoder's object, or [None] when it rejects a construct. *)
let check ?linker ~dir name program =
  let expected = gas ~dir program in
  match X86_object.assemble program with
  | exception X86_encode.Unsupported what ->
    report name [ "rejected: " ^ what ];
    None
  | mine ->
    (match Elf_read.diff (Elf_read.read mine) (Elf_read.read expected) with
    | [] -> ()
    | lines -> report name lines);
    (match linker with
    | Some linker when link ~dir ~linker mine <> link ~dir ~linker expected ->
      report name [ "the two objects link to different plugins" ]
    | Some _ | None -> ());
    Some mine

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
        (fun a b -> CMPSD (LTf, a, b)); (fun a b -> CMPSD (NLEf, a, b)) ]
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

(* --- The plugin corpus ----------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Every corpus plugin, built in-process as the worker builds it, with
   each merged program checked both ways and the encoder's object linked
   into the plugin. *)
let plugins ~dir ~linker rt_cmi sources =
  Out_channel.with_open_bin (Filename.concat dir "steno_rt.cmi") (fun oc ->
      output_string oc rt_cmi);
  let current = ref "" and rejected = ref 0 in
  Emitaux.binary_backend_available := true;
  X86_proc.register_internal_assembler
    (X86_merge.hook ~assemble:(fun program obj ->
         match check ~linker ~dir !current program with
         | Some contents ->
           Out_channel.with_open_bin obj (fun oc -> output_string oc contents)
         | None ->
           incr rejected;
           raise (Asmgen.Error (Asmgen.Assembler_error obj))));
  List.iteri
    (fun i (name, source) ->
      current := name;
      let file ext = Filename.concat dir (Printf.sprintf "oracle_%d%s" i ext) in
      Out_channel.with_open_bin (file ".ml") (fun oc -> output_string oc source);
      match Steno_compile.compile ~ml:(file ".ml") ~cmxs:(file ".cmxs") ~dir with
      | () -> ()
      | exception e ->
        incr failures;
        Printf.printf "FAILED %s: %s\n" name (Printexc.to_string e);
        Location.report_exception Format.std_formatter e)
    sources;
  !rejected

let relaxation_programs = 100

let () =
  set_binary_mode_in stdin true;
  let (rt_cmi : string), (sources : (string * string) list) = Marshal.from_channel stdin in
  match Steno_compile.linker with
  | _ when not (Steno_compile.on_path Config.asm) ->
    Printf.printf "oracle: skipped, no %s on PATH to compare the encoder with\n" Config.asm
  | None ->
    Printf.printf "oracle: skipped, plugins are not linked by ld on %s\n" Config.system
  | Some linker ->
    let dir = Filename.temp_dir "steno-oracle" "" in
    Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
    ignore (check ~dir "instruction forms" forms);
    for seed = 1 to relaxation_programs do
      ignore (check ~dir (Printf.sprintf "relaxation %d" seed) (relaxation seed))
    done;
    let rejected = plugins ~dir ~linker rt_cmi sources in
    Printf.printf
      "oracle: %d plugins (linked both ways), the instruction forms and %d relaxation \
       programs: %d mismatches or failures, %d rejected\n"
      (List.length sources) relaxation_programs !failures rejected;
    if !failures > 0 then exit 1
