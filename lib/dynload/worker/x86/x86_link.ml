(* A relocatable object to an ELF64 shared object, in-process: the image
   that GNU [ld --build-id --eh-frame-hdr --hash-style=gnu -shared]
   (binutils 2.40, its default script with separate code and RELRO)
   makes of an [X86_object] plugin object.  The oracle test
   ([test/oracle]) holds every plugin of its corpus, and an object of
   every relocation this module accepts, to [ld]'s output byte for byte.

   The image holds, in this order: the headers; [.note.gnu.build-id],
   [.gnu.hash], [.dynsym], [.dynstr], [.rela.dyn] and [.rela.plt] (one
   read-only segment); [.plt] and [.text] (the code segment, on its own
   page); [.rodata], [.eh_frame_hdr] and [.eh_frame] (read-only);
   [.dynamic], [.got], [.got.plt] and [.data] (writable, its first part
   read-only after relocation), and the symbol tables.

   [ld]'s choices that show in the bytes are kept:
   - every global symbol is exported and preemptible, so a call to one
     goes through a PLT entry ([JUMP_SLOT]), a [GOTPCREL] to one through
     a GOT slot ([GLOB_DAT]) and a [.quad] of one is an [R_X86_64_64];
     a local target is resolved here, or becomes [RELATIVE];
   - a [mov], [call] or [jmp] through the GOT to a local symbol is
     rewritten to address it directly ([lea], [addr32 call], [jmp; nop]);
   - symbols, PLT entries and GOT slots are numbered in the order [ld]'s
     symbol hash table walks them, and dynamic symbols are then sorted
     by [.gnu.hash] bucket;
   - [.eh_frame] gains an FDE for [.plt], its CIE shared with an equal
     one of the object;
   - dynamic relocations are sorted as [-z combreloc] sorts them;
   - string tables share a string's bytes with a longer one it ends;
   - the build-id is a SHA-1 over the headers and the allocated
     sections, the note itself zeroed.
   Anything else (another section, relocation or symbol kind than a
   plugin holds) raises {!Unsupported} naming it. *)

module O = X86_object

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let add b size v = X86_encode.add_le b size (Int64.of_int v)

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
let sht_dynamic = 6
let sht_note = 7
let sht_dynsym = 11
let sht_gnu_hash = 0x6ffffff6
let r_64 = 1
let r_pc32 = 2
let r_plt32 = 4
let r_glob_dat = 6
let r_jump_slot = 7
let r_relative = 8
let r_gotpcrel = 9
let r_pc64 = 24
let r_gotpcrelx = 41
let r_rex_gotpcrelx = 42
let page = 0x1000

let reloc_name = function
  | 1 -> "R_X86_64_64"
  | 2 -> "R_X86_64_PC32"
  | 4 -> "R_X86_64_PLT32"
  | 9 -> "R_X86_64_GOTPCREL"
  | 10 -> "R_X86_64_32"
  | 11 -> "R_X86_64_32S"
  | 12 -> "R_X86_64_16"
  | 13 -> "R_X86_64_PC16"
  | 14 -> "R_X86_64_8"
  | 15 -> "R_X86_64_PC8"
  | 24 -> "R_X86_64_PC64"
  | 41 -> "R_X86_64_GOTPCRELX"
  | 42 -> "R_X86_64_REX_GOTPCRELX"
  | n -> Printf.sprintf "relocation type %d" n

let align_up n a = (n + a - 1) land lnot (a - 1)

(* --- Hashes --------------------------------------------------------- *)

(* The bucket of [ld]'s symbol hash table ([bfd_hash_hash], 4051
   buckets) that a name falls in: symbols are walked bucket by bucket,
   the latest inserted first within one. *)
let bfd_bucket name =
  let step h c =
    let h = Int64.add h (Int64.of_int (c + (c lsl 17))) in
    Int64.logxor h (Int64.shift_right_logical h 2)
  in
  let h = String.fold_left (fun h c -> step h (Char.code c)) 0L name in
  Int64.to_int (Int64.unsigned_rem (step h (String.length name)) 4051L)

(* The [.gnu.hash] function. *)
let gnu_hash name =
  String.fold_left (fun h c -> ((h * 33) + Char.code c) land 0xffff_ffff) 5381 name

(* --- String tables -------------------------------------------------- *)

(* [ld]'s string table ([_bfd_elf_strtab_finalize]): the strings in the
   order they were added, except that one that ends a longer kept string
   is stored inside it.  The table, and each string's offset. *)
let strtab names =
  let names = List.filter (( <> ) "") names in
  let seen = Hashtbl.create 64 in
  let names =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s then false
        else begin
          Hashtbl.replace seen s ();
          true
        end)
      names
  in
  let rev s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i]) in
  let sorted = List.sort (fun a b -> compare (rev a) (rev b)) names |> Array.of_list in
  let inside = Hashtbl.create 16 in
  let n = Array.length sorted in
  if n > 0 then begin
    let e = ref sorted.(n - 1) in
    for k = n - 2 downto 0 do
      let s = sorted.(k) in
      if String.length !e > String.length s && String.ends_with ~suffix:s !e then
        Hashtbl.replace inside s !e
      else e := s
    done
  end;
  let b = Buffer.create 1024 in
  Buffer.add_char b '\000';
  let offsets = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem inside s) then begin
        Hashtbl.replace offsets s (Buffer.length b);
        Buffer.add_string b s;
        Buffer.add_char b '\000'
      end)
    names;
  Hashtbl.iter
    (fun s e ->
      Hashtbl.replace offsets s
        (Hashtbl.find offsets e + String.length e - String.length s))
    inside;
  (Buffer.contents b, fun s -> if s = "" then 0 else Hashtbl.find offsets s)

(* --- Input sections ------------------------------------------------- *)

type out = Text | Rodata | Data | Eh_frame | Dropped

let output_of (s : O.section) =
  let is_alloc = s.flags land shf_alloc <> 0 in
  match s.name with
  | ".text" when s.flags land shf_execinstr <> 0 -> Text
  | ".data" when s.flags land shf_write <> 0 -> Data
  | ".eh_frame" when is_alloc -> Eh_frame
  | ".bss" when s.contents = "" -> Dropped
  | ".note.GNU-stack" when s.flags land shf_execinstr = 0 -> Dropped
  | name
    when (name = ".rodata" || String.starts_with ~prefix:".rodata." name)
         && is_alloc && s.flags land shf_write = 0 ->
    Rodata
  | name -> unsupported "section %s" name

(* A section of constants [ld] merges: each [entsize]-byte entry is kept
   once, at its first place.  The offset of each entry. *)
let merge (s : O.section) =
  if s.flags land shf_merge = 0 then None
  else begin
    let n = s.entsize and size = String.length s.contents in
    if s.flags land shf_strings <> 0 || n = 0 || size mod n <> 0 || s.relocs <> [] then
      unsupported "mergeable section %s" s.name;
    let seen = Hashtbl.create 16 and b = Buffer.create size in
    let slots =
      Array.init (size / n) (fun k ->
          let e = String.sub s.contents (k * n) n in
          match Hashtbl.find_opt seen e with
          | Some at -> at
          | None ->
            let at = Buffer.length b in
            Hashtbl.replace seen e at;
            Buffer.add_string b e;
            at)
    in
    Some (Buffer.contents b, slots)
  end

(* --- The image ------------------------------------------------------ *)

type osec = {
  name : string;
  sh_type : int;
  flags : int;
  align : int;
  entsize : int;
  mutable data : Bytes.t;
  mutable addr : int;
  mutable off : int;
  mutable index : int;
  mutable link : int;
  mutable info : int;
}

let osec ?(entsize = 0) name sh_type flags align data =
  { name; sh_type; flags; align; entsize; data; addr = 0; off = 0; index = 0; link = 0;
    info = 0 }

let size s = Bytes.length s.data

(* The FDE [ld] writes for a lazy [.plt] ([elf_x86_64_eh_frame_lazy_plt]
   without its padding), and its CIE, which is the one [X86_object]
   writes for a function whose first CFI row follows an advance. *)
let plt_cie =
  "\x14\000\000\000\000\000\000\000\001zR\000\001\x78\x10\001\x1b\x0c\x07\x08\x90\001\000\000"

let plt_fde_insns =
  "\000\x0e\x10\x46\x0e\x18\x4a\x0f\x0b\x77\x08\x80\000\x3f\x1a\x3b\x2a\x33\x24\x22"

type dynrel = { d_offset : int; d_type : int; d_sym : int; d_addend : int }

(* The entries of an [.eh_frame], up to its end or a terminator: each
   one's offset, length field, and whether it is a CIE. *)
let eh_entries data =
  let rec go at acc =
    if at + 8 > Bytes.length data then List.rev acc
    else
      match Int32.to_int (Bytes.get_int32_le data at) with
      | 0 -> List.rev acc
      | len -> go (at + 4 + len) ((at, len, Bytes.get_int32_le data (at + 4) = 0l) :: acc)
  in
  go 0 []

let link (obj : O.t) =
  let isecs = Array.of_list obj.sections in
  let outs = Array.map output_of isecs in
  if not (Array.exists (fun (s : O.section) -> s.name = ".note.GNU-stack") isecs) then
    unsupported "no .note.GNU-stack (an executable stack)";
  Array.iteri
    (fun i (s : O.section) ->
      if outs.(i) = Dropped && s.relocs <> [] then unsupported "relocations in %s" s.name)
    isecs;
  let merged = Array.map merge isecs in
  (* The input's contents once merged, and where an offset goes. *)
  let icontents i =
    match merged.(i) with Some (c, _) -> c | None -> isecs.(i).contents
  in
  let map_offset i off =
    match merged.(i) with
    | None -> off
    | Some (_, slots) ->
      let n = isecs.(i).entsize in
      if off < 0 || off >= Array.length slots * n then
        unsupported "offset %d outside mergeable section %s" off isecs.(i).name;
      slots.(off / n) + (off mod n)
  in
  (* Output sections from input ones, in input order. *)
  let base = Array.make (Array.length isecs) 0 in
  let gather kind =
    let b = Buffer.create 4096 and align = ref 1 and members = ref [] in
    Array.iteri
      (fun i (s : O.section) ->
        if outs.(i) = kind then begin
          while Buffer.length b mod s.align <> 0 do Buffer.add_char b '\000' done;
          base.(i) <- Buffer.length b;
          Buffer.add_string b (icontents i);
          align := max !align s.align;
          members := s :: !members
        end)
      isecs;
    (Buffer.to_bytes b, !align, List.rev !members)
  in
  let text_data, text_align, _ = gather Text in
  let rodata_data, rodata_align, rodata_members = gather Rodata in
  let data_data, data_align, _ = gather Data in
  let eh_data, _, eh_members = gather Eh_frame in
  if List.length eh_members <> 1 then unsupported "no .eh_frame";
  (* [ld] keeps [M] and an entry size only where every input agrees. *)
  let rodata_flags, rodata_entsize =
    match rodata_members with
    | [] -> (shf_alloc, 0)
    | s :: rest ->
      let ms = s.flags land (shf_merge lor shf_strings) in
      if List.for_all
           (fun (r : O.section) ->
             r.flags land (shf_merge lor shf_strings) = ms
             && (ms = 0 || r.entsize = s.entsize))
           rest
      then (shf_alloc lor ms, if ms <> 0 then s.entsize else 0)
      else (shf_alloc, 0)
  in
  (* --- Symbols --- *)
  let got_symbol = "_GLOBAL_OFFSET_TABLE_" in
  let locals = List.filter (fun (s : O.symbol) -> not s.global) obj.symbols in
  let globals =
    List.filter (fun (s : O.symbol) -> s.global && s.name <> got_symbol) obj.symbols
  in
  let by_name = Hashtbl.create 64 in
  List.iter (fun (s : O.symbol) -> Hashtbl.replace by_name s.name s) obj.symbols;
  (* The hash table's walk: by bucket, the latest inserted first. *)
  let walk =
    List.mapi (fun k (s : O.symbol) -> (bfd_bucket s.name, -k, s)) globals
    |> List.sort compare
    |> List.map (fun (_, _, s) -> s)
  in
  let target_name = function
    | O.Symbol s -> s
    | O.Section i -> isecs.(i).name
  in
  let is_global name =
    match Hashtbl.find_opt by_name name with
    | Some s -> s.global
    | None -> unsupported "relocation against unknown symbol %s" name
  in
  (* --- What each relocation needs --- *)
  let plt = Hashtbl.create 32 and got = Hashtbl.create 32 and local_got = Hashtbl.create 8 in
  (* Rewritten GOT loads, by section and offset: the new opcode bytes. *)
  let converted = Hashtbl.create 16 in
  let bad (r : O.reloc) sec why =
    unsupported "%s against %s in %s: %s" (reloc_name r.r_type) (target_name r.target)
      isecs.(sec).name why
  in
  let convertible i (r : O.reloc) =
    let c = icontents i in
    let at k = Char.code c.[r.offset + k] in
    if r.addend <> -4L || r.offset < (if r.r_type = r_rex_gotpcrelx then 3 else 2) then None
    else
      match at (-2) with
      | 0x8b -> Some `Lea
      | 0xff when r.r_type <> r_gotpcrel && at (-1) = 0x15 -> Some `Call
      | 0xff when r.r_type <> r_gotpcrel && at (-1) = 0x25 -> Some `Jmp
      | _ -> None
  in
  Array.iteri
    (fun i (s : O.section) ->
      List.iter
        (fun (r : O.reloc) ->
          let global =
            match r.target with
            | O.Symbol n when n = got_symbol -> bad r i "the GOT's own symbol"
            | O.Symbol n -> is_global n
            | O.Section _ -> false
          in
          let t = r.r_type in
          if t = r_64 then begin
            if s.flags land shf_write = 0 then bad r i "a text relocation"
          end
          else if t = r_pc32 || t = r_pc64 then begin
            if global then bad r i "a preemptible symbol, which ld rejects in a shared object"
          end
          else if t = r_plt32 then begin
            if global then Hashtbl.replace plt (target_name r.target) ()
          end
          else if t = r_gotpcrel || t = r_gotpcrelx || t = r_rex_gotpcrelx then begin
            match r.target with
            | O.Section _ -> bad r i "a section symbol"
            | O.Symbol n when global -> Hashtbl.replace got n ()
            | O.Symbol n -> (
              match convertible i r with
              | Some how -> Hashtbl.replace converted (i, r.offset) how
              | None -> Hashtbl.replace local_got n ())
          end
          else if t = 10 || t = 11 then bad r i "ld rejects it in a shared object"
          else bad r i "not supported")
        s.relocs)
    isecs;
  (* A symbol both called and loaded through the GOT is called through
     its GOT slot, from an entry of [.plt.got]. *)
  let plt_syms, plt_got_syms =
    List.filter (fun (s : O.symbol) -> Hashtbl.mem plt s.name) walk
    |> List.partition (fun (s : O.symbol) -> not (Hashtbl.mem got s.name))
  in
  let got_syms =
    List.filter (fun (s : O.symbol) -> Hashtbl.mem local_got s.name) locals
    @ List.filter (fun (s : O.symbol) -> Hashtbl.mem got s.name) walk
  in
  let plt_index = Hashtbl.create 32 and got_index = Hashtbl.create 32 in
  List.iteri (fun k (s : O.symbol) -> Hashtbl.replace plt_index s.name (`Lazy k)) plt_syms;
  List.iteri (fun k (s : O.symbol) -> Hashtbl.replace plt_index s.name (`Got k)) plt_got_syms;
  List.iteri (fun k (s : O.symbol) -> Hashtbl.replace got_index s.name k) got_syms;
  (* --- Dynamic symbols: undefined ones, then by .gnu.hash bucket --- *)
  let undefined, defined = List.partition (fun (s : O.symbol) -> s.section = None) walk in
  let nhashed = List.length defined in
  let nbuckets =
    let sizes =
      [ 1; 3; 17; 37; 67; 97; 131; 197; 263; 521; 1031; 2053; 4099; 8209; 16411; 32771 ]
    in
    let rec pick = function
      | a :: (b :: _ as rest) -> if nhashed < b then a else pick rest
      | [ a ] -> a
      | [] -> 1
    in
    max 2 (pick sizes)
  in
  let defined =
    List.mapi (fun k (s : O.symbol) -> ((gnu_hash s.name mod nbuckets, k), s)) defined
    |> List.sort compare |> List.map snd
  in
  let dynsyms = undefined @ defined in
  let dynindex = Hashtbl.create 64 in
  List.iteri (fun k (s : O.symbol) -> Hashtbl.replace dynindex s.name (k + 1)) dynsyms;
  let dynstr, dynstr_at = strtab (List.map (fun (s : O.symbol) -> s.name) globals) in
  let gnu_hash_data =
    let symindx = 1 + List.length undefined in
    let shift2 =
      let rec log2 x k = if x > 1 then log2 (x lsr 1) (k + 1) else k in
      let l = log2 nhashed 1 in
      let l =
        if l < 3 then 5 else if (1 lsl (l - 2)) land nhashed <> 0 then l + 3 else l + 2
      in
      if l = 5 then 6 else l
    in
    let maskwords = 1 lsl (shift2 - 6) in
    let bloom = Array.make maskwords 0L in
    let buckets = Array.make nbuckets 0 in
    let hashes = Array.of_list (List.map (fun (s : O.symbol) -> gnu_hash s.name) defined) in
    let chains = Array.make nhashed 0 in
    Array.iteri
      (fun k h ->
        let bucket = h mod nbuckets in
        let w = (h lsr 6) land (maskwords - 1) in
        bloom.(w) <-
          Int64.logor bloom.(w)
            (Int64.logor
               (Int64.shift_left 1L (h land 63))
               (Int64.shift_left 1L ((h lsr shift2) land 63)));
        if buckets.(bucket) = 0 then buckets.(bucket) <- symindx + k;
        let last = k + 1 = nhashed || hashes.(k + 1) mod nbuckets <> bucket in
        chains.(k) <- (h land lnot 1) lor if last then 1 else 0)
      hashes;
    let b = Buffer.create 256 in
    List.iter (add b 4) [ nbuckets; symindx; maskwords; shift2 ];
    Array.iter (X86_encode.add_le b 8) bloom;
    Array.iter (add b 4) buckets;
    Array.iter (add b 4) chains;
    Buffer.to_bytes b
  in
  (* --- Relocation counts, for the sizes --- *)
  let n_data_dyn =
    Array.fold_left
      (fun acc (s : O.section) ->
        acc + List.length (List.filter (fun (r : O.reloc) -> r.r_type = r_64) s.relocs))
      0 isecs
  in
  let nplt = List.length plt_syms and ngot = List.length got_syms in
  let n_plt_got = List.length plt_got_syms in
  let has_plt = nplt + n_plt_got > 0 in
  let nrela = n_data_dyn + ngot in
  let entries = eh_entries eh_data in
  let n_eh_fde = List.length (List.filter (fun (_, _, cie) -> not cie) entries) in
  (* The linker's FDEs share an equal CIE of the object's. *)
  let plt_cie_at =
    List.find_map
      (fun (at, len, cie) ->
        if cie && len + 4 = String.length plt_cie
           && Bytes.sub_string eh_data at (4 + len) = plt_cie
        then Some at
        else None)
      entries
  in
  (* The FDEs [ld] adds for [.plt] and [.plt.got], each in a section
     of its own at an 8-byte boundary after the object's: its CIE, unless
     an equal one came before, then the FDE without its padding, which
     only the FDE of a section that another follows keeps up to the
     next boundary.  For each, where its CIE and it go. *)
  if Bytes.length eh_data mod 8 <> 0 then
    unsupported ".eh_frame of %d bytes" (Bytes.length eh_data);
  let linker_fdes =
    (if has_plt then [ (`Plt, plt_fde_insns) ] else [])
    @ if n_plt_got > 0 then [ (`Plt_got, "\000") ] else []
  in
  let fde_size insns = align_up (4 + 12 + String.length insns) 4 in
  let eh_size, eh_layout =
    let cie = ref plt_cie_at in
    List.fold_left
      (fun (at, acc) (which, insns) ->
        let at = align_up at 8 in
        let cie_at, fresh, at =
          match !cie with
          | Some c -> (c, false, at)
          | None ->
            cie := Some at;
            (at, true, at + String.length plt_cie)
        in
        (at + fde_size insns, (which, insns, cie_at, fresh, at) :: acc))
      (Bytes.length eh_data, []) linker_fdes
  in
  let eh_layout = List.rev eh_layout in
  let n_fde = n_eh_fde + List.length linker_fdes in
  (* Dynamic tags: the ones [ld] adds, then six DT_NULLs, the first of
     which DT_RELACOUNT takes. *)
  let tags =
    [ `Gnu_hash; `Strtab; `Symtab; `Strsz; `Syment; `Pltgot ]
    @ (if nplt > 0 then [ `Pltrelsz; `Pltrel; `Jmprel ] else [])
    @ if nrela > 0 then [ `Rela; `Relasz; `Relaent ] else []
  in
  (* --- Sections --- *)
  let zeros n = Bytes.make n '\000' in
  let note = osec ".note.gnu.build-id" sht_note shf_alloc 4 (zeros 36) in
  let gnu_hash = osec ".gnu.hash" sht_gnu_hash shf_alloc 8 gnu_hash_data in
  let dynsym =
    osec ~entsize:24 ".dynsym" sht_dynsym shf_alloc 8 (zeros (24 * (1 + List.length dynsyms)))
  in
  let dynstr_s = osec ".dynstr" sht_strtab shf_alloc 1 (Bytes.of_string dynstr) in
  let rela_dyn = osec ~entsize:24 ".rela.dyn" sht_rela shf_alloc 8 (zeros (24 * nrela)) in
  let rela_plt =
    osec ~entsize:24 ".rela.plt" sht_rela (shf_alloc lor shf_info_link) 8 (zeros (24 * nplt))
  in
  let plt_s =
    osec ~entsize:16 ".plt" sht_progbits (shf_alloc lor shf_execinstr) 16
      (zeros (if has_plt then 16 * (nplt + 1) else 0))
  in
  let plt_got_s =
    osec ~entsize:8 ".plt.got" sht_progbits (shf_alloc lor shf_execinstr) 8
      (zeros (8 * n_plt_got))
  in
  let text = osec ".text" sht_progbits (shf_alloc lor shf_execinstr) text_align text_data in
  let rodata =
    osec ~entsize:rodata_entsize ".rodata" sht_progbits rodata_flags rodata_align rodata_data
  in
  let eh_hdr = osec ".eh_frame_hdr" sht_progbits shf_alloc 4 (zeros (12 + (8 * n_fde))) in
  let eh = osec ".eh_frame" sht_progbits shf_alloc 8 (zeros eh_size) in
  Bytes.blit eh_data 0 eh.data 0 (Bytes.length eh_data);
  let dynamic =
    osec ~entsize:16 ".dynamic" sht_dynamic (shf_alloc lor shf_write) 8
      (zeros (16 * (List.length tags + 6)))
  in
  let got_s =
    osec ~entsize:8 ".got" sht_progbits (shf_alloc lor shf_write) 8 (zeros (8 * ngot))
  in
  let got_plt =
    osec ~entsize:8 ".got.plt" sht_progbits (shf_alloc lor shf_write) 8 (zeros (8 * (3 + nplt)))
  in
  let data = osec ".data" sht_progbits (shf_alloc lor shf_write) data_align data_data in
  let present = List.filter (fun s -> size s > 0) in
  let seg_ro = present [ note; gnu_hash; dynsym; dynstr_s; rela_dyn; rela_plt ]
  and seg_code = present [ plt_s; plt_got_s; text ]
  and seg_rodata = present [ rodata; eh_hdr; eh ]
  and seg_data = present [ dynamic; got_s; got_plt; data ] in
  if seg_code = [] then unsupported "no code";
  (* --- Addresses --- *)
  let phnum = 9 in
  let place start secs =
    List.fold_left
      (fun at s ->
        s.addr <- align_up at s.align;
        s.addr + size s)
      start secs
  in
  let end_ro = place (64 + (56 * phnum)) seg_ro in
  let end_code = place (align_up end_ro page) seg_code in
  let end_rodata = place (align_up end_code page) seg_rodata in
  (* DATA_SEGMENT_ALIGN, then the RELRO adjustment: the data segment
     starts where [.dynamic] and [.got] end 24 bytes (the reserved part
     of [.got.plt]) below a page boundary. *)
  let relro = present [ dynamic; got_s ] in
  let base0 = align_up end_rodata page + (end_rodata land (page - 1)) in
  let relro_end0 = place base0 relro + 24 in
  let desired =
    List.fold_left
      (fun desired s -> (desired - size s) land lnot (s.align - 1))
      (align_up relro_end0 page - 24)
      (List.rev relro)
  in
  let dot = place desired relro in
  let relro_end = align_up (dot + 24) page in
  got_plt.addr <- relro_end - 24;
  ignore (place (got_plt.addr + size got_plt) (present [ data ]));
  (* --- File offsets --- *)
  let file_end = ref 0 in
  List.iter
    (fun seg ->
      match seg with
      | [] -> ()
      | first :: _ ->
        let start = first.addr in
        let off =
          if seg == seg_ro then 0
          else !file_end + ((start - !file_end) land (page - 1))
        in
        let seg_start = if seg == seg_ro then 0 else start in
        List.iter
          (fun s ->
            s.off <- off + (s.addr - seg_start);
            file_end := s.off + size s)
          seg)
    [ seg_ro; seg_code; seg_rodata; seg_data ];
  let addr_of i = (match outs.(i) with
      | Text -> text.addr
      | Rodata -> rodata.addr
      | Data -> data.addr
      | Eh_frame -> eh.addr
      | Dropped -> unsupported "a reference into %s" isecs.(i).name)
    + base.(i)
  in
  let sym_addr (s : O.symbol) =
    match s.section with
    | Some i -> addr_of i + map_offset i s.value
    | None -> unsupported "undefined symbol %s resolved here" s.name
  in
  let got_addr name = got_s.addr + (8 * Hashtbl.find got_index name) in
  let plt_addr name =
    match Hashtbl.find plt_index name with
    | `Lazy k -> plt_s.addr + (16 * (1 + k))
    | `Got k -> plt_got_s.addr + (8 * k)
  in
  (* --- Section contents --- *)
  let put64 (s : osec) at v = Bytes.set_int64_le s.data at (Int64.of_int v) in
  let put32 (s : osec) at v =
    if v < -0x8000_0000 || v > 0x7fff_ffff then
      unsupported "a 32-bit field at %s+%#x overflows" s.name at;
    Bytes.set_int32_le s.data at (Int32.of_int v)
  in
  let dynrels = ref [] in
  let dynrel d_offset d_type d_sym d_addend =
    dynrels := { d_offset; d_type; d_sym; d_addend } :: !dynrels
  in
  Array.iteri
    (fun i (s : O.section) ->
      if s.relocs <> [] then begin
        let out =
          match outs.(i) with Text -> text | Data -> data | Eh_frame -> eh | _ -> rodata
        in
        List.iter
          (fun (r : O.reloc) ->
            let at = base.(i) + r.offset in
            let p = out.addr + at in
            let a = Int64.to_int r.addend in
            (* S + A for a target resolved here. *)
            let sa () =
              match r.target with
              | O.Section j -> addr_of j + map_offset j a
              | O.Symbol n -> sym_addr (Hashtbl.find by_name n) + a
            in
            let global =
              match r.target with O.Symbol n -> is_global n | O.Section _ -> false
            in
            let t = r.r_type in
            if t = r_64 then begin
              match r.target with
              | O.Symbol n when global -> dynrel p r_64 (Hashtbl.find dynindex n) a
              | _ ->
                let v = sa () in
                put64 out at v;
                dynrel p r_relative 0 v
            end
            else if t = r_pc32 then put32 out at (sa () - p)
            else if t = r_pc64 then put64 out at ((sa () - p))
            else if t = r_plt32 then
              match r.target with
              | O.Symbol n when global -> put32 out at (plt_addr n + a - p)
              | _ -> put32 out at (sa () - p)
            else
              match Hashtbl.find_opt converted (i, r.offset), r.target with
              | Some `Lea, _ ->
                Bytes.set out.data (at - 2) '\x8d';
                put32 out at (sa () - p)
              | Some `Call, _ ->
                Bytes.set out.data (at - 2) '\x67';
                Bytes.set out.data (at - 1) '\xe8';
                put32 out at (sa () - p)
              | Some `Jmp, _ ->
                Bytes.set out.data (at - 2) '\xe9';
                Bytes.set out.data (at + 3) '\x90';
                put32 out (at - 1) (sa () - (p - 1))
              | None, O.Symbol n -> put32 out at (got_addr n + a - p)
              | None, O.Section _ -> assert false)
          s.relocs
      end)
    isecs;
  (* GOT slots: a local symbol's address, relocated; a global's, bound
     by the dynamic linker. *)
  List.iter
    (fun (s : O.symbol) ->
      let at = got_addr s.name in
      if s.global then dynrel at r_glob_dat (Hashtbl.find dynindex s.name) 0
      else begin
        let v = sym_addr s in
        put64 got_s (at - got_s.addr) v;
        dynrel at r_relative 0 v
      end)
    got_syms;
  (* The PLT, lazy: entry 0 pushes the second GOT word and jumps through
     the third; entry n jumps through its slot, which first holds the
     address of the [push] that follows. *)
  if has_plt then begin
    let slot k = got_plt.addr + (8 * (3 + k)) in
    Bytes.blit_string "\xff\x35\000\000\000\000\xff\x25\000\000\000\000\x0f\x1f\x40\000" 0
      plt_s.data 0 16;
    put32 plt_s 2 (got_plt.addr + 8 - (plt_s.addr + 6));
    put32 plt_s 8 (got_plt.addr + 16 - (plt_s.addr + 12));
    List.iteri
      (fun k (s : O.symbol) ->
        let e = 16 * (k + 1) in
        let addr = plt_s.addr + e in
        Bytes.blit_string "\xff\x25\000\000\000\000\x68\000\000\000\000\xe9\000\000\000\000" 0
          plt_s.data e 16;
        put32 plt_s (e + 2) (slot k - (addr + 6));
        put32 plt_s (e + 7) k;
        put32 plt_s (e + 12) (plt_s.addr - (addr + 16));
        put64 got_plt (8 * (3 + k)) (addr + 6);
        put64 rela_plt (24 * k) ((slot k));
        put64 rela_plt ((24 * k) + 8)
          ((Hashtbl.find dynindex s.name lsl 32) lor r_jump_slot))
      plt_syms
  end;
  (* [.plt.got]: a jump through the symbol's GOT slot. *)
  List.iteri
    (fun k (s : O.symbol) ->
      let e = 8 * k in
      Bytes.blit_string "\xff\x25\000\000\000\000\x66\x90" 0 plt_got_s.data e 8;
      put32 plt_got_s (e + 2) (got_addr s.name - (plt_got_s.addr + e + 6)))
    plt_got_syms;
  put64 got_plt 0 dynamic.addr;
  (* The linker's CIE and FDEs after the object's entries. *)
  List.iteri
    (fun k (which, insns, cie, fresh, f) ->
      if fresh then Bytes.blit_string plt_cie 0 eh.data cie (String.length plt_cie);
      let next =
        if k + 1 < List.length eh_layout then align_up (f + fde_size insns) 8
        else f + fde_size insns
      in
      let sec = match which with `Plt -> plt_s | `Plt_got -> plt_got_s in
      put32 eh f (next - f - 4);
      put32 eh (f + 4) (f + 4 - cie);
      put32 eh (f + 8) (sec.addr - (eh.addr + f + 8));
      put32 eh (f + 12) (size sec);
      Bytes.blit_string insns 0 eh.data (f + 16) (String.length insns))
    eh_layout;
  (* [.eh_frame_hdr]: a table of FDEs sorted by the address they cover. *)
  let fdes =
    List.filter_map
      (fun (at, _, cie) ->
        if cie then None
        else
          let field = eh.addr + at + 8 in
          Some (field + Int32.to_int (Bytes.get_int32_le eh.data (at + 8)), eh.addr + at))
      (eh_entries eh.data)
    |> List.sort compare
  in
  Bytes.blit_string "\001\x1b\x03\x3b" 0 eh_hdr.data 0 4;
  put32 eh_hdr 4 (eh.addr - (eh_hdr.addr + 4));
  put32 eh_hdr 8 (List.length fdes);
  List.iteri
    (fun k (pc, fde) ->
      put32 eh_hdr (12 + (8 * k)) (pc - eh_hdr.addr);
      put32 eh_hdr (16 + (8 * k)) (fde - eh_hdr.addr))
    fdes;
  (* [.rela.dyn], as [-z combreloc] sorts it: RELATIVE by offset, then
     the others grouped by symbol, groups by their first offset. *)
  let relative, others = List.partition (fun d -> d.d_type = r_relative) !dynrels in
  let relative = List.sort (fun a b -> compare a.d_offset b.d_offset) relative in
  let first = Hashtbl.create 16 in
  List.iter
    (fun d ->
      match Hashtbl.find_opt first d.d_sym with
      | Some o when o <= d.d_offset -> ()
      | _ -> Hashtbl.replace first d.d_sym d.d_offset)
    others;
  let others =
    List.sort
      (fun a b ->
        compare
          (Hashtbl.find first a.d_sym, a.d_offset)
          (Hashtbl.find first b.d_sym, b.d_offset))
      others
  in
  List.iteri
    (fun k d ->
      put64 rela_dyn (24 * k) d.d_offset;
      put64 rela_dyn ((24 * k) + 8) ((d.d_sym lsl 32) lor d.d_type);
      put64 rela_dyn ((24 * k) + 16) d.d_addend)
    (relative @ others);
  (* --- Section indexes --- *)
  let alloc = seg_ro @ seg_code @ seg_rodata @ seg_data in
  List.iteri (fun k s -> s.index <- k + 1) alloc;
  let nalloc = List.length alloc in
  let strtab_index = nalloc + 2 in
  let out_index i =
    match outs.(i) with
    | Text -> text.index
    | Rodata -> rodata.index
    | Data -> data.index
    | Eh_frame -> eh.index
    | Dropped -> 0
  in
  (* [.dynsym] *)
  List.iteri
    (fun k (s : O.symbol) ->
      let at = 24 * (k + 1) in
      put32 dynsym at (dynstr_at s.name);
      Bytes.set dynsym.data (at + 4) (Char.chr ((1 lsl 4) lor s.kind));
      match s.section with
      | None -> ()
      | Some i ->
        Bytes.set_uint16_le dynsym.data (at + 6) (out_index i);
        put64 dynsym (at + 8) ((sym_addr s));
        put64 dynsym (at + 16) s.size)
    dynsyms;
  (* [.dynamic] *)
  let relacount = List.length relative in
  let entries =
    List.map
      (function
        | `Gnu_hash -> (0x6ffffef5, gnu_hash.addr)
        | `Strtab -> (5, dynstr_s.addr)
        | `Symtab -> (6, dynsym.addr)
        | `Strsz -> (10, size dynstr_s)
        | `Syment -> (11, 24)
        | `Pltgot -> (3, got_plt.addr)
        | `Pltrelsz -> (2, size rela_plt)
        | `Pltrel -> (20, 7)
        | `Jmprel -> (23, rela_plt.addr)
        | `Rela -> (7, rela_dyn.addr)
        | `Relasz -> (8, size rela_dyn)
        | `Relaent -> (9, 24))
      tags
    @ if relacount > 0 then [ (0x6ffffff9, relacount) ] else []
  in
  List.iteri
    (fun k (tag, v) ->
      put64 dynamic (16 * k) tag;
      put64 dynamic ((16 * k) + 8) v)
    entries;
  (* --- The symbol table --- *)
  let linker_locals =
    List.sort compare
      [ (bfd_bucket "_DYNAMIC", "_DYNAMIC", 1, dynamic);
        (bfd_bucket "__GNU_EH_FRAME_HDR", "__GNU_EH_FRAME_HDR", 0, eh_hdr);
        (bfd_bucket got_symbol, got_symbol, 1, got_plt) ]
  in
  (* [ld] drops [.L] labels in mergeable sections. *)
  let kept_locals =
    List.filter
      (fun (s : O.symbol) ->
        match s.section with
        | Some i ->
          not
            (isecs.(i).flags land shf_merge <> 0
            && (String.starts_with ~prefix:".L" s.name
               || String.starts_with ~prefix:".." s.name))
        | None -> true)
      locals
  in
  let symtab_names =
    List.map (fun (s : O.symbol) -> s.name) kept_locals
    @ List.map (fun (_, n, _, _) -> n) linker_locals
    @ List.map (fun (s : O.symbol) -> s.name) walk
  in
  let strtab_s, strtab_at = strtab symtab_names in
  let symtab = Buffer.create 4096 in
  let add_sym ~name ~info ~shndx ~value ~size =
    add symtab 4 name;
    Buffer.add_char symtab (Char.chr info);
    Buffer.add_char symtab '\000';
    add symtab 2 shndx;
    add symtab 8 value;
    add symtab 8 size
  in
  let file_sym () = add_sym ~name:0 ~info:4 ~shndx:0xfff1 ~value:0 ~size:0 in
  let input_sym bind (s : O.symbol) =
    let shndx, value =
      match s.section with Some i -> (out_index i, sym_addr s) | None -> (0, 0)
    in
    add_sym ~name:(strtab_at s.name) ~info:((bind lsl 4) lor s.kind) ~shndx ~value
      ~size:s.size
  in
  add_sym ~name:0 ~info:0 ~shndx:0 ~value:0 ~size:0;
  file_sym ();
  List.iter (input_sym 0) kept_locals;
  file_sym ();
  List.iter
    (fun (_, name, kind, (s : osec)) ->
      add_sym ~name:(strtab_at name) ~info:kind ~shndx:s.index ~value:s.addr ~size:0)
    linker_locals;
  let first_global = (Buffer.length symtab / 24) in
  List.iter (input_sym 1) walk;
  (* --- Links between sections --- *)
  List.iter (fun s -> s.link <- dynsym.index) [ gnu_hash; rela_dyn; rela_plt ];
  dynsym.link <- dynstr_s.index;
  dynsym.info <- 1;
  dynamic.link <- dynstr_s.index;
  rela_plt.info <- got_plt.index;
  let symtab_s = osec ~entsize:24 ".symtab" sht_symtab 0 8 (Buffer.to_bytes symtab) in
  symtab_s.link <- strtab_index;
  symtab_s.info <- first_global;
  let strtab_o = osec ".strtab" sht_strtab 0 1 (Bytes.of_string strtab_s) in
  let names = [ ".symtab"; ".strtab"; ".shstrtab" ] @ List.map (fun s -> s.name) alloc in
  let shstrtab, shstrtab_at = strtab names in
  let shstrtab_o = osec ".shstrtab" sht_strtab 0 1 (Bytes.of_string shstrtab) in
  let all = alloc @ [ symtab_s; strtab_o; shstrtab_o ] in
  let at =
    List.fold_left
      (fun at s ->
        if s.flags land shf_alloc <> 0 then at
        else begin
          s.off <- align_up at s.align;
          s.off + size s
        end)
      !file_end all
  in
  let shoff = align_up at 8 in
  (* --- Headers --- *)
  let seg_range seg =
    match seg with
    | [] -> (0, 0)
    | first :: _ ->
      let last = List.nth seg (List.length seg - 1) in
      (first.addr, last.addr + size last)
  in
  let phdr b ~typ ~flags ~off ~addr ~size ~align =
    add b 4 typ;
    add b 4 flags;
    add b 8 off;
    add b 8 addr;
    add b 8 addr;
    add b 8 size;
    add b 8 size;
    add b 8 align
  in
  let load b seg flags =
    let start, stop = seg_range seg in
    let start, off =
      if seg == seg_ro then (0, 0) else (start, (List.hd seg).off)
    in
    phdr b ~typ:1 ~flags ~off ~addr:start ~size:(stop - start) ~align:page
  in
  let of_sec b typ flags align (s : osec) =
    phdr b ~typ ~flags ~off:s.off ~addr:s.addr ~size:(size s) ~align
  in
  let headers ~shoff =
    let b = Buffer.create 1024 in
    Buffer.add_string b "\x7fELF\002\001\001\000";
    Buffer.add_string b (String.make 8 '\000');
    add b 2 3 (* ET_DYN *);
    add b 2 62 (* EM_X86_64 *);
    add b 4 1;
    add b 8 0 (* entry *);
    add b 8 (if shoff = 0 then 0 else 64) (* phoff *);
    add b 8 shoff;
    add b 4 0;
    add b 2 64;
    add b 2 56;
    add b 2 phnum;
    add b 2 64;
    add b 2 (List.length all + 1);
    add b 2 (List.length all);
    load b seg_ro 4;
    load b seg_code 5;
    load b seg_rodata 4;
    load b seg_data 6;
    of_sec b 2 6 8 dynamic;
    of_sec b 4 4 4 note;
    of_sec b 0x6474e550 4 4 eh_hdr;
    phdr b ~typ:0x6474e551 ~flags:6 ~off:0 ~addr:0 ~size:0 ~align:16;
    phdr b ~typ:0x6474e552 ~flags:4 ~off:dynamic.off ~addr:dynamic.addr
      ~size:(relro_end - dynamic.addr) ~align:1;
    Buffer.contents b
  in
  let shdr b ~with_offset (s : osec) =
    add b 4 (shstrtab_at s.name);
    add b 4 s.sh_type;
    add b 8 s.flags;
    add b 8 s.addr;
    add b 8 (if with_offset then s.off else 0);
    add b 8 (size s);
    add b 4 s.link;
    add b 4 s.info;
    add b 8 s.align;
    add b 8 s.entsize
  in
  (* The build-id: SHA-1 over the headers without their file offsets,
     and the allocated sections' contents, the note all zeros. *)
  let sha = Sha1.init () in
  Sha1.feed sha (headers ~shoff:0);
  Sha1.feed sha (String.make 64 '\000');
  List.iter
    (fun s ->
      let b = Buffer.create 64 in
      shdr b ~with_offset:false s;
      Sha1.feed sha (Buffer.contents b);
      if s.flags land shf_alloc <> 0 then Sha1.feed sha (Bytes.unsafe_to_string s.data))
    all;
  let id = Sha1.finish sha in
  put32 note 0 4;
  put32 note 4 20;
  put32 note 8 3 (* NT_GNU_BUILD_ID *);
  Bytes.blit_string "GNU\000" 0 note.data 12 4;
  Bytes.blit_string id 0 note.data 16 20;
  (* --- The file --- *)
  let file = Bytes.make (shoff + (64 * (List.length all + 1))) '\000' in
  let hdrs = headers ~shoff in
  Bytes.blit_string hdrs 0 file 0 (String.length hdrs);
  List.iter (fun s -> Bytes.blit s.data 0 file s.off (size s)) all;
  let b = Buffer.create 2048 in
  List.iter (shdr b ~with_offset:true) all;
  Bytes.blit_string (Buffer.contents b) 0 file (shoff + 64) (Buffer.length b);
  Bytes.unsafe_to_string file
