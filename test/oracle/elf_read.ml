(* Just enough of an ELF64 little-endian relocatable object to compare
   two of them: the allocated sections with their attributes, addresses
   and bytes, the symbols, and the relocations.  It also reads a
   plugin's symbols and sections, to find its header. *)

type section = {
  name : string;
  sh_type : int;
  addr : int;
  flags : int;
  align : int;
  entsize : int;
  link : int;
  info : int;
  data : string;
}

(* (name, binding, type, section, value, size); a section symbol is
   left out, and named by its section in the relocations. *)
type symbol = string * int * int * string * int * int

(* (section, offset, type, symbol, addend) *)
type reloc = string * int * int * string * int

type t = { sections : section list; symbols : symbol list; relocs : reloc list }

let u8 s o = Char.code s.[o]
let u16 s o = u8 s o lor (u8 s (o + 1) lsl 8)
let u32 s o = u16 s o lor (u16 s (o + 2) lsl 16)
let u64 s o = Int64.to_int (String.get_int64_le s o)

let cstring s o = String.sub s o (String.index_from s o '\000' - o)

let read contents =
  let s = contents in
  if String.length s < 64 || String.sub s 0 4 <> "\x7fELF" then failwith "not an ELF file";
  let shoff = u64 s 0x28 and shnum = u16 s 0x3c and shstrndx = u16 s 0x3e in
  let header i =
    let o = shoff + (i * 64) in
    ( u32 s o, u32 s (o + 4), u64 s (o + 8), u64 s (o + 0x10), u64 s (o + 0x18),
      u64 s (o + 0x20), u32 s (o + 0x28), u32 s (o + 0x2c), u64 s (o + 0x30),
      u64 s (o + 0x38) )
  in
  let raw =
    Array.init shnum (fun i ->
        let name, sh_type, flags, addr, offset, size, link, info, align, entsize =
          header i
        in
        (name, { name = ""; sh_type; addr; flags; align; entsize; link; info;
                 data = (if sh_type = 8 then "" else String.sub s offset size) }))
  in
  let shstr = (snd raw.(shstrndx)).data in
  let secs = Array.map (fun (n, sec) -> { sec with name = cstring shstr n }) raw in
  let symtab = Array.to_list secs |> List.find_opt (fun x -> x.sh_type = 2) in
  let syms =
    match symtab with
    | None -> [||]
    | Some st ->
      let strtab = secs.(st.link).data in
      Array.init (String.length st.data / 24) (fun i ->
          let o = i * 24 in
          let name = cstring strtab (u32 st.data o) and info = u8 st.data (o + 4) in
          let shndx = u16 st.data (o + 6) in
          let section =
            if shndx = 0 then "UND"
            else if shndx >= 0xff00 then "ABS"
            else secs.(shndx).name
          in
          ( name, info lsr 4, info land 15, section, u64 st.data (o + 8),
            u64 st.data (o + 16) ))
  in
  let symbols =
    Array.to_list syms |> List.tl
    |> List.filter (fun (_, _, t, _, _, _) -> t <> 3)
    |> List.sort compare
  in
  let relocs =
    Array.to_list secs
    |> List.filter (fun x -> x.sh_type = 4)
    |> List.concat_map (fun r ->
           let target = secs.(r.info).name in
           List.init (String.length r.data / 24) (fun i ->
               let o = i * 24 in
               let info = u64 r.data (o + 8) in
               let name, _, t, section, _, _ = syms.(info lsr 32) in
               let name = if t = 3 then section else name in
               (target, u64 r.data o, info land 0xffffffff, name, u64 r.data (o + 16))))
    |> List.sort compare
  in
  let sections = Array.to_list secs |> List.filter (fun x -> x.flags land 2 <> 0) in
  { sections; symbols; relocs }

let read_file path = read (In_channel.with_open_bin path In_channel.input_all)

(* What differs between [a] and [b], one line each; [] when they agree. *)
let diff a b =
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let names l = List.map (fun x -> x.name) l in
  if names a.sections <> names b.sections then
    say "allocated sections: %s vs %s" (String.concat " " (names a.sections))
      (String.concat " " (names b.sections));
  List.iter
    (fun x ->
      match List.find_opt (fun y -> y.name = x.name) b.sections with
      | None -> ()
      | Some y ->
        let attrs z = (z.sh_type, z.flags, z.align, z.entsize) in
        if attrs x <> attrs y then begin
          let show (t, f, a, e) = Printf.sprintf "%d/%d/%d/%d" t f a e in
          say "%s: type/flags/align/entsize %s vs %s" x.name (show (attrs x))
            (show (attrs y))
        end;
        if x.data <> y.data then begin
          let n = min (String.length x.data) (String.length y.data) in
          let rec first i = if i < n && x.data.[i] = y.data.[i] then first (i + 1) else i in
          say "%s: %d vs %d bytes, first difference at 0x%x" x.name (String.length x.data)
            (String.length y.data) (first 0)
        end)
    a.sections;
  let only l l' = List.filter (fun x -> not (List.mem x l')) l in
  let symbol which (n, b, t, s, v, z) =
    say "symbol only in the %s: %s bind %d type %d %s 0x%x size %d" which n b t s v z
  and reloc which (s, o, t, n, a) =
    say "relocation only in the %s: %s+0x%x type %d %s%+d" which s o t n a
  in
  List.iter (symbol "first") (only a.symbols b.symbols);
  List.iter (symbol "second") (only b.symbols a.symbols);
  List.iter (reloc "first") (only a.relocs b.relocs);
  List.iter (reloc "second") (only b.relocs a.relocs);
  List.rev !out
