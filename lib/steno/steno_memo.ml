(* The plan-memo entry codec.  Layout: a version byte, then the slots,
   rules, diagnostics and plan, every count and length a u32
   little-endian, every string its length then its bytes, and the
   diagnostic index a signed 64-bit integer. *)

type slot = Class of int | Empty_array

type entry = {
  slots : slot array;
  rules : string list;
  diags : Check.diagnostic list;
  plan : string;
}

let version = '\001'

let encode e =
  let b = Buffer.create 256 in
  let u32 n = Buffer.add_int32_le b (Int32.of_int n) in
  let str s =
    u32 (String.length s);
    Buffer.add_string b s
  in
  let list f l =
    u32 (List.length l);
    List.iter f l
  in
  Buffer.add_char b version;
  u32 (Array.length e.slots);
  Array.iter
    (function
      | Class i ->
        Buffer.add_char b 'c';
        u32 i
      | Empty_array -> Buffer.add_char b 'e')
    e.slots;
  list str e.rules;
  list
    (fun (d : Check.diagnostic) ->
      str d.d_code;
      str d.d_rule;
      Buffer.add_char b
        (match d.d_severity with Error -> 'E' | Warning -> 'W' | Hint -> 'H');
      Buffer.add_int64_le b (Int64.of_int d.d_index);
      str d.d_op;
      str d.d_message)
    e.diags;
  str e.plan;
  Buffer.contents b

let decode s =
  let exception Bad in
  let pos = ref 0 in
  let need n = if n < 0 || !pos + n > String.length s then raise Bad in
  let byte () =
    need 1;
    let c = s.[!pos] in
    incr pos;
    c
  in
  let u32 () =
    need 4;
    let n = Int32.to_int (String.get_int32_le s !pos) land 0xffff_ffff in
    pos := !pos + 4;
    n
  in
  let str () =
    let n = u32 () in
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  (* Every element takes at least one byte, so a count past the bytes
     left is a lie, and allocating for it could exhaust the heap. *)
  let count () =
    let n = u32 () in
    need n;
    n
  in
  let list f = List.init (count ()) (fun _ -> f ()) in
  match
    if byte () <> version then raise Bad;
    let slots =
      Array.init (count ()) (fun _ ->
          match byte () with
          | 'c' -> Class (u32 ())
          | 'e' -> Empty_array
          | _ -> raise Bad)
    in
    let rules = list str in
    let diags =
      list (fun () ->
          let d_code = str () in
          let d_rule = str () in
          let d_severity : Check.severity =
            match byte () with
            | 'E' -> Error
            | 'W' -> Warning
            | 'H' -> Hint
            | _ -> raise Bad
          in
          need 8;
          let d_index = Int64.to_int (String.get_int64_le s !pos) in
          pos := !pos + 8;
          let d_op = str () in
          let d_message = str () in
          { Check.d_code; d_rule; d_severity; d_index; d_op; d_message })
    in
    let plan = str () in
    if !pos <> String.length s then raise Bad;
    { slots; rules; diags; plan }
  with
  | e -> Some e
  | exception Bad -> None
