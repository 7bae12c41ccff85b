let add_field b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b '\n';
  Buffer.add_string b s

let encode fields =
  let payload = Buffer.create 256 in
  List.iter (add_field payload) fields;
  let b = Buffer.create (Buffer.length payload + 12) in
  add_field b (Buffer.contents payload);
  Buffer.contents b

let rec write_from fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_from fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_from fd s off

let write fd fields = write_from fd (encode fields) 0

type received = Message of string list | Closed | Late | Garbled

(* Counts are plain decimal digits: [int_of_string] alone would also
   take a sign, [0x] or underscores.  Nine digits bound a message at
   just under 1 GB. *)
let count s =
  if s <> "" && String.length s <= 9
     && String.for_all (fun c -> c >= '0' && c <= '9') s
  then Some (int_of_string s)
  else None

(* The count at [i] and the field it announces, or [None]. *)
let field s i =
  match String.index_from_opt s i '\n' with
  | None -> None
  | Some nl -> (
    match count (String.sub s i (nl - i)) with
    | Some n when nl + 1 + n <= String.length s ->
      Some (String.sub s (nl + 1) n, nl + 1 + n)
    | _ -> None)

let decode payload =
  let rec go i acc =
    if i = String.length payload then Some (List.rev acc)
    else
      match field payload i with
      | Some (f, next) -> go next (f :: acc)
      | None -> None
  in
  go 0 []

let read ?deadline fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec readable () =
    match deadline with
    | None -> true
    | Some d -> (
      let wait = d -. Unix.gettimeofday () in
      wait > 0.0
      &&
      match Unix.select [ fd ] [] [] wait with
      | [], _, _ -> readable ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable ())
  in
  (* Read until [enough ()] holds: [None], or why it never will. *)
  let rec fill_until enough =
    if enough () then None
    else if not (readable ()) then Some Late
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Some Closed
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        fill_until enough
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill_until enough
  in
  let newline () = String.index_opt (Buffer.contents buf) '\n' in
  match fill_until (fun () -> newline () <> None || Buffer.length buf > 10) with
  | Some r -> r
  | None -> (
    match Option.bind (newline ()) (fun nl -> Option.map (fun n -> (nl, n)) (count (Buffer.sub buf 0 nl))) with
    | None -> Garbled
    | Some (nl, n) -> (
      let total = nl + 1 + n in
      match fill_until (fun () -> Buffer.length buf >= total) with
      | Some r -> r
      | None when Buffer.length buf > total -> Garbled
      | None -> (
        match decode (Buffer.sub buf (nl + 1) n) with
        | Some fields -> Message fields
        | None -> Garbled)))
