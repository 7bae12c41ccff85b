(* SHA-1 (FIPS 180-4), for the build-id note of a linked plugin.  Words
   are native ints masked to 32 bits. *)

type t = {
  h : int array;
  block : Bytes.t;
  mutable used : int;  (** bytes waiting in [block] *)
  mutable length : int;  (** bytes fed so far *)
}

let init () =
  { h = [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476; 0xc3d2e1f0 |];
    block = Bytes.create 64; used = 0; length = 0 }

let mask = 0xffff_ffff

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let compress ctx =
  let w = Array.make 80 0 in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be ctx.block (4 * i)) land mask
  done;
  for i = 16 to 79 do
    w.(i) <- rotl (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2)
  and d = ref ctx.h.(3) and e = ref ctx.h.(4) in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then ((!b land !c) lor (lnot !b land mask land !d), 0x5a827999)
      else if i < 40 then (!b lxor !c lxor !d, 0x6ed9eba1)
      else if i < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d), 0x8f1bbcdc)
      else (!b lxor !c lxor !d, 0xca62c1d6)
    in
    let t = (rotl !a 5 + f + !e + k + w.(i)) land mask in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := t
  done;
  List.iteri
    (fun i v -> ctx.h.(i) <- (ctx.h.(i) + v) land mask)
    [ !a; !b; !c; !d; !e ]

let feed ctx s =
  let len = String.length s in
  ctx.length <- ctx.length + len;
  let pos = ref 0 in
  while !pos < len do
    let n = min (len - !pos) (64 - ctx.used) in
    Bytes.blit_string s !pos ctx.block ctx.used n;
    ctx.used <- ctx.used + n;
    pos := !pos + n;
    if ctx.used = 64 then begin
      compress ctx;
      ctx.used <- 0
    end
  done

let finish ctx =
  let bits = ctx.length * 8 in
  feed ctx "\x80";
  while ctx.used <> 56 do feed ctx "\000" done;
  let len = Bytes.create 8 in
  Bytes.set_int64_be len 0 (Int64.of_int bits);
  feed ctx (Bytes.to_string len);
  let out = Bytes.create 20 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.to_string out
