(* Monotonic: wall-clock time steps (NTP slews, manual resets) must not
   produce negative or wildly wrong span durations.  The bechamel stub
   reads CLOCK_MONOTONIC in nanoseconds. *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* Belt and braces: even a monotonic source can observe a 0-length
   interval; never report a negative duration. *)
let duration_since start_ms = Float.max 0.0 (now_ms () -. start_ms)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
