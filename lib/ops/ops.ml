(* The ops plane: a minimal HTTP/1.0 listener over stdlib [Unix] only.

   Admin traffic is low-rate and trusted (bind is loopback-only), so the
   server is deliberately primitive: one accept loop on a dedicated
   domain, one connection served at a time, every response
   [Connection: close].  What matters is that it cannot wedge the
   process — per-connection receive/send timeouts, every handler
   exception answers 500, and [stop] closes the listener out from under
   the accept loop and joins it. *)

type t = {
  o_engine : Steno.Engine.t;
  o_fd : Unix.file_descr;
  o_port : int;
  o_stop : bool Atomic.t;
  mutable o_domain : unit Domain.t option;
}

let http_status = function
  | 200 -> "200 OK"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | _ -> "500 Internal Server Error"

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      if n > 0 then go (off + n)
  in
  go 0

let respond fd ~status ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n"
      (http_status status) content_type (String.length body)
  in
  write_all fd (head ^ body)

(* The request line is all we need ([GET /path HTTP/1.x]). *)
let read_request_line fd =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    if Buffer.length buf > 4096 then None
    else
      match Unix.read fd byte 0 1 with
      | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      | _ ->
        let c = Bytes.get byte 0 in
        if c = '\n' then Some (Buffer.contents buf) else begin
          if c <> '\r' then Buffer.add_char buf c;
          go ()
        end
  in
  go ()

(* Consume the remaining headers up to the blank line.  Closing a socket
   with unread request bytes still buffered turns the close into a TCP
   reset, which clients report as ECONNRESET instead of a clean response
   — so drain (bounded) before answering. *)
let drain_headers fd =
  let byte = Bytes.create 1 in
  (* [blank] is true while only [\r] has been seen on the current line;
     a [\n] read in that state is the empty line ending the headers. *)
  let rec go blank budget =
    if budget > 0 then
      match Unix.read fd byte 0 1 with
      | 0 -> ()
      | _ -> (
        match Bytes.get byte 0 with
        | '\n' -> if not blank then go true (budget - 1)
        | '\r' -> go blank (budget - 1)
        | _ -> go false (budget - 1))
  in
  try go true 16_384 with Unix.Unix_error _ -> ()

let parse_request_line line =
  match String.split_on_char ' ' (String.trim line) with
  | meth :: target :: _ ->
    (* Strip any query string: routes take no parameters. *)
    let path =
      match String.index_opt target '?' with
      | Some i -> String.sub target 0 i
      | None -> target
    in
    Some (String.uppercase_ascii meth, path)
  | _ -> None

let handle t = function
  | "GET", "/healthz" -> 200, "text/plain; charset=utf-8", "ok\n"
  | "GET", "/metrics" ->
    (* Byte-identical to [Metrics.render]: the handler adds transport,
       never content. *)
    ( 200,
      "application/openmetrics-text; version=1.0.0; charset=utf-8",
      Metrics.render (Steno.Engine.metrics t.o_engine) )
  | "GET", "/traces" ->
    ( 200,
      "application/json; charset=utf-8",
      Trace.export_chrome (Steno.Engine.tracer t.o_engine) )
  | "GET", "/slow" ->
    ( 200,
      "text/plain; charset=utf-8",
      Trace.slow_report (Steno.Engine.tracer t.o_engine) )
  | "GET", _ -> 404, "text/plain; charset=utf-8", "not found\n"
  | _ -> 405, "text/plain; charset=utf-8", "method not allowed\n"

let serve_connection t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* A stalled or hostile peer must not hold the single accept loop
         hostage. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0;
      match Option.bind (read_request_line fd) parse_request_line with
      | None -> ()
      | Some req ->
        drain_headers fd;
        let status, content_type, body =
          try handle t req
          with e ->
            500, "text/plain; charset=utf-8", Printexc.to_string e ^ "\n"
        in
        respond fd ~status ~content_type body)

let accept_loop t () =
  let rec go () =
    if not (Atomic.get t.o_stop) then begin
      (match Unix.accept t.o_fd with
      | fd, _ -> (
        try serve_connection t fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
        (* [stop] closed the listener. *)
        ()
      | exception Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()

let start ?(port = 0) engine =
  (* A peer that closes before the response is fully written turns the
     next [Unix.write] into SIGPIPE, whose default disposition kills the
     whole process.  Ignoring it surfaces the disconnect as
     [Unix_error EPIPE], which the accept loop already swallows.
     ([Invalid_argument]: platforms without SIGPIPE.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> assert false
  in
  let t =
    {
      o_engine = engine;
      o_fd = fd;
      o_port = bound_port;
      o_stop = Atomic.make false;
      o_domain = None;
    }
  in
  t.o_domain <- Some (Domain.spawn (accept_loop t));
  t

let port t = t.o_port

let engine t = t.o_engine

let stop t =
  if not (Atomic.exchange t.o_stop true) then begin
    (* A blocked [accept] is not reliably woken by closing its fd from
       another domain; a throwaway loopback connection is. *)
    (try
       let fd = Unix.socket PF_INET SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, t.o_port)))
     with Unix.Unix_error _ -> ());
    (match t.o_domain with
    | Some d ->
      t.o_domain <- None;
      Domain.join d
    | None -> ());
    try Unix.close t.o_fd with Unix.Unix_error _ -> ()
  end
