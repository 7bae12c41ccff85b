(* Running a generated draw through the engine, and the independent
   answer it must match.  [Reference] shares no operator code with any
   backend; results compare with structural equality, as in the
   differential test suites (all generated element types are [int]). *)

type outcome =
  | Rows_out of int array
  | Int_out of int

let expected (d : Gen.draw) =
  match d.Gen.query with
  | Gen.Rows q -> Rows_out (Array.of_list (Reference.to_list q))
  | Gen.Scalar q -> Int_out (Reference.scalar q)

(* The two prepare entry points of an engine or a session. *)
type preparer = {
  rows : int Query.t -> (int Steno.prepared, Steno.Engine.error) result;
  scalar : int Query.sq -> (int Steno.prepared_scalar, Steno.Engine.error) result;
}

let of_engine eng =
  {
    rows = (fun q -> Steno.Engine.try_prepare eng q);
    scalar = (fun q -> Steno.Engine.try_prepare_scalar eng q);
  }

let of_session sess =
  {
    rows = (fun q -> Steno.Session.try_prepare sess q);
    scalar = (fun q -> Steno.Session.try_prepare_scalar sess q);
  }

exception Refused of string

(* A preparation that silently ran on another backend than the one the
   engine was configured for is a failed operation, not a result. *)
let require_backend (info : Steno.compile_info) =
  match info.Steno.fallback with
  | None -> ()
  | Some r -> raise (Refused ("fell back: " ^ Steno.fallback_reason_message r))

let ok = function
  | Ok p -> p
  | Error e -> raise (Refused (Steno.Engine.error_message e))

(* Prepare and run once, each call wrapped in a span of [tracer] (a no-op
   on [Trace.disabled]).  Raises [Refused] on a refusal or fallback. *)
let execute ?(tracer = Trace.disabled) p (d : Gen.draw) =
  let span name f = Trace.with_span tracer name f in
  match d.Gen.query with
  | Gen.Rows q ->
    let pr = span "bench.prepare" (fun () -> ok (p.rows q)) in
    require_backend (Steno.Prepared.compile_info pr);
    Rows_out (span "bench.run" (fun () -> Steno.Prepared.run pr))
  | Gen.Scalar q ->
    let pr = span "bench.prepare" (fun () -> ok (p.scalar q)) in
    require_backend (Steno.Prepared_scalar.compile_info pr);
    Int_out (span "bench.run" (fun () -> Steno.Prepared_scalar.run pr))

let agrees eng d =
  match execute (of_engine eng) d with
  | got -> got = expected d
  | exception Refused _ -> false
