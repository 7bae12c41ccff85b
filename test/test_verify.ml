(* The translation validator end to end: an injected unsound rewrite is
   rejected (fallback on a default engine, [Check_failed] on a strict
   one, both counted into [steno_verify_total]); a deliberately broken
   law table rejects sound plans; and a property suite checks that
   validated pipelines compute exactly what the Reference semantics
   say, on every backend. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs

let data = [| 5; 2; 8; 2; 11; 14; 3; 8; 0; 7; 12; 9 |]

let even x = I.(x mod Expr.int 2 = Expr.int 0)

let engine ?(strict = false) ?metrics ?(optimize = true) backend =
  let reg =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  Steno.Engine.(
    create { default_config with backend; optimize; strict; metrics = reg })

let verify_count reg result =
  Metrics.counter_value
    (Metrics.counter reg "steno_verify" ~labels:[ "result", result ])

let codes ds = List.map (fun d -> d.Check.d_code) ds

(* An unsound rewrite with a forged justification: drop any [Where],
   claiming its (non-constant) predicate is a tautology.  The validator
   re-derives the truth of the captured predicate and must refuse. *)
let unsound_hook =
  {
    Opt.h =
      (fun (type a) (q : a Query.t) : (a Query.t * Opt.event) option ->
        match q with
        | Query.Where (q0, p) ->
          Some
            ( q0,
              {
                Opt.ev_rule = "where-const-true";
                ev_facts = [ Check.Equiv.Pred_true p.Expr.body ];
              } )
        | _ -> None);
  }

let with_hook f =
  Opt.set_test_hook (Some unsound_hook);
  Fun.protect ~finally:(fun () -> Opt.set_test_hook None) f

let test_unsound_rewrite_rejected () =
  let q = ints data |> Query.where even in
  let expected = Reference.to_list q in
  with_hook (fun () ->
      let reg = Metrics.create () in
      let eng = engine ~metrics:reg Steno.Fused in
      let p = Steno.Engine.prepare eng q in
      (* The optimized (filter-less) plan was rejected: the preparation
         runs the plan as written. *)
      Alcotest.(check (list int))
        "fallback runs the unoptimized plan" expected
        (Array.to_list (Steno.Prepared.run p));
      Alcotest.(check (list string))
        "no rules survive the rejection" []
        (Steno.Prepared.rewrite_log p);
      Alcotest.(check int) "rejected counted" 1 (verify_count reg "rejected");
      Alcotest.(check int) "nothing accepted" 0
        (verify_count reg "accepted");
      (* The SC012 diagnostic rides on the preparation. *)
      Alcotest.(check bool) "SC012 reported" true
        (List.mem "SC012" (codes (Steno.Prepared.diagnostics p))))

let test_unsound_rewrite_strict_raises () =
  let q = ints data |> Query.where even in
  with_hook (fun () ->
      let reg = Metrics.create () in
      let eng = engine ~strict:true ~metrics:reg Steno.Fused in
      (match Steno.Engine.prepare eng q with
      | exception Steno.Check_failed errs ->
        Alcotest.(check (list string)) "SC012 error" [ "SC012" ] (codes errs)
      | _ -> Alcotest.fail "strict engine accepted an unsound rewrite");
      Alcotest.(check int) "rejected counted" 1 (verify_count reg "rejected");
      (* try_prepare reports the same refusal as a value. *)
      match Steno.Engine.try_prepare eng q with
      | Error (Steno.Engine.Check_error errs) ->
        Alcotest.(check (list string)) "try_prepare SC012" [ "SC012" ]
          (codes errs)
      | Ok _ -> Alcotest.fail "try_prepare accepted an unsound rewrite"
      | Error _ -> Alcotest.fail "wrong refusal kind")

(* Explain and verify read the front half a prepare runs: under the
   unsound rewrite they show the plan as written, the SC012 rejection
   and the failed obligation, and count nothing on the engine. *)
let test_inspection_under_rejection () =
  let q = ints data |> Query.where even in
  with_hook (fun () ->
      let reg = Metrics.create () in
      let eng = engine ~metrics:reg Steno.Fused in
      let ex = Steno.Engine.explain eng q in
      Alcotest.(check string)
        "plan after is the plan before" ex.Steno.Engine.quil_before
        ex.Steno.Engine.quil_after;
      Alcotest.(check (list string)) "no rules" [] ex.Steno.Engine.rules;
      Alcotest.(check bool) "SC012 explained" true
        (List.mem "SC012" (codes ex.Steno.Engine.diagnostics));
      let obs = Steno.Engine.verify eng q in
      Alcotest.(check bool) "obligations rejected" false
        (Check.Equiv.accepted obs);
      Alcotest.(check bool) "the unsound rule failed" true
        (List.exists
           (fun o ->
             o.Check.Equiv.o_rule = "where-const-true"
             && not o.Check.Equiv.o_ok)
           obs);
      Alcotest.(check int) "nothing counted" 0
        (verify_count reg "rejected" + verify_count reg "accepted");
      (* A prepare discharges (and counts) exactly these obligations. *)
      let p = Steno.Engine.prepare eng q in
      Alcotest.(check int) "prepare counts its rejection" 1
        (verify_count reg "rejected");
      Alcotest.(check (list string))
        "explain's rules are the prepare's" ex.Steno.Engine.rules
        (Steno.Prepared.rewrite_log p))

let test_sound_rewrites_accepted () =
  let reg = Metrics.create () in
  let eng = engine ~metrics:reg Steno.Fused in
  let q = ints data |> Query.where even |> Query.where even in
  let p = Steno.Engine.prepare eng q in
  Alcotest.(check (list string))
    "fused filters" [ "where-fuse" ]
    (Steno.Prepared.rewrite_log p);
  Alcotest.(check int) "accepted counted" 1 (verify_count reg "accepted");
  Alcotest.(check int) "nothing rejected" 0 (verify_count reg "rejected");
  Alcotest.(check bool) "no SC012" false
    (List.mem "SC012" (codes (Steno.Prepared.diagnostics p)));
  (* The engine's verify entry point discharges the same obligations. *)
  let obs = Steno.Engine.verify eng q in
  Alcotest.(check bool) "obligations discharged" true
    (Check.Equiv.accepted obs);
  Alcotest.(check bool) "where-fuse among them" true
    (List.exists (fun o -> o.Check.Equiv.o_rule = "where-fuse") obs)

(* Sabotaged side conditions: with every law rewritten to fail, sound
   plans are rejected — the engine really consults the table. *)
let test_broken_law_table_rejects () =
  let broken =
    List.map
      (fun (l : Check.Equiv.law) ->
        { l with Check.Equiv.l_check = (fun _ -> Error "sabotaged") })
      Check.Equiv.laws
  in
  let q = Query.Rows (ints data |> Query.where even |> Query.where even) in
  let q', events = Opt.plan_ev q in
  let good = Check.Equiv.validate ~before:q ~after:q' events in
  Alcotest.(check bool) "default table accepts" true
    (Check.Equiv.accepted good);
  let bad =
    Check.Equiv.validate ~laws:broken ~before:q ~after:q' events
  in
  Alcotest.(check bool) "broken table rejects" false
    (Check.Equiv.accepted bad);
  Alcotest.(check bool) "failure names the rule" true
    (List.exists
       (fun line ->
         String.length line >= 10 && String.sub line 0 10 = "where-fuse")
       (Check.Equiv.failures bad));
  (* An event for a rule with no law at all is rejected too. *)
  let phantom =
    Check.Equiv.validate ~before:q ~after:q'
      [ { Opt.ev_rule = "no-such-rule"; ev_facts = [] } ]
  in
  Alcotest.(check bool) "unknown rule rejected" false
    (Check.Equiv.accepted phantom)

(* {2 Property suite: validated pipelines mean what they meant} *)

let interpreted = [ Steno.Linq; Steno.Fused ]

(* Every pipeline from [Plan_gen.redundant] must (a) discharge all its obligations and
   (b) compute the Reference answer on every backend with the optimizer
   on.  Interpreted backends take the full 200 cases... *)
let random_validated_differential =
  QCheck.Test.make
    ~name:"validated pipelines match reference (linq, fused)" ~count:200
    (QCheck.make Plan_gen.redundant) (fun q ->
      let eng0 = engine Steno.Fused in
      let obs = Steno.Engine.verify eng0 q in
      Check.Equiv.accepted obs
      && List.for_all
           (fun b ->
             Steno.Engine.to_list (engine b) q = Reference.to_list q)
           interpreted)

(* ...while the Native backend, paying a real compile per case, checks a
   thinner slice of the same generator. *)
let random_validated_differential_native =
  QCheck.Test.make
    ~name:"validated pipelines match reference (native)" ~count:12
    (QCheck.make Plan_gen.redundant) (fun q ->
      if not (Steno.native_available ()) then true
      else begin
        Steno.Engine.to_list (engine Steno.Native) q = Reference.to_list q
      end)

(* Scalar pipelines through the one scalar rule. *)
let random_scalar_any =
  QCheck.Test.make ~name:"validated Any pipelines match reference"
    ~count:100
    (QCheck.make Plan_gen.redundant_source) (fun src ->
      let sq = Query.any src in
      let eng0 = engine Steno.Fused in
      Check.Equiv.accepted (Steno.Engine.verify_scalar eng0 sq)
      && List.for_all
           (fun b -> Steno.Engine.scalar (engine b) sq = Reference.scalar sq)
           interpreted)

let () =
  Alcotest.run "verify"
    [
      ( "rejection",
        [
          Alcotest.test_case "unsound rewrite falls back" `Quick
            test_unsound_rewrite_rejected;
          Alcotest.test_case "strict raises" `Quick
            test_unsound_rewrite_strict_raises;
          Alcotest.test_case "explain and verify under rejection" `Quick
            test_inspection_under_rejection;
          Alcotest.test_case "sound rewrites accepted" `Quick
            test_sound_rewrites_accepted;
          Alcotest.test_case "broken law table" `Quick
            test_broken_law_table_rejects;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest random_validated_differential;
          QCheck_alcotest.to_alcotest random_validated_differential_native;
          QCheck_alcotest.to_alcotest random_scalar_any;
        ] );
    ]
