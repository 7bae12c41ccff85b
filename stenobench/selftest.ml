(* Self-checks for the benchmark's own parts: the percentile rule and the
   query generator.  Run with

     dune exec stenobench/selftest.exe

   It exits non-zero on the first failed check. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50"
    (match Stats.percentile 0.5 xs with
    | Ok p -> p.Stats.value = 50. && p.Stats.n = 100
    | Error _ -> false);
  check "p90 of 1..100 is 90 (10 beyond)"
    (match Stats.percentile 0.9 xs with
    | Ok p -> p.Stats.value = 90.
    | Error _ -> false);
  check "p99 of 100 samples is refused"
    (Result.is_error (Stats.percentile 0.99 xs));
  check "p50 of 19 samples is refused"
    (Result.is_error (Stats.percentile 0.5 (Array.make 19 1.)));
  check "p50 of 20 samples is allowed"
    (Result.is_ok (Stats.percentile 0.5 (Array.make 20 1.)));
  check "geomean of 1 and 4 is 2" (Float.abs (Stats.geomean [| 1.; 4. |] -. 2.) < 1e-12)

let generator () =
  let texts seed = List.init 20 (fun i -> Gen.source (Gen.draw ~seed i)) in
  check "same seed, same plan text" (texts 7 = texts 7);
  check "different seeds, different plan text" (texts 7 <> texts 8);
  let distinct =
    List.sort_uniq compare (List.init 50 (fun i -> Gen.source (Gen.draw ~seed:3 i)))
  in
  check "draws of one stream never share plan text" (List.length distinct = 50);
  let eng = Steno.Engine.create Steno.Config.(default |> with_backend Steno.Fused) in
  let agree =
    List.init 200 (fun i -> Oracle.agrees eng (Gen.draw ~seed:11 (i - 10)))
    |> List.for_all Fun.id
  in
  check "200 draws (set-up draws too) agree with Reference on Fused" agree

let () =
  percentiles ();
  generator ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
