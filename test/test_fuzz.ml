(* The fuzz subsystem's own tests: generator determinism and
   function preservation, differential-oracle agreement (including the
   injected-split tie-breaker path), shrinker soundness, bundle round
   trips, and the end-to-end harness with an injected Guard fault. *)

module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Rng = Sim.Rng
module Gen = Fuzz.Gen
module Oracle = Fuzz.Oracle
module Shrink = Fuzz.Shrink
module Bundle = Fuzz.Bundle
module Harness = Fuzz.Harness

let lib = Gatelib.Library.lib2
let cell name = Gatelib.Library.find lib name

let counter_value name =
  match Obs.Metrics.find name with Some (`Counter n) -> n | _ -> 0

(* PO equivalence on a shared exhaustive/random pattern set. *)
let equivalent a b =
  let words = 16 in
  let ea = Engine.create a ~words and eb = Engine.create b ~words in
  let npis = List.length (Circuit.pis a) in
  if 1 lsl npis <= 64 * words then begin
    Engine.exhaustive ea;
    Engine.exhaustive eb
  end
  else begin
    Engine.randomize ea (Rng.stream 99L "test/equiv");
    Engine.randomize eb (Rng.stream 99L "test/equiv")
  end;
  Engine.equivalent_on_patterns ea eb

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_spec_deterministic () =
  let s1 = Gen.spec_of_seed 42L and s2 = Gen.spec_of_seed 42L in
  Alcotest.(check bool) "same seed, same spec" true (s1 = s2);
  let c1 = Gen.generate s1 and c2 = Gen.generate s2 in
  Alcotest.(check string) "same seed, same netlist"
    (Blif.Blif_io.circuit_to_string c1)
    (Blif.Blif_io.circuit_to_string c2);
  let s3 = Gen.spec_of_seed 43L in
  Alcotest.(check bool) "different seed, different spec" true (s1 <> s3)

let test_generator_validates () =
  for i = 0 to 11 do
    let spec = Gen.spec_of_seed (Int64.of_int (100 + i)) in
    let c = Gen.generate spec in
    (match Circuit.validate c with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "seed %d: generated circuit invalid: %s" (100 + i) e);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: non-degenerate" (100 + i))
      true
      (Circuit.gate_count c >= 0 && Circuit.pos c <> [])
  done

let test_mutations_preserve_function () =
  for i = 0 to 9 do
    let spec = Gen.spec_of_seed (Int64.of_int (200 + i)) in
    let base = Gen.base spec in
    let mutated = Gen.generate spec in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: mutated = base" (200 + i))
      true (equivalent base mutated)
  done

let test_each_mutation_preserves_function () =
  List.iter
    (fun m ->
      (* a fixed mapped circuit with multi-fanout stems *)
      let spec = Gen.spec_of_seed 7L in
      let c = Gen.base spec in
      let reference = Circuit.clone c in
      let rng = Rng.stream 7L "test/mutation" in
      let applied = Gen.mutate rng c m in
      (match Circuit.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid: %s" (Gen.mutation_name m) e);
      if applied then
        Alcotest.(check bool)
          (Gen.mutation_name m ^ " preserves function")
          true (equivalent reference c))
    Gen.all_mutations

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* Figure 2: reconnecting the EXOR's [a] input to [e = a*b] is the
   paper's known-permissible IS2 substitution; replacing stem [d] by
   the unrelated signal [a] is refuted. *)
let test_oracle_agrees_on_fig2 () =
  let c, a, _, _, d, e, _ = Build.fig2_a () in
  let good =
    { Powder.Subst.target = Powder.Subst.Branch { sink = d; pin = 0 };
      source = Powder.Subst.Signal e }
  in
  let r = Oracle.check c good in
  Alcotest.(check bool) "no split on permissible" false r.Oracle.split;
  Alcotest.(check bool) "verdict yes" true (r.Oracle.final = Oracle.Yes);
  let bad =
    { Powder.Subst.target = Powder.Subst.Stem d;
      source = Powder.Subst.Signal a }
  in
  let r = Oracle.check c bad in
  Alcotest.(check bool) "no split on refuted" false r.Oracle.split;
  Alcotest.(check bool) "verdict no" true (r.Oracle.final = Oracle.No);
  Alcotest.(check bool) "counterexample replayed" false r.Oracle.bad_cex

let test_oracle_agrees_on_fuzzed () =
  let seen = ref 0 in
  for i = 0 to 5 do
    let spec = Gen.spec_of_seed (Int64.of_int (300 + i)) in
    let c = Gen.generate spec in
    let eng = Engine.create c ~words:4 in
    Engine.randomize eng (Rng.stream (Int64.of_int i) "test/pat");
    let est = Power.Estimator.create eng in
    let cands =
      Powder.Candidates.generate
        ~config:
          { Powder.Candidates.classes = Powder.Subst.all_klasses;
            per_target = 2; pool_limit = 16; require_positive = false;
            index = Powder.Candidates.Hash }
        est
    in
    List.iteri
      (fun j (s, _) ->
        if j < 3 && not (Powder.Subst.creates_cycle c s) then begin
          incr seen;
          let r = Oracle.check c s in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d cand %d: backends agree" (300 + i) j)
            false r.Oracle.split
        end)
      cands
  done;
  Alcotest.(check bool) "exercised some candidates" true (!seen > 0)

(* Satellite: on a reconvergent 14-PI circuit the exhaustive backend
   abstains, so a flipped SAT verdict splits the decided backends and
   must be settled by the forced-exhaustive tie-breaker, visibly in the
   fuzz/oracle_split counter. *)
let test_oracle_split_tiebreak_wide () =
  let aig = Circuits.Generators.comparator ~width:7 in
  let c = Mapper.Techmap.map lib aig in
  Alcotest.(check bool) "wide enough" true (List.length (Circuit.pis c) >= 14);
  (* a duplicated gate gives a trivially permissible stem substitution *)
  let g =
    match Circuit.live_gates c with
    | g :: _ -> g
    | [] -> Alcotest.fail "no gates"
  in
  let dup = Circuit.add_cell c (Circuit.cell_of c g) (Circuit.fanins c g) in
  let s =
    { Powder.Subst.target = Powder.Subst.Stem g;
      source = Powder.Subst.Signal dup }
  in
  let splits0 = counter_value "fuzz/oracle_split" in
  let tiebreaks0 = counter_value "fuzz/oracle_tiebreak" in
  let r = Oracle.check c s in
  Alcotest.(check bool) "sanity: no split unflipped" false r.Oracle.split;
  Alcotest.(check bool) "exhaustive abstained" true
    (List.assoc Oracle.Exhaustive r.Oracle.verdicts = Oracle.Abstain);
  Oracle.inject_flip Oracle.Sat;
  let r = Oracle.check c s in
  Oracle.clear_injection ();
  Alcotest.(check bool) "flipped sat splits" true r.Oracle.split;
  Alcotest.(check bool) "resolved by exhaustive tie-breaker" true
    (r.Oracle.resolved_by = Some Oracle.Exhaustive);
  Alcotest.(check bool) "tie-breaker restores truth" true
    (r.Oracle.final = Oracle.Yes);
  Alcotest.(check int) "fuzz/oracle_split counted" (splits0 + 1)
    (counter_value "fuzz/oracle_split");
  Alcotest.(check int) "fuzz/oracle_tiebreak counted" (tiebreaks0 + 1)
    (counter_value "fuzz/oracle_tiebreak")

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_preserves_predicate () =
  let spec = Gen.spec_of_seed 11L in
  let c = Gen.generate spec in
  (* failure = "some xor2/xnor2 gate is present"; absent from some
     circuits, so fall back to plain and2 which the library guarantees *)
  let has_cell names cand =
    List.exists
      (fun g ->
        List.mem (Circuit.cell_of cand g).Gatelib.Cell.name names)
      (Circuit.live_gates cand)
  in
  let names =
    if has_cell [ "xor2"; "xnor2" ] c then [ "xor2"; "xnor2" ]
    else [ (Circuit.cell_of c (List.hd (Circuit.live_gates c))).Gatelib.Cell.name ]
  in
  let failing cand = has_cell names cand in
  let shrunk, st = Shrink.minimize ~failing c in
  Alcotest.(check bool) "predicate still fails" true (failing shrunk);
  Alcotest.(check bool) "valid after shrink" true
    (Circuit.validate shrunk = Ok ());
  Alcotest.(check bool) "did not grow" true
    (st.Shrink.final_gates <= st.Shrink.initial_gates);
  Alcotest.(check int) "stats consistent" st.Shrink.final_gates
    (Circuit.gate_count shrunk)

let test_shrink_reaches_minimum () =
  let spec = Gen.spec_of_seed 12L in
  let c = Gen.generate spec in
  let failing cand = Circuit.gate_count cand >= 1 in
  let shrunk, st = Shrink.minimize ~failing c in
  Alcotest.(check bool) "shrinks a trivial predicate hard" true
    (Circuit.gate_count shrunk <= 2);
  Alcotest.(check bool) "counted steps" true (st.Shrink.steps > 0)

let test_shrink_non_failing_unchanged () =
  let spec = Gen.spec_of_seed 13L in
  let c = Gen.generate spec in
  let shrunk, st = Shrink.minimize ~failing:(fun _ -> false) c in
  Alcotest.(check int) "no steps" 0 st.Shrink.steps;
  Alcotest.(check string) "unchanged"
    (Blif.Blif_io.circuit_to_string c)
    (Blif.Blif_io.circuit_to_string shrunk)

let test_restrict_pos_keeps_cone () =
  (* two POs: keep one, its function must be untouched *)
  let c = Circuit.create lib in
  let a = Circuit.add_pi c ~name:"a" in
  let b = Circuit.add_pi c ~name:"b" in
  let x = Circuit.add_cell c ~name:"x" (cell "and2") [| a; b |] in
  let y = Circuit.add_cell c ~name:"y" (cell "or2") [| a; b |] in
  ignore (Circuit.add_po c ~name:"po_x" x);
  ignore (Circuit.add_po c ~name:"po_y" y);
  let r = Shrink.restrict_pos c [ "po_x" ] in
  Alcotest.(check bool) "valid" true (Circuit.validate r = Ok ());
  Alcotest.(check int) "one po" 1 (List.length (Circuit.pos r));
  Alcotest.(check int) "or2 cone dropped" 1 (Circuit.gate_count r);
  let e = Engine.create r ~words:1 and e0 = Engine.create c ~words:1 in
  Engine.exhaustive e;
  Engine.exhaustive e0;
  let x' = Option.get (Circuit.find_by_name r "x") in
  Alcotest.(check int) "kept cone is still a*b" (Engine.count_ones e0 x)
    (Engine.count_ones e x')

(* ------------------------------------------------------------------ *)
(* Bundles                                                             *)
(* ------------------------------------------------------------------ *)

let test_bundle_roundtrip () =
  let spec = Gen.spec_of_seed 21L in
  let c = Gen.generate spec in
  let b =
    { Bundle.campaign_seed = 21L;
      case_seed = Rng.derive 21L "case-0";
      case = 0;
      kind = "oracle_split";
      detail = "unit test";
      injected = Some "forge_verdict";
      blif = Blif.Blif_io.circuit_to_string c;
      original_gates = Circuit.gate_count c;
      shrunk_gates = Circuit.gate_count c;
      shrink_steps = 0 }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fuzz-bundle-test" in
  let path = Bundle.save ~dir b in
  (match Bundle.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok b' ->
    Alcotest.(check bool) "fields round-trip" true (b = b');
    (match Bundle.circuit b' with
    | Error e -> Alcotest.failf "embedded BLIF unusable: %s" e
    | Ok c' ->
      Alcotest.(check int) "same gates" (Circuit.gate_count c)
        (Circuit.gate_count c')));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let test_harness_clean_campaign () =
  let cases0 = counter_value "fuzz/cases" in
  let r =
    Harness.run
      { Harness.default_config with
        seed = 5L; cases = 4; budget_seconds = Some 30.0 }
  in
  Alcotest.(check int) "ran all cases" 4 r.Harness.cases_run;
  Alcotest.(check int) "no failures" 0 (List.length r.Harness.failures);
  Alcotest.(check int) "no splits" 0 r.Harness.oracle_splits;
  Alcotest.(check bool) "checked some verdicts" true (r.Harness.checks > 0);
  Alcotest.(check int) "fuzz/cases counted" (cases0 + 4)
    (counter_value "fuzz/cases")

let test_harness_catches_injected_fault () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "fuzz-inject-test"
  in
  let r =
    Harness.run
      { Harness.default_config with
        seed = 1L;
        cases = 4;
        budget_seconds = Some 45.0;
        out_dir = Some dir;
        inject = Some Powder.Guard.Forge_verdict }
  in
  Alcotest.(check bool) "injected fault caught" true r.Harness.injected_caught;
  let f =
    match
      List.filter
        (fun (f : Harness.failure) -> f.Harness.kind = "injected_corruption")
        r.Harness.failures
    with
    | [ f ] -> f
    | l -> Alcotest.failf "expected 1 injected_corruption, got %d" (List.length l)
  in
  Alcotest.(check bool) "shrunk to <= 20 gates" true (f.Harness.gates <= 20);
  let path =
    match f.Harness.bundle_path with
    | Some p -> p
    | None -> Alcotest.fail "no bundle written"
  in
  (match Harness.replay path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bundle did not replay: %s" e);
  Sys.remove path

(* A failing metamorphic identity of candidate generation is a finding,
   not a crash: the campaign classifies it, shrinks the witness and
   writes a bundle that replays (while the identity still fails). *)
let test_harness_classifies_identity_failure () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "fuzz-identity-test"
  in
  Harness.inject_identity_fault ();
  let r =
    Fun.protect ~finally:Harness.clear_identity_fault (fun () ->
        Harness.run
          { Harness.default_config with
            seed = 1L; cases = 1; budget_seconds = Some 45.0; out_dir = Some dir })
  in
  let f =
    match
      List.filter
        (fun (f : Harness.failure) -> f.Harness.kind = "candidates_identity")
        r.Harness.failures
    with
    | [ f ] -> f
    | l -> Alcotest.failf "expected 1 candidates_identity, got %d" (List.length l)
  in
  Alcotest.(check bool) "shrunk" true (f.Harness.shrink_steps > 0);
  let path =
    match f.Harness.bundle_path with
    | Some p -> p
    | None -> Alcotest.fail "no bundle written"
  in
  Harness.inject_identity_fault ();
  let replayed =
    Fun.protect ~finally:Harness.clear_identity_fault (fun () -> Harness.replay path)
  in
  (match replayed with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bundle did not replay: %s" e);
  Sys.remove path

let test_harness_budget_respected () =
  let t0 = Obs.Clock.now () in
  let r =
    Harness.run
      { Harness.default_config with seed = 9L; budget_seconds = Some 1.0 }
  in
  let elapsed = Obs.Clock.now () -. t0 in
  Alcotest.(check bool) "made progress" true (r.Harness.cases_run >= 1);
  (* one in-flight case may overrun the deadline, but not by much *)
  Alcotest.(check bool) "stopped near the budget" true (elapsed < 20.0)

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "spec and netlist are seed-deterministic" `Quick
          test_spec_deterministic;
        Alcotest.test_case "generated circuits validate" `Quick
          test_generator_validates;
        Alcotest.test_case "mutation pipeline preserves function" `Quick
          test_mutations_preserve_function;
        Alcotest.test_case "each mutation preserves function" `Quick
          test_each_mutation_preserves_function;
        Alcotest.test_case "oracle agrees on fig2 verdicts" `Quick
          test_oracle_agrees_on_fig2;
        Alcotest.test_case "oracle agrees on fuzzed candidates" `Quick
          test_oracle_agrees_on_fuzzed;
        Alcotest.test_case "injected split resolves via exhaustive tie-break"
          `Quick test_oracle_split_tiebreak_wide;
        Alcotest.test_case "shrinker preserves the failure" `Quick
          test_shrink_preserves_predicate;
        Alcotest.test_case "shrinker reaches a minimal form" `Quick
          test_shrink_reaches_minimum;
        Alcotest.test_case "shrinker leaves non-failures alone" `Quick
          test_shrink_non_failing_unchanged;
        Alcotest.test_case "restrict_pos keeps the chosen cone" `Quick
          test_restrict_pos_keeps_cone;
        Alcotest.test_case "bundles round-trip through JSON" `Quick
          test_bundle_roundtrip;
        Alcotest.test_case "clean campaign finds nothing" `Quick
          test_harness_clean_campaign;
        Alcotest.test_case "injected guard fault is caught, shrunk, replayable"
          `Quick test_harness_catches_injected_fault;
        Alcotest.test_case "failed candidate identity is classified" `Quick
          test_harness_classifies_identity_failure;
        Alcotest.test_case "campaign respects its budget" `Quick
          test_harness_budget_respected;
      ] );
  ]
