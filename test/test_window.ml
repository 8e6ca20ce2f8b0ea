(* Windowed permissibility: extraction invariants, the windowed-vs-
   global differential over a large fuzz population (a window [Proved]
   claims global soundness, so it must never contradict a decided
   global refutation), and the forged-verdict resilience leg. *)

module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Rng = Sim.Rng
module Gen = Fuzz.Gen
module Oracle = Fuzz.Oracle
module Window = Atpg.Window
module Check = Powder.Check
module Subst = Powder.Subst

(* Candidate generation mirroring the fuzz harness: signature-matched
   substitutions over a private random pattern set. *)
let candidates_of ~seed c k =
  let eng = Engine.create c ~words:4 in
  Engine.randomize eng (Rng.stream seed "fuzz/pat");
  let est = Power.Estimator.create eng in
  let cfg =
    {
      Powder.Candidates.classes = Subst.all_klasses;
      per_target = 2;
      pool_limit = 30;
      require_positive = false;
      index = Powder.Candidates.Hash;
    }
  in
  let all = Powder.Candidates.generate ~config:cfg est in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k all

let case_circuit i =
  let seed = Rng.derive 424242L (Printf.sprintf "window-case-%d" i) in
  (seed, Gen.generate (Gen.spec_of_seed seed))

(* ------------------------------------------------------------------ *)
(* Extraction invariants                                               *)
(* ------------------------------------------------------------------ *)

let test_extract_invariants () =
  let windows = ref 0 in
  for i = 0 to 39 do
    let _, c = case_circuit i in
    List.iter
      (fun id ->
        match Circuit.kind c id with
        | Circuit.Cell _ when Circuit.num_fanouts c id > 0 -> (
          match
            Window.extract c ~roots:[ id ] ~support:[ id ] ~max_cut:6
              ~max_volume:60
          with
          | None -> ()
          | Some w ->
            incr windows;
            Alcotest.(check bool)
              "cut within the overflow bound" true
              (Window.cut_size w <= 12);
            Alcotest.(check bool)
              "root is internal" true (Window.is_internal w id);
            (* every internal fanin is internal or on the cut *)
            Array.iter
              (fun n ->
                Array.iter
                  (fun f ->
                    let ok =
                      Window.is_internal w f
                      || Array.exists (fun x -> x = f) w.Window.cut
                    in
                    Alcotest.(check bool) "closed under fanin" true ok)
                  (Circuit.fanins c n))
              w.Window.order;
            (* escapes are changed nodes *)
            Array.iter
              (fun e ->
                Alcotest.(check bool) "escape is changed" true
                  (Window.is_changed w e))
              w.Window.escapes)
        | _ -> ())
      (Circuit.live_gates c)
  done;
  Alcotest.(check bool) "extracted a real population" true (!windows > 100)

(* ------------------------------------------------------------------ *)
(* Windowed-vs-global differential                                     *)
(* ------------------------------------------------------------------ *)

(* >= 200 fuzz netlists; every window [Proved] is cross-checked against
   the three-backend global oracle.  Zero mismatches allowed. *)
let test_differential_200 () =
  let proved = ref 0 and escalated = ref 0 and mismatches = ref 0 in
  for i = 0 to 219 do
    let seed, c = case_circuit i in
    List.iter
      (fun (s, _) ->
        if not (Subst.creates_cycle c s) then
          match Check.windowed ~max_cut:8 c s with
          | Check.W_escalated _ -> incr escalated
          | Check.W_proved ->
            incr proved;
            let r = Oracle.check c s in
            if r.Oracle.final = Oracle.No && not r.Oracle.split then begin
              incr mismatches;
              Printf.eprintf "case %d: window proved, oracle refuted: %s\n" i
                (Subst.describe c s)
            end)
      (candidates_of ~seed c 6)
  done;
  Alcotest.(check int) "zero windowed-vs-global mismatches" 0 !mismatches;
  (* the run must actually exercise the prover, not just escalate *)
  Alcotest.(check bool)
    (Printf.sprintf "window proofs happen (%d proved, %d escalated)" !proved
       !escalated)
    true
    (!proved > 200 && !escalated > 0)

(* ------------------------------------------------------------------ *)
(* Forged-verdict leg                                                  *)
(* ------------------------------------------------------------------ *)

(* Arm the one-shot forge so the window prover lies (a real window
   refutation becomes [Proved]).  A forge consumed on a spurious window
   counterexample is harmless by luck — the candidate really was
   permissible — so re-arm until the differential catches an actual
   lie.  The differential MUST catch it; if it never does, the guard
   layer is dead code and this test fails. *)
let test_forged_verdict_caught () =
  let caught = ref false in
  let i = ref 0 in
  while (not !caught) && !i < 400 do
    let seed, c = case_circuit !i in
    Window.inject_forge ();
    List.iter
      (fun (s, _) ->
        if not (Subst.creates_cycle c s) then
          match Check.windowed ~max_cut:8 c s with
          | Check.W_escalated _ -> ()
          | Check.W_proved ->
            let r = Oracle.check c s in
            if r.Oracle.final = Oracle.No && not r.Oracle.split then
              caught := true)
      (candidates_of ~seed c 6);
    incr i
  done;
  Window.clear_forge ();
  Alcotest.(check bool)
    (Printf.sprintf "forged window verdict caught (within %d cases)" !i)
    true !caught

let test_forge_arm_clear () =
  Alcotest.(check bool) "disarmed at rest" false (Window.forge_armed ());
  Window.inject_forge ();
  Alcotest.(check bool) "armed after inject" true (Window.forge_armed ());
  Window.clear_forge ();
  Alcotest.(check bool) "disarmed after clear" false (Window.forge_armed ())

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* The windowed verdict is a pure function of (circuit, substitution,
   cut budget): re-running yields the identical verdict, and the
   extraction does not mutate the circuit. *)
let test_windowed_deterministic () =
  for i = 0 to 19 do
    let seed, c = case_circuit i in
    let before = Blif.Blif_io.circuit_to_string c in
    List.iter
      (fun (s, _) ->
        if not (Subst.creates_cycle c s) then begin
          let v1 = Check.windowed ~max_cut:8 c s in
          let v2 = Check.windowed ~max_cut:8 c s in
          Alcotest.(check bool) "same verdict on re-run" true (v1 = v2)
        end)
      (candidates_of ~seed c 6);
    Alcotest.(check string) "circuit untouched" before
      (Blif.Blif_io.circuit_to_string c)
  done

let suite =
  [
    ( "window",
      [
        Alcotest.test_case "extract invariants" `Quick test_extract_invariants;
        Alcotest.test_case "windowed deterministic" `Quick
          test_windowed_deterministic;
        Alcotest.test_case "forge arm/clear" `Quick test_forge_arm_clear;
        Alcotest.test_case "differential vs global oracle (200+ netlists)"
          `Slow test_differential_200;
        Alcotest.test_case "forged verdict caught" `Slow
          test_forged_verdict_caught;
      ] );
  ]
