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

(* Arm the one-shot forge so the window check lies (a real window
   counterexample becomes [W_proved]).  A forge consumed on a spurious window
   counterexample is harmless by luck — the candidate really was
   permissible — so re-arm until the differential catches an actual
   lie.  The differential MUST catch it; if it never does, the guard
   layer is dead code and this test fails. *)
let test_forged_verdict_caught () =
  let caught = ref false in
  let i = ref 0 in
  while (not !caught) && !i < 400 do
    let seed, c = case_circuit !i in
    Check.inject_window_forge ();
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
  Check.clear_window_forge ();
  Alcotest.(check bool)
    (Printf.sprintf "forged window verdict caught (within %d cases)" !i)
    true !caught

let test_forge_arm_clear () =
  Alcotest.(check bool) "disarmed at rest" false (Check.window_forge_armed ());
  Check.inject_window_forge ();
  Alcotest.(check bool) "armed after inject" true (Check.window_forge_armed ());
  Check.clear_window_forge ();
  Alcotest.(check bool) "disarmed after clear" false (Check.window_forge_armed ())

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

(* A window proof is sound and an escalated window hands its candidate
   to the same global check, so where the global engine gives nothing
   up, [--window 16] and [--window off] accept the same substitutions:
   the same netlist, and reports that differ only in the [window_*]
   funnel counters and the [window/*] escalation reasons. *)
let test_window_matches_off () =
  let rec strip = function
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             let window =
               String.starts_with ~prefix:"window_" k
               || String.starts_with ~prefix:"window/" k
             in
             if window || List.mem k [ "cpu_seconds"; "phase_seconds"; "jobs" ]
             then None
             else Some (k, strip v))
           fields)
    | Obs.Json.List l -> Obs.Json.List (List.map strip l)
    | other -> other
  in
  List.iter
    (fun name ->
      let run window =
        let c =
          match Circuits.Suite.find name with
          | Some spec -> Circuits.Suite.mapped spec
          | None -> Alcotest.failf "%s not in the suite" name
        in
        let config =
          { Powder.Optimizer.default_config with max_rounds = 3; window }
        in
        let r = Powder.Optimizer.optimize ~config c in
        (r, Blif.Blif_io.circuit_to_string c)
      in
      let rw, bw = run (Some 16) and ro, bo = run None in
      Alcotest.(check (list (pair string int)))
        (name ^ ": the off run gives nothing up") []
        ro.Powder.Optimizer.giveup_breakdown;
      Alcotest.(check bool) (name ^ ": the window decides some checks") true
        (rw.Powder.Optimizer.funnel.Powder.Optimizer.window_proved > 0);
      Alcotest.(check string) (name ^ ": same netlist") bo bw;
      let json r = Obs.Json.to_string (strip (Powder.Optimizer.report_to_json r)) in
      Alcotest.(check string) (name ^ ": same report") (json ro) (json rw))
    [ "C880"; "cps" ]

(* ------------------------------------------------------------------ *)
(* Verdict pin                                                         *)
(* ------------------------------------------------------------------ *)

(* The window's search is pinned: every [Check.windowed] call over the
   first-round candidates of C880, cps and synth:2000, at cut budgets 8
   and 16, digested in order as its verdict, whether it reached the SAT
   solver, and the conflicts that solve spent.  The SAT-decided windows
   and the five 2,000-conflict give-ups make the digest sensitive to the
   variable and clause order of the window's CNF. *)
let test_window_verdict_pin () =
  let counter name =
    match Obs.Metrics.find name with
    | Some (`Counter c) -> c
    | Some (`Gauge _ | `Histogram _) | None -> 0
  in
  let circuit name =
    if name = "synth:2000" then Circuits.Generators.synth ~seed:1 ~gates:2000
    else
      match Circuits.Suite.find name with
      | Some spec -> Circuits.Suite.mapped spec
      | None -> Alcotest.failf "%s not in the suite" name
  in
  let buf = Buffer.create (1 lsl 16) in
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  List.iter
    (fun name ->
      let c = circuit name in
      let eng = Engine.create c ~words:8 in
      Engine.randomize eng (Rng.create 5L);
      let cands = Powder.Candidates.generate (Power.Estimator.create eng) in
      List.iter
        (fun max_cut ->
          List.iter
            (fun (s, _) ->
              if not (Subst.creates_cycle c s) then begin
                let s0 = counter "atpg.sat.solves"
                and c0 = counter "atpg.sat.conflicts" in
                let v =
                  match Check.windowed ~max_cut c s with
                  | Check.W_proved -> "proved"
                  | Check.W_escalated r -> Check.escalation_name r
                in
                let sat = counter "atpg.sat.solves" > s0 in
                bump v;
                if sat then bump "sat";
                Printf.bprintf buf "%s %d %s %b %d\n" name max_cut v sat
                  (counter "atpg.sat.conflicts" - c0)
              end)
            cands)
        [ 8; 16 ])
    [ "C880"; "cps"; "synth:2000" ];
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check (list (pair string int)))
    "verdicts per reason"
    [ ("proved", 2102); ("cex", 4968); ("overflow", 2223); ("giveup", 5); ("sat", 4334) ]
    (List.map (fun k -> (k, count k)) [ "proved"; "cex"; "overflow"; "giveup"; "sat" ]);
  Alcotest.(check string) "verdict digest" "52a92091d0008218cf975cdd4b798d7e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    ( "window",
      [
        Alcotest.test_case "extract invariants" `Quick test_extract_invariants;
        Alcotest.test_case "windowed deterministic" `Quick
          test_windowed_deterministic;
        Alcotest.test_case "forge arm/clear" `Quick test_forge_arm_clear;
        Alcotest.test_case "--window 16 == off without give-ups" `Quick
          test_window_matches_off;
        Alcotest.test_case "differential vs global oracle (200+ netlists)"
          `Slow test_differential_200;
        Alcotest.test_case "forged verdict caught" `Slow
          test_forged_verdict_caught;
        Alcotest.test_case "window verdict pin" `Quick test_window_verdict_pin;
      ] );
  ]
