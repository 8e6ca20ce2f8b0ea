(* Guard layer: transactional applies, fault injection, deadlines,
   degradation and checkpoint/resume. *)

module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Subst = Powder.Subst
module Check = Powder.Check
module Guard = Powder.Guard
module Checkpoint = Powder.Checkpoint
module Optimizer = Powder.Optimizer
module Equiv = Atpg.Equiv

let check_valid what c =
  match Circuit.validate c with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": validate failed: " ^ e)

let check_equiv what a b =
  Alcotest.(check bool) what true (Equiv.check a b = Equiv.Equivalent)

let fig2_is2 c =
  match (Circuit.find_by_name c "d", Circuit.find_by_name c "e") with
  | Some d, Some e ->
    { Subst.target = Subst.Branch { sink = d; pin = 0 }; source = Subst.Signal e }
  | _ -> Alcotest.fail "fig2 nodes missing"

let mapped name =
  match Circuits.Suite.find name with
  | Some spec -> Circuits.Suite.mapped spec
  | None -> Alcotest.fail (name ^ " missing from suite")

(* ------------------------------------------------------------------ *)
(* Journal.                                                            *)
(* ------------------------------------------------------------------ *)

let test_journal_rollback () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let before = Blif.Blif_io.circuit_to_string c in
  Circuit.journal_begin c;
  Alcotest.(check bool) "journal open" true (Circuit.journal_active c);
  (* a branch reconnection, a stem replacement through a fresh inverter
     (alloc + replace_stem), and a gate retype — every op kind *)
  ignore (Subst.apply c (fig2_is2 c));
  let f = Option.get (Circuit.find_by_name c "f") in
  let e = Option.get (Circuit.find_by_name c "e") in
  ignore (Subst.apply c { Subst.target = Subst.Stem f; source = Subst.Inverted e });
  Circuit.set_cell c e (Gatelib.Library.find Build.lib "or2");
  Circuit.journal_rollback c;
  Alcotest.(check bool) "journal closed" false (Circuit.journal_active c);
  check_valid "after rollback" c;
  Alcotest.(check string) "structure restored" before
    (Blif.Blif_io.circuit_to_string c)

let test_journal_commit () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let original = Circuit.clone c in
  Circuit.journal_begin c;
  ignore (Subst.apply c (fig2_is2 c));
  Circuit.journal_commit c;
  Alcotest.(check bool) "journal closed" false (Circuit.journal_active c);
  check_valid "after commit" c;
  check_equiv "IS2 kept and equivalent" original c

(* ------------------------------------------------------------------ *)
(* Transactional apply.                                                *)
(* ------------------------------------------------------------------ *)

let make_verifier c =
  Guard.make_verifier ~seed:42L ~input_probs:(fun _ -> 0.5) c

let test_transactional_apply_commits () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let original = Circuit.clone c in
  let v = make_verifier c in
  (match Guard.transactional_apply v c (fig2_is2 c) with
  | Guard.Applied _ -> ()
  | Guard.Rolled_back e ->
    Alcotest.fail ("unexpected rollback: " ^ Guard.error_name e));
  check_valid "after apply" c;
  check_equiv "permissible apply equivalent" original c;
  Alcotest.(check bool) "journal closed" false (Circuit.journal_active c)

let test_corrupt_apply_rolls_back () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let before = Blif.Blif_io.circuit_to_string c in
  let v = make_verifier c in
  Guard.inject Guard.Corrupt_apply;
  (match Guard.transactional_apply v c (fig2_is2 c) with
  | Guard.Rolled_back Guard.Apply_mismatch -> ()
  | Guard.Rolled_back e -> Alcotest.fail ("wrong error: " ^ Guard.error_name e)
  | Guard.Applied _ -> Alcotest.fail "corrupted apply was committed");
  Guard.clear_injection ();
  check_valid "after rollback" c;
  Alcotest.(check string) "pre-apply structure restored" before
    (Blif.Blif_io.circuit_to_string c);
  (* the verifier resynchronized: the same (uncorrupted) apply passes *)
  match Guard.transactional_apply v c (fig2_is2 c) with
  | Guard.Applied _ -> ()
  | Guard.Rolled_back e ->
    Alcotest.fail ("verifier out of sync: " ^ Guard.error_name e)

(* ------------------------------------------------------------------ *)
(* Fault injection through the whole optimizer.                        *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Optimizer.default_config with words = 4; max_rounds = 3 }

let test_optimizer_survives_corrupt_apply () =
  let c = mapped "rd84" in
  let original = Circuit.clone c in
  Guard.inject Guard.Corrupt_apply;
  let report = Optimizer.optimize ~config:small_config c in
  Guard.clear_injection ();
  Alcotest.(check int) "one rollback" 1 report.Optimizer.funnel.rolled_back;
  check_valid "after run" c;
  check_equiv "final netlist equivalent" original c

let test_optimizer_catches_forged_verdict () =
  (* words = 1 leaves enough signature aliasing that at least one
     candidate is refuted by the exact check; the injection flips that
     refutation to Permissible and the guard must catch the bad apply. *)
  let c = mapped "rd84" in
  let original = Circuit.clone c in
  let config = { Optimizer.default_config with words = 1; max_rounds = 4 } in
  Guard.inject Guard.Forge_verdict;
  let report = Optimizer.optimize ~config c in
  Guard.clear_injection ();
  Alcotest.(check bool) "forged apply rolled back" true
    (report.Optimizer.funnel.rolled_back >= 1);
  check_valid "after run" c;
  check_equiv "final netlist equivalent" original c

let test_optimizer_survives_expired_deadline () =
  let c = mapped "rd84" in
  let original = Circuit.clone c in
  Guard.inject Guard.Expire_deadline;
  let report = Optimizer.optimize ~config:small_config c in
  Guard.clear_injection ();
  Alcotest.(check bool) "timeout counted" true
    (report.Optimizer.funnel.rejected_by_timeout >= 1);
  check_valid "after run" c;
  check_equiv "final netlist equivalent" original c

(* ------------------------------------------------------------------ *)
(* Deadlines and budgets.                                              *)
(* ------------------------------------------------------------------ *)

let test_check_deadline_rejects_cleanly () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let expired = Obs.Deadline.after ~seconds:(-1.0) in
  match Check.permissible ~deadline:expired c (fig2_is2 c) with
  | Check.Gave_up { engine = "check"; limit = "deadline" } -> ()
  | Check.Gave_up { engine; limit } ->
    Alcotest.fail (Printf.sprintf "wrong give-up: %s/%s" engine limit)
  | Check.Permissible | Check.Not_permissible _ ->
    Alcotest.fail "expired deadline produced a verdict"

let test_zero_check_budget_degrades () =
  let c = mapped "rd84" in
  let original = Circuit.clone c in
  let config =
    { Optimizer.default_config with
      words = 4;
      max_rounds = 50;
      check_seconds = Some 0.0;
    }
  in
  let report = Optimizer.optimize ~config c in
  Alcotest.(check string) "stopped by ladder" "degradation"
    report.Optimizer.stopped_by;
  Alcotest.(check int) "ladder exhausted" 3 report.Optimizer.degradation_level;
  Alcotest.(check int) "nothing applied" 0 report.Optimizer.funnel.substitutions;
  Alcotest.(check bool) "timeouts counted" true
    (report.Optimizer.funnel.rejected_by_timeout >= 3);
  check_valid "after run" c;
  check_equiv "netlist untouched" original c

let test_zero_run_budget_stops () =
  let c = mapped "alu2" in
  let original = Circuit.clone c in
  let config =
    { Optimizer.default_config with words = 4; run_seconds = Some 0.0 }
  in
  let report = Optimizer.optimize ~config c in
  Alcotest.(check string) "stopped by run budget" "run_budget"
    report.Optimizer.stopped_by;
  Alcotest.(check int) "nothing applied" 0 report.Optimizer.funnel.substitutions;
  check_valid "after run" c;
  check_equiv "netlist untouched" original c

(* A deep, narrow netlist: a 2-PI chain of XOR2 gates with an inverter
   every third stage.  Every node falls into one of 16 signature
   classes, so generate's scan is quadratic here and one round takes
   many seconds; the run budget must hold inside it. *)
let xor_inv_chain n =
  let lib = Build.lib in
  let c = Circuit.create lib in
  let a = Circuit.add_pi c ~name:"a" and b = Circuit.add_pi c ~name:"b" in
  let xor2 = Gatelib.Library.find lib "xor2" and inv = Gatelib.Library.inverter lib in
  let prev = ref a in
  for i = 1 to n do
    prev :=
      if i mod 3 = 0 then Circuit.add_cell c inv [| !prev |]
      else Circuit.add_cell c xor2 [| !prev; (if i mod 2 = 0 then a else b) |]
  done;
  ignore (Circuit.add_po c ~name:"y" !prev);
  c

let test_run_budget_holds_in_generate () =
  let c = xor_inv_chain 900 in
  let config =
    { Optimizer.default_config with max_rounds = 1; run_seconds = Some 1.0 }
  in
  let t0 = Obs.Clock.now () in
  let report = Optimizer.optimize ~config c in
  let elapsed = Obs.Clock.now () -. t0 in
  Alcotest.(check string) "stopped by run budget" "run_budget"
    report.Optimizer.stopped_by;
  if elapsed >= 5.0 then Alcotest.failf "a 1 s budget ran %.1f s" elapsed;
  check_valid "after run" c

let test_tiny_proof_budget_gives_up () =
  (* conflict/backtrack budgets so small that exact checks cannot
     conclude: the optimizer must degrade gracefully — give-ups counted
     per engine/limit, netlist valid and equivalent, run terminates. *)
  let c = mapped "rd84" in
  let original = Circuit.clone c in
  let config =
    { Optimizer.default_config with
      words = 1;
      max_rounds = 3;
      backtrack_limit = 1;
      exhaustive_limit = 0;
    }
  in
  let report = Optimizer.optimize ~config c in
  Alcotest.(check bool) "give-ups counted" true
    (report.Optimizer.funnel.rejected_by_giveup >= 1);
  List.iter
    (fun (key, n) ->
      Alcotest.(check bool) ("breakdown key " ^ key) true
        (String.contains key '/' && n > 0))
    report.Optimizer.giveup_breakdown;
  let breakdown_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 report.Optimizer.giveup_breakdown
  in
  Alcotest.(check int) "breakdown covers giveups and timeouts"
    (report.Optimizer.funnel.rejected_by_giveup + report.Optimizer.funnel.rejected_by_timeout)
    breakdown_total;
  check_valid "after run" c;
  check_equiv "final netlist equivalent" original c

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume.                                                *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let ck =
    {
      Checkpoint.round = 4;
      status = "running";
      substitutions = 7;
      seed = 0xC0FFEEL;
      blif = ".model mapped\n.inputs a\n.outputs f\n.end\n";
      cex = [ [ ("a", true) ]; [ ("a", false) ] ];
      cex_cursor = 2;
      candidates_generated = 93;
      checks_run = 14;
      rejected_by_delay = 1;
      rejected_by_atpg = 2;
      rejected_by_giveup = 3;
      rejected_by_timeout = 4;
      rejected_by_cex = 5;
      sig_hits = 120;
      sig_filtered = 4500;
      sig_resim_nodes = 321;
      is3_candidates = 2;
      rolled_back = 1;
      verified_applies = 6;
      window_checks = 9;
      window_proved = 5;
      window_escalated = 4;
      giveup_breakdown =
        [ ("sat/conflicts", 2); ("check/deadline", 4); ("window/overflow", 4) ];
      by_class = [ ("OS2", (1, 1.5, 32.0)); ("IS2", (6, 0.25, -3.0)) ];
      initial_power = 61.15178050994873;
      initial_area = 91408.0;
      initial_delay = 13.325999999999999;
      initial_glitch_power = None;
      degradation_level = 1;
    }
  in
  let file = Filename.temp_file "powder_ck" ".json" in
  Checkpoint.save file ck;
  (match Checkpoint.load file with
  | Ok ck' -> Alcotest.(check bool) "round-trips exactly" true (ck = ck')
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  Sys.remove file

let test_checkpoint_load_rejects_garbage () =
  let file = Filename.temp_file "powder_ck" ".json" in
  let oc = open_out file in
  output_string oc "{\"magic\": \"something-else\", \"version\": 1}\n";
  close_out oc;
  (match Checkpoint.load file with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ());
  Sys.remove file

(* One sample checkpoint reused by every typed-error case below. *)
let sample_ck () =
  {
    Checkpoint.round = 1;
    status = "running";
    substitutions = 0;
    seed = 1L;
    blif = ".model m\n.inputs a\n.outputs f\n.end\n";
    cex = [];
    cex_cursor = 0;
    candidates_generated = 0;
    checks_run = 0;
    rejected_by_delay = 0;
    rejected_by_atpg = 0;
    rejected_by_giveup = 0;
    rejected_by_timeout = 0;
    rejected_by_cex = 0;
    sig_hits = 0;
    sig_filtered = 0;
    sig_resim_nodes = 0;
    is3_candidates = 0;
    rolled_back = 0;
    verified_applies = 0;
    window_checks = 0;
    window_proved = 0;
    window_escalated = 0;
    giveup_breakdown = [];
    by_class = [];
    initial_power = 1.0;
    initial_area = 1.0;
    initial_delay = 1.0;
    initial_glitch_power = None;
    degradation_level = 0;
  }

let expect_error name file check =
  match Checkpoint.load file with
  | Ok _ -> Alcotest.fail (name ^ ": damaged checkpoint accepted")
  | Error e ->
    if not (check e) then
      Alcotest.fail (name ^ ": wrong class: " ^ Checkpoint.error_to_string e)

let test_checkpoint_typed_errors () =
  let file = Filename.temp_file "powder_ck" ".json" in
  (* truncation: save a valid checkpoint, cut it in half *)
  Checkpoint.save file (sample_ck ());
  let size = (Unix.stat file).Unix.st_size in
  Unix.truncate file (size / 2);
  expect_error "truncated" file (function
    | Checkpoint.Corrupt _ -> true
    | _ -> false);
  (* empty file *)
  Unix.truncate file 0;
  expect_error "empty" file (function
    | Checkpoint.Corrupt _ -> true
    | _ -> false);
  (* single corrupted byte in the JSON skeleton *)
  Checkpoint.save file (sample_ck ());
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0 in
  ignore (Unix.write_substring fd "\x01" 0 1);
  Unix.close fd;
  expect_error "corrupt byte" file (function
    | Checkpoint.Corrupt _ -> true
    | _ -> false);
  (* schema version from the future *)
  let oc = open_out file in
  output_string oc
    (Printf.sprintf
       "{\"magic\":\"powder-checkpoint\",\"version\":%d}"
       (Checkpoint.version + 1));
  close_out oc;
  expect_error "future version" file (function
    | Checkpoint.Bad_version { found; expected } ->
      found = Checkpoint.version + 1 && expected = Checkpoint.version
    | _ -> false);
  Sys.remove file;
  (* missing file: an I/O error, not a crash *)
  expect_error "missing" file (function
    | Checkpoint.Io _ -> true
    | _ -> false)

let test_checkpoint_save_atomic () =
  let file = Filename.temp_file "powder_ck" ".json" in
  Checkpoint.save file (sample_ck ());
  (* overwrite with a different checkpoint; no .tmp must survive *)
  Checkpoint.save file { (sample_ck ()) with Checkpoint.round = 9 };
  Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (file ^ ".tmp"));
  (match Checkpoint.load file with
  | Ok ck -> Alcotest.(check int) "newest version visible" 9 ck.Checkpoint.round
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  Sys.remove file

let report_json r =
  Obs.Json.to_string (Optimizer.strip_volatile (Optimizer.report_to_json r))

(* Interrupt a checkpointing run at round 2 and resume it to round 4:
   the resumed report (minus its volatile fields) and netlist must be
   the uninterrupted run's.  [~cex] also requires the round-2
   checkpoint to carry counterexamples, so the resume replays a log. *)
let resume_matches ?(half_jobs = 1) ?(resume_jobs = 1) ?(cex = false)
    ?(config = Optimizer.default_config) name =
  let config =
    { config with Optimizer.words = 4; max_rounds = 4; checkpoint_sink = Some ignore }
  in
  (* reference: one uninterrupted checkpointing run (no file needed —
     the barrier a sink puts in every round defines the trajectory) *)
  let c_ref = mapped name in
  let r_ref = Optimizer.optimize ~config c_ref in
  (* interrupted: stop at round 2 with a checkpoint file, then resume
     — possibly at a different job count than either other run *)
  let file = Filename.temp_file "powder_ck" ".json" in
  let c_half = mapped name in
  let _ =
    Optimizer.optimize
      ~config:
        { config with
          jobs = half_jobs;
          max_rounds = 2;
          checkpoint_sink = Some (Checkpoint.save file);
        }
      c_half
  in
  let ck =
    match Checkpoint.load file with
    | Ok ck -> ck
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  in
  Sys.remove file;
  if cex then
    Alcotest.(check bool) "round-2 checkpoint has counterexamples" true
      (ck.Checkpoint.cex <> []);
  let c_res = mapped name in
  let r_res =
    Optimizer.optimize ~config:{ config with jobs = resume_jobs } ~resume:ck c_res
  in
  Alcotest.(check string) "identical report" (report_json r_ref) (report_json r_res);
  Alcotest.(check string) "identical netlist"
    (Blif.Blif_io.circuit_to_string c_ref)
    (Blif.Blif_io.circuit_to_string c_res)

let test_resume_rd84 () = resume_matches "rd84"
let test_resume_alu2 () = resume_matches "alu2"
let test_resume_z5xp1 () = resume_matches "Z5xp1"

(* Checkpoints carry no trace of the job count: interrupt a parallel
   run, resume at yet another width, still land on the sequential
   reference trajectory. *)
let test_resume_jobs_agnostic () =
  resume_matches ~half_jobs:8 ~resume_jobs:2 "alu2"

(* Glitch costing rebuilds its hazard factors at the resume barrier *)
let test_resume_glitch () =
  resume_matches ~cex:true
    ~config:{ Optimizer.default_config with cost = Optimizer.Glitch { pairs = 16 } }
    "comp"

(* Without apply verification the build makes no guard verifier *)
let test_resume_unverified () =
  resume_matches ~cex:true
    ~config:{ Optimizer.default_config with verify_applies = false }
    "comp"

(* Every checkpoint of one run is a valid start: resuming from each of
   rounds 1..4 (through the serialized form) lands on the uninterrupted
   run's report and netlist.  Two substitutions a round stretch rd84
   over enough rounds. *)
let test_resume_every_round () =
  let cks = ref [] in
  let config =
    {
      Optimizer.default_config with
      words = 4;
      repeat = 2;
      checkpoint_sink =
        Some
          (fun ck ->
            match Checkpoint.decode (Checkpoint.encode ck) with
            | Ok ck -> cks := ck :: !cks
            | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
    }
  in
  let c_ref = mapped "rd84" in
  let r_ref = Optimizer.optimize ~config c_ref in
  let cks = List.rev !cks in
  Alcotest.(check bool) "run lasts at least 4 rounds" true (List.length cks >= 4);
  List.iteri
    (fun i ck ->
      if i < 4 then begin
        Alcotest.(check int) "checkpoint round" (i + 1) ck.Checkpoint.round;
        let c = mapped "rd84" in
        let r =
          Optimizer.optimize ~config:{ config with checkpoint_sink = Some ignore }
            ~resume:ck c
        in
        let what = Printf.sprintf "resume from round %d: " (i + 1) in
        Alcotest.(check string) (what ^ "report") (report_json r_ref) (report_json r);
        Alcotest.(check string) (what ^ "netlist")
          (Blif.Blif_io.circuit_to_string c_ref)
          (Blif.Blif_io.circuit_to_string c)
      end)
    cks

(* A checkpoint of another circuit is refused before the input is
   touched, and a pareto sweep restarts the point it was saved under. *)
let test_foreign_checkpoint () =
  let file = Filename.temp_file "powder_ck" ".json" in
  let config =
    { Optimizer.default_config with words = 4; max_rounds = 2;
      checkpoint_sink = Some (Checkpoint.save file) }
  in
  ignore (Optimizer.optimize ~config (mapped "rd84"));
  let ck =
    match Checkpoint.load file with
    | Ok ck -> ck
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  in
  Sys.remove file;
  let c = mapped "Z5xp1" in
  let before = Blif.Blif_io.circuit_to_string c in
  (match Optimizer.optimize ~config:{ config with checkpoint_sink = None } ~resume:ck c with
  | _ -> Alcotest.fail "a checkpoint of another circuit was resumed"
  | exception Optimizer.Bad_checkpoint _ -> ());
  Alcotest.(check string) "input untouched" before (Blif.Blif_io.circuit_to_string c);
  let sweep dir =
    Pareto.Sweep.run ~config ~specs:[ Pareto.Sweep.Unbounded ]
      ~checkpoint:(Checkpoint.dir_store dir) ~name:"Z5xp1" (mapped "Z5xp1")
  in
  let fresh_dir () =
    let d = Filename.temp_file "powder_sweep" "" in
    Sys.remove d;
    d
  in
  let clean_dir = fresh_dir () and foreign_dir = fresh_dir () in
  (Checkpoint.dir_store foreign_dir).save "point-unbounded" ck;
  let json r = Obs.Json.to_string (Pareto.Sweep.to_json { r with Pareto.Sweep.cpu_seconds = 0.0 }) in
  Alcotest.(check string) "foreign checkpoint restarts the point"
    (json (sweep clean_dir)) (json (sweep foreign_dir));
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    [ clean_dir; foreign_dir ]

let suite =
  [
    ( "guard",
      [
        Alcotest.test_case "journal rollback" `Quick test_journal_rollback;
        Alcotest.test_case "journal commit" `Quick test_journal_commit;
        Alcotest.test_case "transactional apply" `Quick
          test_transactional_apply_commits;
        Alcotest.test_case "corrupt apply rolled back" `Quick
          test_corrupt_apply_rolls_back;
        Alcotest.test_case "optimizer survives corrupt apply" `Quick
          test_optimizer_survives_corrupt_apply;
        Alcotest.test_case "optimizer catches forged verdict" `Quick
          test_optimizer_catches_forged_verdict;
        Alcotest.test_case "optimizer survives expired deadline" `Quick
          test_optimizer_survives_expired_deadline;
        Alcotest.test_case "check deadline rejects cleanly" `Quick
          test_check_deadline_rejects_cleanly;
        Alcotest.test_case "zero check budget degrades" `Quick
          test_zero_check_budget_degrades;
        Alcotest.test_case "zero run budget stops" `Quick
          test_zero_run_budget_stops;
        Alcotest.test_case "run budget holds inside generate" `Quick
          test_run_budget_holds_in_generate;
        Alcotest.test_case "tiny proof budget gives up" `Quick
          test_tiny_proof_budget_gives_up;
        Alcotest.test_case "checkpoint roundtrip" `Quick
          test_checkpoint_roundtrip;
        Alcotest.test_case "checkpoint rejects garbage" `Quick
          test_checkpoint_load_rejects_garbage;
        Alcotest.test_case "checkpoint typed load errors" `Quick
          test_checkpoint_typed_errors;
        Alcotest.test_case "checkpoint save is atomic" `Quick
          test_checkpoint_save_atomic;
        Alcotest.test_case "resume matches rd84" `Quick test_resume_rd84;
        Alcotest.test_case "resume matches alu2" `Quick test_resume_alu2;
        Alcotest.test_case "resume matches Z5xp1" `Quick test_resume_z5xp1;
        Alcotest.test_case "resume is jobs-agnostic" `Quick
          test_resume_jobs_agnostic;
        Alcotest.test_case "resume matches with glitch cost" `Quick
          test_resume_glitch;
        Alcotest.test_case "resume matches without verifier" `Quick
          test_resume_unverified;
        Alcotest.test_case "resume from every round" `Quick
          test_resume_every_round;
        Alcotest.test_case "checkpoint of another circuit" `Quick
          test_foreign_checkpoint;
      ] );
  ]
