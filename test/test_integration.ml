(* End-to-end flow tests: SOP/AIG -> technology mapping -> POWDER
   optimization -> equivalence + constraint verification. *)

module Circuit = Netlist.Circuit
module Suite = Circuits.Suite
module Optimizer = Powder.Optimizer
module Equiv = Atpg.Equiv
module Timing = Sta.Timing

let small_cfg = { Optimizer.default_config with words = 8 }

let run_flow ?(config = small_cfg) name =
  match Suite.find name with
  | None -> Alcotest.fail (name ^ " missing from suite")
  | Some spec ->
    let circ = Suite.mapped spec in
    let original = Circuit.clone circ in
    let report = Optimizer.optimize ~config circ in
    (original, circ, report)

let check_equiv name original optimized =
  match Equiv.check ~exhaustive_limit:16 original optimized with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail (name ^ ": functions differ!")
  | Equiv.Unknown ->
    (* wide circuits: fall back to a heavy random simulation cross-check *)
    let words = 64 in
    let e1 = Sim.Engine.create original ~words in
    let e2 = Sim.Engine.create optimized ~words in
    let rng = Sim.Rng.create 99L in
    let values = Hashtbl.create 64 in
    List.iter
      (fun pi ->
        Hashtbl.add values (Circuit.name original pi)
          (Array.init words (fun _ -> Sim.Rng.next rng)))
      (Circuit.pis original);
    List.iter
      (fun pi ->
        Sim.Engine.set_value e1 pi (Hashtbl.find values (Circuit.name original pi)))
      (Circuit.pis original);
    List.iter
      (fun pi ->
        Sim.Engine.set_value e2 pi (Hashtbl.find values (Circuit.name optimized pi)))
      (Circuit.pis optimized);
    Sim.Engine.resim_all e1;
    Sim.Engine.resim_all e2;
    Alcotest.(check bool)
      (name ^ ": random cross-check")
      true
      (Sim.Engine.equivalent_on_patterns e1 e2)

let test_flow_small_exact () =
  List.iter
    (fun name ->
      let original, optimized, report = run_flow name in
      check_equiv name original optimized;
      Alcotest.(check bool)
        (name ^ " power never increases")
        true
        (report.Optimizer.final_power <= report.Optimizer.initial_power +. 1e-9))
    [ "rd84"; "t481"; "9sym"; "alu2" ]

let test_flow_wide () =
  let original, optimized, report = run_flow "comp" in
  check_equiv "comp" original optimized;
  Alcotest.(check bool) "no failure" true (report.Optimizer.funnel.rounds >= 1)

let test_flow_delay_constrained () =
  List.iter
    (fun name ->
      let config = { small_cfg with Optimizer.delay = Optimizer.Keep_initial } in
      let original, optimized, report = run_flow ~config name in
      check_equiv name original optimized;
      match report.Optimizer.delay_constraint with
      | Some limit ->
        Alcotest.(check bool)
          (name ^ " delay within constraint")
          true
          (report.Optimizer.final_delay <= limit +. 1e-6)
      | None -> Alcotest.fail "expected constraint")
    [ "rd84"; "alu2" ]

let test_looser_constraint_never_worse () =
  (* the Figure 6 monotonicity: more delay headroom cannot reduce the
     achievable power savings below the tight-constraint result by more
     than noise *)
  let run percent =
    match Suite.find "rd84" with
    | None -> Alcotest.fail "rd84 missing"
    | Some spec ->
      let circ = Suite.mapped spec in
      let config =
        { small_cfg with Optimizer.delay = Optimizer.Ratio (percent /. 100.0) }
      in
      (Optimizer.optimize ~config circ).Optimizer.final_power
  in
  let tight = run 0.0 and loose = run 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "loose %.3f <= tight %.3f * 1.05" loose tight)
    true (loose <= (tight *. 1.05) +. 1e-9)

let test_optimizer_report_consistency () =
  let _, optimized, report = run_flow "f51m" in
  (* the report's final numbers match the circuit state *)
  Alcotest.(check (float 1e-6)) "area" (Circuit.area optimized)
    report.Optimizer.final_area;
  Alcotest.(check (float 1e-6)) "delay"
    (Timing.circuit_delay (Timing.analyze optimized))
    report.Optimizer.final_delay;
  (* per-class accounting sums to the total power gain *)
  let class_sum =
    List.fold_left
      (fun acc (_, st) -> acc +. st.Optimizer.power_gain)
      0.0 report.Optimizer.by_class
  in
  Alcotest.(check (float 1e-6))
    "class power sums"
    (report.Optimizer.initial_power -. report.Optimizer.final_power)
    class_sum;
  let class_count =
    List.fold_left (fun acc (_, st) -> acc + st.Optimizer.accepted) 0
      report.Optimizer.by_class
  in
  Alcotest.(check int) "class counts sum" report.Optimizer.funnel.substitutions class_count

(* Bad input is a user error at the command line too: a resume without
   a checkpoint, a checkpoint file that is not one, a checkpoint of
   another circuit, and a report on a missing or unparsable profile
   each exit 123 with one "powder_cli:"
   line on stderr, never the 125 of an escaping exception.  A refused
   checkpoint is refused before any output is opened: the optimize
   cases create neither their --json nor their --trace file. *)
let test_cli_user_errors () =
  (* dune runtest runs in the test directory, dune exec in the root *)
  let cli, hostile =
    if Sys.file_exists "../bin/powder_cli.exe" then ("../bin/powder_cli.exe", "hostile")
    else ("_build/default/bin/powder_cli.exe", "test/hostile")
  in
  let not_ours = Filename.concat hostile "garbage_line.blif" in
  let missing = Filename.concat hostile "missing.blif" in
  let err = Filename.temp_file "powder_cli" ".err" in
  let json_out = Filename.temp_file "powder_cli" ".json"
  and trace_out = Filename.temp_file "powder_cli" ".jsonl" in
  Sys.remove json_out;
  Sys.remove trace_out;
  let outputs = [ "--json"; json_out; "--trace"; trace_out ] in
  (* a checkpoint of rd84, which another circuit must refuse *)
  let other = Filename.temp_file "powder_ck" ".json" in
  (match Suite.find "rd84" with
  | Some spec ->
    ignore
      (Optimizer.optimize
         ~config:
           { Optimizer.default_config with
             max_rounds = 1;
             checkpoint_sink = Some (Powder.Checkpoint.save other) }
         (Suite.mapped spec))
  | None -> Alcotest.fail "rd84 missing from suite");
  Fun.protect
    ~finally:(fun () -> Sys.remove err; Sys.remove other)
    (fun () ->
      List.iter
        (fun args ->
          let code =
            Sys.command (Filename.quote_command cli args ~stdout:"/dev/null" ~stderr:err)
          in
          let lines =
            In_channel.with_open_bin err In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (( <> ) "")
          in
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ ": exit code") 123 code;
          List.iter
            (fun f ->
              Alcotest.(check bool) (what ^ ": " ^ f ^ " not created") false
                (Sys.file_exists f))
            [ json_out; trace_out ];
          match lines with
          | [ line ] when String.starts_with ~prefix:"powder_cli: " line -> ()
          | _ -> Alcotest.failf "%s: stderr %S, want one powder_cli: line" what
                   (String.concat "\n" lines))
        [
          [ "optimize"; "-c"; "rd84"; "--resume" ] @ outputs;
          [ "optimize"; "-c"; "rd84"; "--resume"; "--checkpoint"; not_ours ] @ outputs;
          [ "optimize"; "-c"; "Z5xp1"; "--resume"; "--checkpoint"; other ] @ outputs;
          [ "report"; missing ];
          [ "report"; not_ours ];
        ])

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "cli user errors exit 123" `Quick test_cli_user_errors;
        Alcotest.test_case "flow on exact circuits" `Slow test_flow_small_exact;
        Alcotest.test_case "flow on wide circuit" `Slow test_flow_wide;
        Alcotest.test_case "delay-constrained flow" `Slow test_flow_delay_constrained;
        Alcotest.test_case "looser constraint not worse" `Slow test_looser_constraint_never_worse;
        Alcotest.test_case "report consistency" `Slow test_optimizer_report_consistency;
      ] );
  ]
