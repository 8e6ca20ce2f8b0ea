module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Fault = Atpg.Fault
module Podem = Atpg.Podem
module Equiv = Atpg.Equiv
module Faultsim = Atpg.Faultsim
module Tval = Atpg.Tval
module Tt = Logic.Tt

let test_tval_eval_cell () =
  let and2 = Tt.and_ (Tt.var 2 0) (Tt.var 2 1) in
  Alcotest.(check bool) "0x -> 0" true
    (Tval.eval_cell and2 [| Tval.V0; Tval.VX |] = Tval.V0);
  Alcotest.(check bool) "1x -> x" true
    (Tval.eval_cell and2 [| Tval.V1; Tval.VX |] = Tval.VX);
  Alcotest.(check bool) "11 -> 1" true
    (Tval.eval_cell and2 [| Tval.V1; Tval.V1 |] = Tval.V1);
  let xor2 = Tt.xor (Tt.var 2 0) (Tt.var 2 1) in
  Alcotest.(check bool) "x0 -> x" true
    (Tval.eval_cell xor2 [| Tval.VX; Tval.V0 |] = Tval.VX)

(* Verify a PODEM test by plugging the vector into good and faulty
   single-pattern evaluation. *)
let verify_test circ fault assignment =
  let vector =
    List.map
      (fun pi ->
        match List.assoc_opt pi assignment with Some v -> v | None -> false)
      (Circuit.pis circ)
  in
  let good = Sim.Engine.eval_single circ vector in
  (* build faulty circuit: force the fault effect *)
  let faulty = Circuit.clone circ in
  (match fault.Fault.site with
  | Fault.Stem s ->
    let const = Circuit.add_const faulty fault.Fault.stuck_at in
    (* move all fanouts of s to the constant *)
    Circuit.replace_stem faulty s const
  | Fault.Branch (sink, pin) ->
    let const = Circuit.add_const faulty fault.Fault.stuck_at in
    Circuit.set_fanin faulty sink pin const);
  let bad = Sim.Engine.eval_single faulty vector in
  List.exists
    (fun (name, v) -> List.assoc name bad <> v)
    good

let test_podem_finds_test () =
  let c, ab, _, _ = Build.redundant_and () in
  (* ab stuck-at-0 is testable: out = ab *)
  let f = Fault.stem ab false in
  match Podem.generate_test c f with
  | Podem.Test assignment ->
    Alcotest.(check bool) "test detects" true (verify_test c f assignment)
  | Podem.Untestable -> Alcotest.fail "should be testable"
  | Podem.Aborted _ -> Alcotest.fail "aborted"

let test_podem_redundant () =
  (* In redundant_and, out = ab | (ab & c'); the branch ab->abc is not
     observable: abc stuck-at-0 is redundant. *)
  let c, _, abc, out = Build.redundant_and () in
  ignore out;
  let f = Fault.stem abc false in
  match Podem.generate_test c f with
  | Podem.Untestable -> ()
  | Podem.Test a ->
    Alcotest.failf "expected redundant, got test (detects=%b)"
      (verify_test c f a)
  | Podem.Aborted _ -> Alcotest.fail "aborted"

let test_podem_all_faults_parity () =
  (* every stuck-at fault in a parity tree is testable *)
  let c = Build.parity_chain 4 in
  List.iter
    (fun f ->
      match Podem.generate_test c f with
      | Podem.Test assignment ->
        Alcotest.(check bool)
          (Fault.to_string c f) true (verify_test c f assignment)
      | Podem.Untestable | Podem.Aborted _ ->
        Alcotest.fail ("no test for " ^ Fault.to_string c f))
    (Fault.all_faults c)

let test_justify () =
  let c, _, _, _, _, _, f = Build.fig2_a () in
  (match Podem.justify_one c f with
  | Podem.Test assignment ->
    let vector =
      List.map
        (fun pi ->
          match List.assoc_opt pi assignment with Some v -> v | None -> false)
        (Circuit.pis c)
    in
    let outs = Sim.Engine.eval_single c vector in
    Alcotest.(check bool) "f = 1" true (List.assoc "out_f" outs)
  | Podem.Untestable | Podem.Aborted _ -> Alcotest.fail "justification failed");
  (* a constant-0 target: x & !x *)
  let lib = Build.lib in
  let c2 = Circuit.create lib in
  let x = Circuit.add_pi c2 ~name:"x" in
  let nx = Circuit.add_cell c2 (Gatelib.Library.find lib "inv1") [| x |] in
  let z = Circuit.add_cell c2 (Gatelib.Library.find lib "and2") [| x; nx |] in
  let _ = Circuit.add_po c2 ~name:"z" z in
  match Podem.justify_one c2 z with
  | Podem.Untestable -> ()
  | Podem.Test _ | Podem.Aborted _ -> Alcotest.fail "x & !x is never 1"

let test_equiv_identical () =
  let c1 = Build.parity_chain 4 in
  let c2 = Build.parity_chain 4 in
  Alcotest.(check bool) "equivalent" true (Equiv.check c1 c2 = Equiv.Equivalent)

let test_equiv_different () =
  let c1 = Build.parity_chain 4 in
  let c2 = Build.parity_chain 4 in
  (* negate the output of c2 by retargeting its PO through an inverter *)
  (match Circuit.pos c2 with
  | [ po ] ->
    let d = Circuit.po_driver c2 po in
    let inv = Circuit.add_cell c2 (Gatelib.Library.inverter Build.lib) [| d |] in
    Circuit.set_fanin c2 po 0 inv
  | _ -> Alcotest.fail "one po");
  match Equiv.check c1 c2 with
  | Equiv.Different _ -> ()
  | Equiv.Equivalent | Equiv.Unknown -> Alcotest.fail "should differ"

let test_equiv_fig2 () =
  (* the paper's Figure 2 substitution is permissible *)
  let ca, _, _, _, _, _, _ = Build.fig2_a () in
  let cb = Build.fig2_b () in
  Alcotest.(check bool) "fig2 A equiv B" true (Equiv.check ca cb = Equiv.Equivalent)

let test_equiv_via_miter_podem () =
  (* force the PODEM path by setting exhaustive_limit to 0 *)
  let ca, _, _, _, _, _, _ = Build.fig2_a () in
  let cb = Build.fig2_b () in
  Alcotest.(check bool) "miter podem equiv" true
    (Equiv.check ~exhaustive_limit:0 ca cb = Equiv.Equivalent);
  let c3 = Build.parity_chain 3 in
  let c4 = Build.parity_chain 3 in
  (match Circuit.pos c4 with
  | [ po ] ->
    let d = Circuit.po_driver c4 po in
    let inv = Circuit.add_cell c4 (Gatelib.Library.inverter Build.lib) [| d |] in
    Circuit.set_fanin c4 po 0 inv
  | _ -> ());
  match Equiv.check ~exhaustive_limit:0 c3 c4 with
  | Equiv.Different _ -> ()
  | Equiv.Equivalent | Equiv.Unknown -> Alcotest.fail "should differ via miter"

let test_faultsim_detects () =
  let c = Build.parity_chain 4 in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  let cov = Faultsim.grade eng (Fault.all_faults c) in
  Alcotest.(check int) "all detected" cov.Faultsim.total cov.Faultsim.detected

let test_faultsim_redundant_undetected () =
  let c, _, abc, _ = Build.redundant_and () in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  Alcotest.(check bool) "redundant fault missed" false
    (Faultsim.detects eng (Fault.stem abc false))

let test_random_coverage_runs () =
  let c = Build.random_circuit ~seed:3 ~n_pis:6 ~n_gates:20 in
  let cov = Faultsim.random_coverage c ~patterns:256 ~seed:9L in
  Alcotest.(check bool) "some detected" true (cov.Faultsim.detected > 0);
  Alcotest.(check bool) "bounded" true (cov.Faultsim.detected <= cov.Faultsim.total)

(* Cross-validation: PODEM vs exhaustive fault simulation on random
   circuits — the central correctness property of the ATPG engine. *)
let prop_podem_agrees_with_exhaustive =
  QCheck.Test.make ~name:"podem agrees with exhaustive faultsim" ~count:15
    QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:5 ~n_gates:15 in
      let eng = Engine.create c ~words:1 in
      Engine.exhaustive eng;
      List.for_all
        (fun f ->
          let simulated = Faultsim.detects eng f in
          match Podem.generate_test c f with
          | Podem.Test assignment -> verify_test c f assignment
          | Podem.Untestable -> not simulated
          | Podem.Aborted _ -> true (* inconclusive is acceptable *))
        (Fault.all_faults c))

(* The swept miter (exhaustive_limit 0) against exhaustive simulation,
   on one-gate mutants of random circuits: every mutant simulation
   shows to differ comes back [Different] with a counterexample that
   single-pattern evaluation confirms, and every other one is proved
   [Equivalent]. *)
let prop_swept_equiv_on_mutants =
  QCheck.Test.make ~name:"swept equivalence = exhaustive on one-gate mutants" ~count:40
    QCheck.(int_bound 99999)
    (fun seed ->
      let orig = Build.random_circuit ~seed ~n_pis:9 ~n_gates:40 in
      let gates = Array.of_list (Circuit.live_gates orig) in
      let cells2 =
        Array.of_list
          (List.filter (fun c -> Gatelib.Cell.arity c = 2) (Gatelib.Library.cells Build.lib))
      in
      let mut = Circuit.clone orig in
      let g = gates.(seed mod Array.length gates) in
      Circuit.set_cell mut g cells2.(seed mod Array.length cells2);
      let exhaustive = Equiv.check orig mut in
      match (exhaustive, Equiv.check ~exhaustive_limit:0 orig mut) with
      | Equiv.Equivalent, Equiv.Equivalent -> true
      | Equiv.Different _, Equiv.Different cex ->
        let values c =
          Sim.Engine.eval_single c
            (List.map (fun pi -> List.assoc (Circuit.name c pi) cex) (Circuit.pis c))
        in
        values orig <> values mut
      | _ -> false)

let suite =
  [
    ( "atpg",
      [
        Alcotest.test_case "tval eval" `Quick test_tval_eval_cell;
        Alcotest.test_case "podem finds test" `Quick test_podem_finds_test;
        Alcotest.test_case "podem proves redundancy" `Quick test_podem_redundant;
        Alcotest.test_case "podem on parity faults" `Quick test_podem_all_faults_parity;
        Alcotest.test_case "justify" `Quick test_justify;
        Alcotest.test_case "equiv identical" `Quick test_equiv_identical;
        Alcotest.test_case "equiv different" `Quick test_equiv_different;
        Alcotest.test_case "equiv fig2" `Quick test_equiv_fig2;
        Alcotest.test_case "equiv via miter+podem" `Quick test_equiv_via_miter_podem;
        Alcotest.test_case "faultsim detects" `Quick test_faultsim_detects;
        Alcotest.test_case "faultsim misses redundant" `Quick test_faultsim_redundant_undetected;
        Alcotest.test_case "random coverage" `Quick test_random_coverage_runs;
        QCheck_alcotest.to_alcotest prop_podem_agrees_with_exhaustive;
        QCheck_alcotest.to_alcotest prop_swept_equiv_on_mutants;
      ] );
  ]
