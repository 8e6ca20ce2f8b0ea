module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Estimator = Power.Estimator

let make_estimator c =
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  Estimator.create eng

let test_transition_prob () =
  let c, a, _, _, _, e, _ = Build.fig2_a () in
  let est = make_estimator c in
  Alcotest.(check (float 1e-9)) "E(pi)" 0.5 (Estimator.transition_prob est a);
  (* e = a & b: p = 1/4, E = 2 * 1/4 * 3/4 = 0.375 *)
  Alcotest.(check (float 1e-9)) "E(and)" 0.375 (Estimator.transition_prob est e)

let test_total_by_hand () =
  let c, a, b, ci, d, e, f = Build.fig2_a () in
  let est = make_estimator c in
  (* loads: a=3 (and pin + xor pin), b=2, c=2 (xor pin), d=1, e=1 (po), f=1 (po) *)
  let expected =
    (3.0 *. 0.5) +. (2.0 *. 0.5) +. (2.0 *. 0.5)
    +. (1.0 *. Estimator.transition_prob est d)
    +. (1.0 *. Estimator.transition_prob est e)
    +. (1.0 *. Estimator.transition_prob est f)
  in
  ignore (a, b, ci);
  Alcotest.(check (float 1e-9)) "total" expected (Estimator.total est)

let test_update_after_edit_matches_full () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let est = make_estimator c in
  Circuit.set_fanin c d 0 e;
  ignore (Estimator.update_after_edit est d);
  let incremental = Estimator.total est in
  Estimator.refresh_all est;
  let full = Estimator.total est in
  Alcotest.(check (float 1e-12)) "incremental = full" full incremental

let test_po_nodes_not_counted () =
  let c = Build.parity_chain 3 in
  let est = make_estimator c in
  List.iter
    (fun po ->
      Alcotest.(check (float 1e-12)) "po power" 0.0 (Estimator.node_power est po))
    (Circuit.pos c)

let test_region_power () =
  let c, ab, abc, out = Build.redundant_and () in
  let est = make_estimator c in
  let region =
    Circuit.with_dominated_region c abc (fun region ->
        let dom, members = region () in
        Estimator.region_power est dom members)
  in
  (* region is abc + nc + pi c (whose only fanout is nc) *)
  let named n =
    match Circuit.find_by_name c n with
    | Some id -> Circuit.load_of c id *. Estimator.transition_prob est id
    | None -> Alcotest.fail ("missing node " ^ n)
  in
  let expected =
    (Circuit.load_of c abc *. Estimator.transition_prob est abc)
    +. named "nc" +. named "c"
  in
  ignore (ab, out);
  Alcotest.(check (float 1e-9)) "region power" expected region

let test_region_input_relief () =
  let c, ab, abc, _ = Build.redundant_and () in
  let est = make_estimator c in
  (* the only region input is ab, contributing its pin into abc (and2
     pin = 1.0); pi c lies inside the region *)
  let expected = 1.0 *. Estimator.transition_prob est ab in
  let named n =
    match Circuit.find_by_name c n with
    | Some id -> id
    | None -> Alcotest.fail ("missing node " ^ n)
  in
  Circuit.with_dominated_region c abc (fun region ->
      let dom, members = region () in
      Alcotest.(check (float 1e-9)) "relief" expected
        (Estimator.region_input_relief est dom members);
      (* cleared members (a kept source cone: nc and its fanin c) drop
         out of the power sum, and nc becomes an input: abc's two and2
         pins (1.0 each) now relieve ab and nc *)
      let nc = named "nc" and ci = named "c" in
      dom.(nc) <- false;
      dom.(ci) <- false;
      Alcotest.(check (float 1e-9)) "relief around a kept cone"
        (expected +. (1.0 *. Estimator.transition_prob est nc))
        (Estimator.region_input_relief est dom members);
      Alcotest.(check (float 1e-9)) "power around a kept cone"
        (Estimator.node_power est abc)
        (Estimator.region_power est dom members);
      dom.(nc) <- true;
      dom.(ci) <- true)

let test_watts_scale () =
  let c = Build.parity_chain 3 in
  let est = make_estimator c in
  let w = Estimator.watts ~vdd:2.0 ~freq:1.0e6 est in
  Alcotest.(check (float 1e-6)) "scale" (2.0e6 *. Estimator.total est) w

let prop_total_nonnegative =
  QCheck.Test.make ~name:"power total >= 0" ~count:20 QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:25 in
      let est = make_estimator c in
      Estimator.total est >= 0.0)

let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incremental update = full refresh" ~count:20
    QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:25 in
      let est = make_estimator c in
      (* perturb: retarget the first gate's pin 0 to the first PI if legal *)
      match (Circuit.live_gates c, Circuit.pis c) with
      | g :: _, pi :: _ ->
        if Circuit.would_cycle_pin c g 0 pi then true
        else begin
          Circuit.set_fanin c g 0 pi;
          ignore (Estimator.update_after_edit est g);
          let incr = Estimator.total est in
          Estimator.refresh_all est;
          Float.abs (incr -. Estimator.total est) < 1e-9
        end
      | _ -> true)

(* The pairwise-tree total must be bit-equal — not within a tolerance —
   to a from-scratch estimator on the same engine state, after every
   optimizer-style edit burst (substitution apply + sweep + incremental
   resim).  This is the fixed-association guarantee [Estimator.total]
   documents. *)
let test_total_bitequal_incremental () =
  let bits = Int64.bits_of_float in
  for seed = 0 to 5 do
    let c = Build.random_circuit ~seed:(500 + seed) ~n_pis:6 ~n_gates:40 in
    let eng = Engine.create c ~words:2 in
    let stream () =
      Sim.Rng.stream (Int64.of_int (909 + seed)) "test/power-inc"
    in
    Engine.randomize eng (stream ());
    let est = Estimator.create eng in
    let applied = ref 0 in
    let progress = ref true in
    while !applied < 5 && !progress do
      let cands =
        Powder.Candidates.generate
          ~config:
            {
              Powder.Candidates.default_config with
              Powder.Candidates.require_positive = false;
            }
          est
      in
      match
        List.find_opt
          (fun (s, _) -> not (Powder.Subst.creates_cycle c s))
          cands
      with
      | None -> progress := false
      | Some (s, _) ->
        let src = Powder.Subst.apply c s in
        ignore (Estimator.update_after_edit est src);
        incr applied;
        let fresh_eng = Engine.create c ~words:2 in
        Engine.randomize fresh_eng (stream ());
        let fresh = Estimator.create fresh_eng in
        let a = Estimator.total est and b = Estimator.total fresh in
        if not (Int64.equal (bits a) (bits b)) then
          Alcotest.failf
            "seed %d edit %d: incremental total %.17g <> fresh %.17g" seed
            !applied a b
    done;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: edits actually applied" seed)
      true (!applied >= 3)
  done

let suite =
  [
    ( "power",
      [
        Alcotest.test_case "transition prob" `Quick test_transition_prob;
        Alcotest.test_case "total by hand" `Quick test_total_by_hand;
        Alcotest.test_case "incremental update" `Quick test_update_after_edit_matches_full;
        Alcotest.test_case "incremental total bit-equal" `Quick
          test_total_bitequal_incremental;
        Alcotest.test_case "po nodes not counted" `Quick test_po_nodes_not_counted;
        Alcotest.test_case "region power" `Quick test_region_power;
        Alcotest.test_case "region input relief" `Quick test_region_input_relief;
        Alcotest.test_case "watts scale" `Quick test_watts_scale;
        QCheck_alcotest.to_alcotest prop_total_nonnegative;
        QCheck_alcotest.to_alcotest prop_incremental_equals_full;
      ] );
  ]
