(* The incremental-miter permissibility check must agree with the
   brute-force clone + full equivalence check on every candidate. *)

module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Estimator = Power.Estimator
module Subst = Powder.Subst
module Check = Powder.Check
module Equiv = Atpg.Equiv

type tag = Perm | Not_perm

let tag_of = function
  | Check.Permissible -> Some Perm
  | Check.Not_permissible _ -> Some Not_perm
  | Check.Gave_up _ -> None

let reference_verdict circ s =
  match Powder.Subst.apply_to_clone circ s with
  | clone -> (
    match Equiv.check ~exhaustive_limit:16 circ clone with
    | Equiv.Equivalent -> Some Perm
    | Equiv.Different _ -> Some Not_perm
    | Equiv.Unknown -> None)
  | exception Invalid_argument _ -> None

let candidates_of circ =
  let eng = Engine.create circ ~words:8 in
  Engine.randomize eng (Sim.Rng.create 5L);
  let est = Estimator.create eng in
  (* include negative-gain candidates too: correctness is what matters *)
  let config = { Powder.Candidates.default_config with require_positive = false } in
  Powder.Candidates.generate ~config est

let agree_on_circuit circ =
  List.for_all
    (fun (s, _) ->
      if Subst.creates_cycle circ s then true
      else
        match reference_verdict circ s with
        | None -> true
        | Some expected -> (
          match tag_of (Check.permissible ~exhaustive_limit:12 circ s) with
          | None -> true
          | Some got -> got = expected))
    (candidates_of circ)

let test_fig2_candidates () =
  let circ, _, _, _, _, _, _ = Build.fig2_a () in
  Alcotest.(check bool) "agree" true (agree_on_circuit circ)

let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incremental miter = full check" ~count:12
    QCheck.(int_bound 9999)
    (fun seed ->
      let circ = Build.random_circuit ~seed ~n_pis:7 ~n_gates:30 in
      agree_on_circuit circ)

let prop_incremental_equals_full_sat =
  (* force the SAT path even on narrow circuits *)
  QCheck.Test.make ~name:"incremental miter (sat) = full check" ~count:8
    QCheck.(int_bound 9999)
    (fun seed ->
      let circ = Build.random_circuit ~seed ~n_pis:7 ~n_gates:25 in
      List.for_all
        (fun (s, _) ->
          if Subst.creates_cycle circ s then true
          else
            match reference_verdict circ s with
            | None -> true
            | Some expected -> (
              match
                tag_of (Check.permissible ~exhaustive_limit:0 ~engine:`Sat circ s)
              with
              | None -> true
              | Some got -> got = expected))
        (candidates_of circ))

let test_benchmark_candidates () =
  (* cross-check on a real mapped benchmark with reconvergence *)
  match Circuits.Suite.find "alu2" with
  | None -> Alcotest.fail "alu2 missing"
  | Some spec ->
    let circ = Circuits.Suite.mapped spec in
    Alcotest.(check bool) "agree on alu2" true (agree_on_circuit circ)

(* The miter as the check built it before the overlay: the circuit
   cloned, the changed cone duplicated inside the clone, the affected
   outputs XORed and ORed there.  The overlay must hand the SAT solver
   exactly this netlist's clauses, in this netlist's variable order. *)
let clone_miter circ s =
  let m = Circuit.clone circ in
  let src =
    match Subst.plan_of m s with
    | Subst.P_existing v -> v
    | Subst.P_new_inv b -> Circuit.add_cell m (Gatelib.Library.inverter (Circuit.library m)) [| b |]
    | Subst.P_new_gate (c, b, d) -> Circuit.add_cell m c [| b; d |]
  in
  let changed =
    match s.Subst.target with
    | Subst.Stem a -> Circuit.tfo m a
    | Subst.Branch { sink; _ } ->
      let t = Circuit.tfo m sink in
      t.(sink) <- true;
      t
  in
  let substituted id pin f =
    match s.Subst.target with
    | Subst.Stem a -> f = a
    | Subst.Branch { sink; pin = p } -> id = sink && pin = p
  in
  let dup = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      if changed.(id) then
        match Circuit.kind m id with
        | Circuit.Cell (c, fs) ->
          let fs' =
            Array.mapi
              (fun pin f ->
                if substituted id pin f then src
                else Option.value (Hashtbl.find_opt dup f) ~default:f)
              fs
          in
          Hashtbl.add dup id (Circuit.add_cell m c fs')
        | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ())
    (Circuit.topo_order m);
  let diffs =
    List.filter_map
      (fun po ->
        let d = Circuit.po_driver m po in
        let retargeted =
          match s.Subst.target with
          | Subst.Stem a -> d = a
          | Subst.Branch { sink; _ } -> sink = po
        in
        match if retargeted then Some src else Hashtbl.find_opt dup d with
        | Some d' when d' <> d -> Some (Circuit.add_cell m Equiv.xor_cell [| d; d' |])
        | Some _ | None -> None)
      (Circuit.pos m)
  in
  let rec or_tree = function
    | [] -> None
    | [ x ] -> Some x
    | x :: y :: rest -> or_tree (Circuit.add_cell m Equiv.or_cell [| x; y |] :: rest)
  in
  Option.map
    (fun out ->
      let v = Atpg.Cnf.view_of m in
      let clauses, _, n = Atpg.Cnf.clauses v (Atpg.Cnf.cone v out) in
      (clauses, n))
    (or_tree diffs)

let test_overlay_cnf_matches_clone () =
  let circ =
    match Circuits.Suite.find "cps" with
    | Some spec -> Circuits.Suite.mapped spec
    | None -> Alcotest.fail "cps is not in the suite"
  in
  let eng = Engine.create circ ~words:16 in
  Engine.randomize eng (Sim.Rng.create 7L);
  let cands = Powder.Candidates.generate (Estimator.create eng) in
  let n = ref 0 in
  List.iter
    (fun (s, _) ->
      if not (Subst.creates_cycle circ s) then begin
        incr n;
        if Check.miter_clauses circ s <> clone_miter circ s then
          Alcotest.failf "candidate %s: overlay CNF differs from the clone's"
            (Subst.describe circ s)
      end)
    cands;
  Alcotest.(check bool) "every first-round candidate compared" true (!n > 1000)

(* The sweep may only ever prove: on fuzz-generated circuits narrow
   enough to enumerate, it never folds a miter to 0 where exhaustive
   simulation of the substituted circuit shows a difference.  The
   candidates are the generator's (mostly permissible) and random
   stem-by-signal and branch-by-inverted-signal substitutions (mostly
   not). *)
let prop_sweep_sound =
  QCheck.Test.make ~name:"sweep never proves a refutable miter" ~count:25
    QCheck.(int_bound 99999)
    (fun seed ->
      let circ = Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed ~max_ins:12 (Int64.of_int seed)) in
      let rng = Random.State.make [| seed |] in
      let nodes = Array.of_list (List.filter (Circuit.is_live circ) (Circuit.live_gates circ @ Circuit.pis circ)) in
      let gates = Array.of_list (Circuit.live_gates circ) in
      let random_substs =
        if Array.length gates = 0 then []
        else
          List.init 40 (fun k ->
              let g = gates.(Random.State.int rng (Array.length gates)) in
              let b = nodes.(Random.State.int rng (Array.length nodes)) in
              if k mod 2 = 0 then { Subst.target = Subst.Stem g; source = Subst.Signal b }
              else
                let pin = Random.State.int rng (Array.length (Circuit.fanins circ g)) in
                { Subst.target = Subst.Branch { sink = g; pin }; source = Subst.Inverted b })
      in
      List.for_all
        (fun s ->
          Subst.creates_cycle circ s
          || (match s.Subst.target, s.Subst.source with
             | Subst.Stem a, Subst.Signal b -> a = b
             | _ -> false)
          || (not (Check.swept circ s))
          || reference_verdict circ s = Some Perm)
        (List.map fst (candidates_of circ) @ random_substs))

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "fig2 candidates" `Quick test_fig2_candidates;
        QCheck_alcotest.to_alcotest prop_incremental_equals_full;
        QCheck_alcotest.to_alcotest prop_incremental_equals_full_sat;
        Alcotest.test_case "benchmark candidates" `Slow test_benchmark_candidates;
        Alcotest.test_case "overlay miter CNF = clone miter CNF" `Quick
          test_overlay_cnf_matches_clone;
        QCheck_alcotest.to_alcotest prop_sweep_sound;
      ] );
  ]
