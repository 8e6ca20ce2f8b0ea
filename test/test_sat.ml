module Sat = Atpg.Sat
module Cnf = Atpg.Cnf
module Circuit = Netlist.Circuit

(* brute-force reference for small variable counts *)
let brute_force ~num_vars clauses =
  let sat_under model =
    List.for_all
      (fun clause ->
        Array.exists
          (fun l ->
            let v = l lsr 1 and neg = l land 1 = 1 in
            (model land (1 lsl v) <> 0) <> neg)
          clause)
      clauses
  in
  let rec scan m = if m >= 1 lsl num_vars then None else if sat_under m then Some m else scan (m + 1) in
  scan 0

let test_trivial () =
  (match Sat.solve ~num_vars:1 [] with
  | Sat.Sat _ -> ()
  | Sat.Unsat | Sat.Timeout _ -> Alcotest.fail "empty problem is sat");
  (match Sat.solve ~num_vars:1 [ [||] ] with
  | Sat.Unsat -> ()
  | Sat.Sat _ | Sat.Timeout _ -> Alcotest.fail "empty clause is unsat");
  (match Sat.solve ~num_vars:1 [ [| Sat.lit_of 0 true |]; [| Sat.lit_of 0 false |] ] with
  | Sat.Unsat -> ()
  | Sat.Sat _ | Sat.Timeout _ -> Alcotest.fail "x and !x is unsat");
  List.iter
    (fun l ->
      Alcotest.check_raises "literal out of range"
        (Invalid_argument "Sat.solve: literal out of range")
        (fun () -> ignore (Sat.solve ~num_vars:2 [ [| Sat.lit_of 0 true; l |] ])))
    [ Sat.lit_of 2 true; Sat.lit_of 2 false; -1 ]

let test_simple_sat () =
  let clauses =
    [
      [| Sat.lit_of 0 true; Sat.lit_of 1 true |];
      [| Sat.lit_of 0 false; Sat.lit_of 1 true |];
      [| Sat.lit_of 1 false; Sat.lit_of 2 true |];
    ]
  in
  match Sat.solve ~num_vars:3 clauses with
  | Sat.Sat model ->
    Alcotest.(check bool) "x1" true model.(1);
    Alcotest.(check bool) "x2" true model.(2)
  | Sat.Unsat | Sat.Timeout _ -> Alcotest.fail "expected sat"

let test_pigeonhole_unsat () =
  (* 3 pigeons, 2 holes: var p*2+h means pigeon p in hole h *)
  let v p h = (p * 2) + h in
  let clauses = ref [] in
  for p = 0 to 2 do
    clauses := [| Sat.lit_of (v p 0) true; Sat.lit_of (v p 1) true |] :: !clauses
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        clauses :=
          [| Sat.lit_of (v p1 h) false; Sat.lit_of (v p2 h) false |] :: !clauses
      done
    done
  done;
  match Sat.solve ~num_vars:6 !clauses with
  | Sat.Unsat -> ()
  | Sat.Sat _ | Sat.Timeout _ -> Alcotest.fail "php(3,2) is unsat"

let random_cnf rand ~num_vars ~num_clauses =
  List.init num_clauses (fun _ ->
      let len = 1 + (rand 3) in
      Array.init len (fun _ -> Sat.lit_of (rand num_vars) (rand 2 = 0)))

let prop_agrees_with_brute_force =
  QCheck.Test.make ~name:"sat agrees with brute force" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let state = ref (seed * 7919 + 13) in
      let rand bound =
        state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      let num_vars = 3 + rand 6 in
      let clauses = random_cnf rand ~num_vars ~num_clauses:(3 + rand 20) in
      let reference = brute_force ~num_vars clauses in
      match Sat.solve ~num_vars clauses with
      | Sat.Sat model ->
        reference <> None
        && List.for_all
             (fun clause ->
               Array.exists
                 (fun l -> model.(l lsr 1) = (l land 1 = 0))
                 clause)
             clauses
      | Sat.Unsat -> reference = None
      | Sat.Timeout _ -> false)

let test_cnf_justify_constant () =
  let lib = Build.lib in
  let c = Circuit.create lib in
  let x = Circuit.add_pi c ~name:"x" in
  let nx = Circuit.add_cell c (Gatelib.Library.inverter lib) [| x |] in
  let z = Circuit.add_cell c (Gatelib.Library.find lib "and2") [| x; nx |] in
  let _ = Circuit.add_po c ~name:"z" z in
  (match Cnf.justify_one c z with
  | Cnf.Impossible -> ()
  | Cnf.Justified _ | Cnf.Gave_up _ -> Alcotest.fail "x & !x is constant 0");
  let w = Circuit.add_cell c (Gatelib.Library.find lib "or2") [| x; nx |] in
  match Cnf.justify_one c w with
  | Cnf.Justified _ -> ()
  | Cnf.Impossible | Cnf.Gave_up _ -> Alcotest.fail "x | !x is constant 1"

let prop_cnf_vs_exhaustive =
  (* justify_one agrees with exhaustive simulation on random circuits *)
  QCheck.Test.make ~name:"cnf justification = exhaustive" ~count:20
    QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:25 in
      let eng = Sim.Engine.create c ~words:1 in
      Sim.Engine.exhaustive eng;
      List.for_all
        (fun g ->
          let can_be_one = Sim.Engine.count_ones eng g > 0 in
          match Cnf.justify_one c g with
          | Cnf.Justified assignment ->
            can_be_one
            &&
            (* verify the returned vector *)
            let vector =
              List.map
                (fun pi ->
                  match List.assoc_opt pi assignment with
                  | Some v -> v
                  | None -> false)
                (Circuit.pis c)
            in
            let values = Sim.Engine.eval_single c vector in
            ignore values;
            (* evaluate g directly by re-simulating a tiny engine *)
            let eng2 = Sim.Engine.create c ~words:1 in
            let probs pi' =
              if List.assoc pi' (List.combine (Circuit.pis c) vector) then 1.0
              else 0.0
            in
            Sim.Engine.randomize eng2 ~input_probs:probs (Sim.Rng.create 1L);
            Sim.Engine.count_ones eng2 g = 64
          | Cnf.Impossible -> not can_be_one
          | Cnf.Gave_up _ -> false)
        (Circuit.live_gates c))

(* The decision heap picks exactly the variable the former linear scan
   picked (highest activity, lowest index on ties), so the whole search
   trajectory is pinned: on random 3-CNF at the phase transition, the
   verdict, the model (as the MD5 of its 0/1 string) and the number of
   conflicts must match the values the scan recorded.  Instance 20
   runs past the 1e100 activity rescale. *)
let random_3cnf seed =
  let st = Random.State.make [| 0x5A7; seed |] in
  let n = 50 + (seed * 6) in
  let clauses =
    List.init (n * 426 / 100) (fun _ ->
        Array.init 3 (fun _ ->
            Sat.lit_of (Random.State.int st n) (Random.State.bool st)))
  in
  (n, clauses)

let scan_trajectories =
  [
    (1, None, 52);
    (2, Some "a542629fc4134db29df46cbbc587cf56", 20);
    (3, Some "0bc2d0ab7e0a8ec3e2fe2967c2b5fff2", 15);
    (4, Some "ceb077f1f1d1d783ea6eb54f33dd4bc6", 77);
    (5, Some "bb735062e25c7198446e353a423b4df9", 203);
    (6, Some "9dd4f9f326b6b27d52e51c2c67cb5ed2", 2);
    (7, None, 282);
    (8, Some "c8b809c49b9691a048a88f61115a1ca6", 19);
    (9, None, 477);
    (10, None, 1007);
    (11, Some "f6ae8359ff28711d82e62dada2f4c8bc", 32);
    (12, None, 664);
    (13, Some "dfe0239535c9a121759f167ab88c4de4", 459);
    (14, Some "7ea27c3e6d4e6114bf90cf3f5e7954ed", 298);
    (15, None, 1463);
    (16, Some "677692b876c48916ca13428c28a9ccaa", 827);
    (17, Some "80c4bb79730a766f3cb555c502fb280d", 514);
    (18, None, 1754);
    (19, None, 2504);
    (20, None, 6671);
  ]

let test_decision_trajectory () =
  let conflicts () =
    match Obs.Metrics.find "atpg.sat.conflicts" with
    | Some (`Counter c) -> c
    | Some (`Gauge _ | `Histogram _) | None -> 0
  in
  List.iter
    (fun (seed, model, want_conflicts) ->
      let n, clauses = random_3cnf seed in
      let c0 = conflicts () in
      let got =
        match Sat.solve ~num_vars:n clauses with
        | Sat.Sat m ->
          Some
            (Digest.to_hex
               (Digest.string (String.init n (fun i -> if m.(i) then '1' else '0'))))
        | Sat.Unsat -> None
        | Sat.Timeout _ -> Alcotest.failf "instance %d timed out" seed
      in
      let label = Printf.sprintf "instance %d" seed in
      Alcotest.(check (option string)) (label ^ ": verdict and model") model got;
      Alcotest.(check int) (label ^ ": conflicts") want_conflicts (conflicts () - c0))
    scan_trajectories

(* The same pin on real miters: the first 400 SAT-decided
   [Check.permissible] calls over cps's first-round candidates (no
   substitution applied).  Every tenth call's verdict, model digest (the
   counterexample's 0/1 string over the PIs) and conflict count are
   pinned, and so are the conflict total and a digest over all 400. *)
let cps_sat_calls () =
  let circ =
    match Circuits.Suite.find "cps" with
    | Some spec -> Circuits.Suite.mapped spec
    | None -> Alcotest.fail "cps is not in the suite"
  in
  let eng = Sim.Engine.create circ ~words:16 in
  Sim.Engine.randomize eng (Sim.Rng.create 7L);
  let cands = Powder.Candidates.generate (Power.Estimator.create eng) in
  let counter name =
    match Obs.Metrics.find name with
    | Some (`Counter c) -> c
    | Some (`Gauge _ | `Histogram _) | None -> 0
  in
  let calls = ref [] and n = ref 0 in
  List.iter
    (fun (s, _) ->
      if !n < 400 && not (Powder.Subst.creates_cycle circ s) then begin
        let s0 = counter "atpg.sat.solves" and c0 = counter "atpg.sat.conflicts" in
        let v = Powder.Check.permissible circ s in
        if counter "atpg.sat.solves" > s0 then begin
          incr n;
          let verdict =
            match v with
            | Powder.Check.Permissible -> "unsat"
            | Powder.Check.Not_permissible a ->
              Digest.to_hex
                (Digest.string
                   (String.concat "" (List.map (fun (_, b) -> if b then "1" else "0") a)))
            | Powder.Check.Gave_up _ -> "gave up"
          in
          calls := (verdict, counter "atpg.sat.conflicts" - c0) :: !calls
        end
      end)
    cands;
  List.rev !calls

let cps_trajectories =
  [
    ("7e151d5c4756aade9ccd0ccf919e6462", 29);
    ("9f867f7109cacd4efab3f31a3d37c5be", 44);
    ("2bfb00dc4d92289137d3ceccf643e437", 79);
    ("c5ad8416f8216b36a9690b136b802036", 160);
    ("434a4404511e16596b4991df55a1d001", 18);
    ("f3acd00723ab83c49577aae02041ea0a", 19);
    ("9e9b7dd6b046a04a0e41e41afcdce7ca", 139);
    ("68a1f7dd3d57000fe528da6c669dd163", 62);
    ("7125672ad5e5d92a561247d968e8ce8c", 57);
    ("e91f8b7bca8681a75ae84fb162da5b4e", 44);
    ("a0a83dfab4b9a3c39a0f2f4da5f72ef3", 58);
    ("d05018e232b719e8cc762335ce617cb6", 29);
    ("8e91cde57410d6ece1c54a3bc993ec3d", 156);
    ("2fe4c37b3614f70a8987b4137982bc27", 249);
    ("63b714cbdb7afea05e169eb0cbb8f004", 36);
    ("0ce9d9236987e9e3117265fdf66771a7", 67);
    ("2fe4c37b3614f70a8987b4137982bc27", 249);
    ("077254696c14bac61e1e1dfe6e5ac70e", 28);
    ("63b714cbdb7afea05e169eb0cbb8f004", 30);
    ("ac90fd1de83e8ee9c48c8d0b3f309e89", 18);
    ("dd96db40a0f1bcd72ce3dcb0705a9484", 23);
    ("68a1f7dd3d57000fe528da6c669dd163", 68);
    ("unsat", 62);
    ("caf823b0a091f745f0d9fd05b32aa618", 135);
    ("ac90fd1de83e8ee9c48c8d0b3f309e89", 18);
    ("78e34e93a158a415215748034ff105f2", 29);
    ("c73a1036e28088b4c745ea79a5c3f416", 43);
    ("96c4fd7a71ae222c1a24a5aa4eb393da", 113);
    ("5d56cdfd8162d422e3192110319faa35", 208);
    ("c950af68c2150c074902205963c2c303", 55);
    ("6f1e1644c13cc7f4ac3c010e1f2fdd24", 90);
    ("211945568241af38ef1401bdf3b1c8c9", 208);
    ("5dcb601fa189905c0811dc72fe482aac", 50);
    ("cd94aa81f227c76e9bcf181c550852b8", 199);
    ("af610623e87c6364fa047b6302bfac35", 155);
    ("cd94aa81f227c76e9bcf181c550852b8", 199);
    ("unsat", 46);
    ("ea71defb8fb9453098042a299d263d4a", 112);
    ("68a1f7dd3d57000fe528da6c669dd163", 63);
    ("cbb91232afdc985e36451a4013fd7a3f", 276);
  ]

let test_cps_trajectory () =
  let calls = cps_sat_calls () in
  Alcotest.(check int) "SAT calls" 400 (List.length calls);
  let sampled = List.filteri (fun i _ -> i mod 10 = 0) calls in
  List.iteri
    (fun k ((want_v, want_c), (v, c)) ->
      let label = Printf.sprintf "call %d" (10 * k) in
      Alcotest.(check string) (label ^ ": verdict and model") want_v v;
      Alcotest.(check int) (label ^ ": conflicts") want_c c)
    (List.combine cps_trajectories sampled);
  Alcotest.(check int) "total conflicts" 41886
    (List.fold_left (fun acc (_, c) -> acc + c) 0 calls);
  Alcotest.(check string) "digest of all calls" "97a4495fc27675cdb315df468f82edda"
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (List.map (fun (v, c) -> Printf.sprintf "%s/%d" v c) calls))))

let suite =
  [
    ( "sat",
      [
        Alcotest.test_case "trivial cases" `Quick test_trivial;
        Alcotest.test_case "simple sat" `Quick test_simple_sat;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
        QCheck_alcotest.to_alcotest prop_agrees_with_brute_force;
        Alcotest.test_case "cnf constants" `Quick test_cnf_justify_constant;
        QCheck_alcotest.to_alcotest prop_cnf_vs_exhaustive;
        Alcotest.test_case "decision trajectory pinned" `Quick
          test_decision_trajectory;
      ] );
  ]

(* stress: random hard-ish 3-CNF near the phase transition must still be
   decided correctly against brute force *)
let prop_phase_transition =
  QCheck.Test.make ~name:"sat at clause/var ratio 4.2" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let state = ref (seed * 31 + 17) in
      let rand bound =
        state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      let num_vars = 8 in
      let num_clauses = 33 (* ~4.2 ratio *) in
      let clauses =
        List.init num_clauses (fun _ ->
            Array.init 3 (fun _ -> Sat.lit_of (rand num_vars) (rand 2 = 0)))
      in
      let reference = brute_force ~num_vars clauses in
      match Sat.solve ~num_vars clauses with
      | Sat.Sat _ -> reference <> None
      | Sat.Unsat -> reference = None
      | Sat.Timeout _ -> false)

let suite =
  match suite with
  | [ (name, tests) ] ->
    [
      ( name,
        tests
        @ [
            QCheck_alcotest.to_alcotest prop_phase_transition;
            Alcotest.test_case "cps miter trajectory pinned" `Quick
              test_cps_trajectory;
          ] );
    ]
  | other -> other
