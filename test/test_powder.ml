module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Estimator = Power.Estimator
module Subst = Powder.Subst
module Candidates = Powder.Candidates
module Optimizer = Powder.Optimizer
module Equiv = Atpg.Equiv

let exhaustive_estimator c =
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  Estimator.create eng

let fig2_subst c =
  match (Circuit.find_by_name c "d", Circuit.find_by_name c "e") with
  | Some d, Some e ->
    { Subst.target = Subst.Branch { sink = d; pin = 0 }; source = Subst.Signal e }
  | _ -> Alcotest.fail "fig2 nodes missing"

let test_subst_klass () =
  let _c, _, _, _, d, e, f = Build.fig2_a () in
  let is2 = { Subst.target = Subst.Branch { sink = d; pin = 0 }; source = Subst.Signal e } in
  Alcotest.(check string) "is2" "IS2" (Subst.klass_name (Subst.klass is2));
  let os2 = { Subst.target = Subst.Stem d; source = Subst.Inverted e } in
  Alcotest.(check string) "os2" "OS2" (Subst.klass_name (Subst.klass os2));
  let and2 = Gatelib.Library.find Build.lib "and2" in
  let os3 = { Subst.target = Subst.Stem f; source = Subst.Gate2 (and2, d, e) } in
  Alcotest.(check string) "os3" "OS3" (Subst.klass_name (Subst.klass os3));
  let is3 = { Subst.target = Subst.Branch { sink = f; pin = 0 }; source = Subst.Gate2 (and2, d, e) } in
  Alcotest.(check string) "is3" "IS3" (Subst.klass_name (Subst.klass is3))

let test_apply_fig2 () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let original = Circuit.clone c in
  let s = fig2_subst c in
  Alcotest.(check bool) "no cycle" false (Subst.creates_cycle c s);
  ignore (Subst.apply c s);
  (match Circuit.validate c with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "still equivalent" true
    (Equiv.check original c = Equiv.Equivalent)

let test_gain_matches_measurement () =
  (* predicted total gain must equal the measured power delta on the
     same pattern set *)
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let est = exhaustive_estimator c in
  let s = fig2_subst c in
  let predicted = Subst.total_gain (Subst.gain_full est s) in
  let before = Estimator.total est in
  let src = Subst.apply c s in
  ignore (Estimator.update_after_edit est src);
  let measured = before -. Estimator.total est in
  Alcotest.(check (float 1e-9)) "gain prediction" measured predicted

let test_gain_components_signs () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let est = exhaustive_estimator c in
  let s = fig2_subst c in
  let g = Subst.gain_ab est s in
  Alcotest.(check bool) "pg_a >= 0" true (g.Subst.pg_a >= 0.0);
  Alcotest.(check bool) "pg_b <= 0" true (g.Subst.pg_b <= 0.0)

let test_candidates_contain_fig2 () =
  (* with biased input probabilities the classic Figure-2 rewiring must
     show up among the generated candidates *)
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let eng = Engine.create c ~words:8 in
  let probs pi = if Circuit.name c pi = "c" then 0.15 else 0.5 in
  Engine.randomize eng ~input_probs:probs (Sim.Rng.create 5L);
  let est = Estimator.create eng in
  let cands = Candidates.generate est in
  let found =
    List.exists
      (fun (s, _) ->
        match (s.Subst.target, s.Subst.source) with
        | Subst.Branch { sink; pin = 0 }, Subst.Signal src ->
          sink = d && src = e
        | _ -> false)
      cands
  in
  Alcotest.(check bool) "fig2 candidate found" true found

let test_optimize_fig2 () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let original = Circuit.clone c in
  let config =
    { Optimizer.default_config with
      words = 8;
      input_prob = (fun name -> if name = "c" then 0.15 else 0.5);
    }
  in
  let report = Optimizer.optimize ~config c in
  Alcotest.(check bool) "power reduced" true
    (report.Optimizer.final_power < report.Optimizer.initial_power);
  Alcotest.(check bool) "equivalent" true
    (Equiv.check original c = Equiv.Equivalent)

let test_optimize_respects_delay () =
  let c = Build.random_circuit ~seed:91 ~n_pis:7 ~n_gates:40 in
  let config =
    { Optimizer.default_config with words = 8; delay = Optimizer.Keep_initial }
  in
  let report = Optimizer.optimize ~config c in
  (match report.Optimizer.delay_constraint with
  | Some limit ->
    Alcotest.(check bool)
      (Printf.sprintf "final delay %.2f <= constraint %.2f"
         report.Optimizer.final_delay limit)
      true
      (report.Optimizer.final_delay <= limit +. 1e-6)
  | None -> Alcotest.fail "expected a constraint");
  Alcotest.(check bool) "power not increased" true
    (report.Optimizer.final_power <= report.Optimizer.initial_power +. 1e-9)

let test_class_restriction () =
  let c = Build.random_circuit ~seed:17 ~n_pis:7 ~n_gates:40 in
  let config =
    { Optimizer.default_config with words = 8; classes = [ Subst.Os2 ] }
  in
  let report = Optimizer.optimize ~config c in
  List.iter
    (fun (k, st) ->
      if k <> Subst.Os2 then
        Alcotest.(check int)
          (Subst.klass_name k ^ " disabled")
          0 st.Optimizer.accepted)
    report.Optimizer.by_class

let prop_optimize_preserves_function =
  QCheck.Test.make ~name:"optimize preserves function" ~count:8
    QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:7 ~n_gates:35 in
      let original = Circuit.clone c in
      let config = { Optimizer.default_config with words = 8 } in
      let report = Optimizer.optimize ~config c in
      (match Circuit.validate c with Ok () -> () | Error e -> failwith e);
      Equiv.check original c = Equiv.Equivalent
      && report.Optimizer.final_power <= report.Optimizer.initial_power +. 1e-9)

let prop_optimize_never_raises_power =
  QCheck.Test.make ~name:"optimize never raises power (exhaustive est)" ~count:5
    QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:30 in
      (* measure real power exhaustively before and after *)
      let before = Estimator.total (exhaustive_estimator (Circuit.clone c)) in
      let config = { Optimizer.default_config with words = 8 } in
      ignore (Optimizer.optimize ~config c);
      let after = Estimator.total (exhaustive_estimator c) in
      (* Monte-Carlo vs exhaustive can disagree slightly; allow 5% slack *)
      after <= before *. 1.05 +. 1e-9)

let prop_gain_prediction_exact =
  (* for every permissible candidate: PG_A + PG_B + PG_C predicted on
     the pattern set must equal the measured power delta after applying
     the substitution (same patterns) *)
  QCheck.Test.make ~name:"gain prediction = measured delta" ~count:10
    QCheck.(int_bound 9999)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:28 in
      let eng = Engine.create c ~words:4 in
      Engine.randomize eng (Sim.Rng.create 9L);
      let est = Estimator.create eng in
      let cands = Candidates.generate est in
      (* take the first few provably permissible, apply each to a fresh
         clone-world: easiest is to re-generate after each apply; test
         only the first applicable candidate per circuit *)
      let rec try_first = function
        | [] -> true
        | (s, _) :: rest ->
          if
            Subst.creates_cycle c s
            || Powder.Check.permissible c s <> Powder.Check.Permissible
          then try_first rest
          else begin
            let predicted = Subst.total_gain (Subst.gain_full est s) in
            let before = Estimator.total est in
            let src = Subst.apply c s in
            ignore (Estimator.update_after_edit est src);
            let measured = before -. Estimator.total est in
            Float.abs (predicted -. measured) < 1e-6
          end
      in
      try_first cands)

let suite =
  [
    ( "powder",
      [
        Alcotest.test_case "subst classes" `Quick test_subst_klass;
        Alcotest.test_case "apply fig2" `Quick test_apply_fig2;
        Alcotest.test_case "gain = measured delta" `Quick test_gain_matches_measurement;
        Alcotest.test_case "gain component signs" `Quick test_gain_components_signs;
        Alcotest.test_case "fig2 candidate generated" `Quick test_candidates_contain_fig2;
        Alcotest.test_case "optimize fig2" `Quick test_optimize_fig2;
        Alcotest.test_case "delay constraint respected" `Quick test_optimize_respects_delay;
        Alcotest.test_case "class restriction" `Quick test_class_restriction;
        QCheck_alcotest.to_alcotest prop_gain_prediction_exact;
        QCheck_alcotest.to_alcotest prop_optimize_preserves_function;
        QCheck_alcotest.to_alcotest prop_optimize_never_raises_power;
      ] );
  ]

let test_optimizer_deterministic () =
  let run () =
    match Circuits.Suite.find "rd84" with
    | None -> Alcotest.fail "rd84"
    | Some spec ->
      let c = Circuits.Suite.mapped spec in
      Optimizer.optimize ~config:{ Optimizer.default_config with words = 8 } c
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check (float 1e-12)) "same final power" r1.Optimizer.final_power
    r2.Optimizer.final_power;
  Alcotest.(check int) "same substitutions" r1.Optimizer.funnel.substitutions
    r2.Optimizer.funnel.substitutions;
  Alcotest.(check (float 1e-12)) "same area" r1.Optimizer.final_area
    r2.Optimizer.final_area

let deterministic_tests =
  [ Alcotest.test_case "optimizer deterministic" `Quick test_optimizer_deterministic ]

let suite = suite @ [ ("powder-determinism", deterministic_tests) ]

(* Satellite: the PG_A + PG_B + PG_C decomposition telescopes exactly
   over every accepted substitution of a run.  With
   [checkpoint_every = 0] one estimator survives the whole run, so the
   per-accept measured deltas bucketed by class must sum to the total
   power drop.  Collect at least 50 accepts across fuzzed netlists. *)
let test_gain_identity_on_fuzzed_accepts () =
  let accepts = ref 0 and seed = ref 0 in
  while !accepts < 50 && !seed < 40 do
    let case = Int64.of_int (900 + !seed) in
    let c = Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed case) in
    let config =
      {
        Optimizer.default_config with
        words = 4;
        seed = Sim.Rng.derive case "test/gain";
        max_rounds = 4;
        max_substitutions = 50;
        checkpoint_every = 0;
        checkpoint_sink = None;
        check_seconds = Some 2.0;
        run_seconds = Some 5.0;
      }
    in
    let r = Optimizer.optimize ~config c in
    let summed =
      List.fold_left
        (fun acc (_, st) -> acc +. st.Optimizer.power_gain)
        0.0 r.Optimizer.by_class
    in
    let delta = r.Optimizer.initial_power -. r.Optimizer.final_power in
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld: by-class gains telescope" case)
      true
      (Float.abs (summed -. delta)
      <= 1e-6 *. Float.max 1.0 (Float.abs r.Optimizer.initial_power));
    accepts := !accepts + r.Optimizer.funnel.substitutions;
    incr seed
  done;
  Alcotest.(check bool) "covered >= 50 accepted substitutions" true
    (!accepts >= 50)

let fuzzed_gain_tests =
  [
    Alcotest.test_case "gain telescopes on fuzzed accepts" `Quick
      test_gain_identity_on_fuzzed_accepts;
  ]

let suite = suite @ [ ("powder-fuzzed-gain", fuzzed_gain_tests) ]

(* [gain_ab] over the shared per-domain region mask of
   [Circuit.with_dominated_region] gives the floats of a fresh
   [dominated_region_members] mask, bit for bit, on every stem
   candidate of a first cps generate and of fuzzed netlists (their
   generated candidates plus a random signal and inverted source per
   stem); the shared mask is all false after every call, also after a
   callback that raises or a refused nested call. *)
let test_shared_region_mask () =
  let compared = ref 0 in
  let bits g = (Int64.bits_of_float g.Subst.pg_a, Int64.bits_of_float g.Subst.pg_b) in
  (* the mask a later call sees holds exactly that call's members *)
  let clean circ what =
    match Circuit.live_gates circ with
    | [] -> ()
    | probe :: _ ->
      Circuit.with_dominated_region circ probe (fun region ->
          let mask, members = region () in
          Array.iteri
            (fun id set ->
              if set <> Array.mem id members then
                Alcotest.failf "%s: the shared region mask was not all false" what)
            mask)
  in
  let compare_on label circ est substs =
    let clean = clean circ in
    List.iter
      (fun s ->
        match s.Subst.target with
        | Subst.Branch _ -> ()
        | Subst.Stem a ->
          let fresh = Subst.gain_ab ~dom:(Circuit.dominated_region_members circ a) est s in
          let shared =
            Circuit.with_dominated_region circ a (fun region ->
                Subst.gain_ab ~dom:(region ()) est s)
          in
          clean label;
          let unshared = Subst.gain_ab est s in
          clean label;
          if bits fresh <> bits shared || bits fresh <> bits unshared then
            Alcotest.failf "%s: %s gains differ between masks" label
              (Subst.describe circ s);
          incr compared)
      substs;
    (match Circuit.live_gates circ with
    | [] -> ()
    | a :: _ -> (
      (match
         Circuit.with_dominated_region circ a (fun region ->
             ignore (region ());
             raise Exit)
       with
      | () -> ()
      | exception Exit -> ());
      clean (label ^ " after a raising callback");
      match
        Circuit.with_dominated_region circ a (fun region ->
            ignore (region ());
            Circuit.with_dominated_region circ a (fun _ -> ()))
      with
      | () -> Alcotest.failf "%s: a nested region was not refused" label
      | exception Invalid_argument _ -> clean (label ^ " after a nested call")))
  in
  let cps =
    match Circuits.Suite.find "cps" with
    | Some spec -> Circuits.Suite.mapped spec
    | None -> Alcotest.fail "cps is not in the suite"
  in
  let eng = Engine.create cps ~words:16 in
  Engine.randomize_sharded ~seed:Optimizer.default_config.Optimizer.seed eng;
  let est = Estimator.create eng in
  compare_on "cps" cps est (List.map fst (Candidates.generate est));
  let cps_count = !compared in
  for seed = 1 to 30 do
    let c = Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed (Int64.of_int (700 + seed))) in
    let eng = Engine.create c ~words:4 in
    Engine.randomize eng (Sim.Rng.create (Int64.of_int seed));
    let est = Estimator.create eng in
    let rng = Random.State.make [| seed |] in
    let nodes = Array.of_list (Circuit.pis c @ Circuit.live_gates c) in
    let random =
      List.concat_map
        (fun a ->
          let b = nodes.(Random.State.int rng (Array.length nodes)) in
          [ { Subst.target = Subst.Stem a; source = Subst.Signal b };
            { Subst.target = Subst.Stem a; source = Subst.Inverted b } ])
        (Circuit.live_gates c)
    in
    compare_on (Printf.sprintf "fuzz seed %d" seed) c est
      (List.map fst (Candidates.generate est) @ random)
  done;
  (* 443 and 2515 today *)
  Alcotest.(check bool) "cps stem candidates compared" true (cps_count > 400);
  Alcotest.(check bool) "fuzzed stem candidates compared" true
    (!compared - cps_count > 2000)

let suite =
  suite
  @ [
      ( "powder-region-mask",
        [ Alcotest.test_case "shared region mask == fresh mask" `Quick
            test_shared_region_mask ] );
    ]
