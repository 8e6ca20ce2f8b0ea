(* Signature-store invariants: incremental maintenance vs. full
   rebuild, counterexample folding, TFO-only re-simulation, and the
   hash-index/linear-scan candidate identity. *)

module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Sigstore = Sim.Sigstore
module Estimator = Power.Estimator
module Candidates = Powder.Candidates
module Subst = Powder.Subst

let lib = Gatelib.Library.lib2
let cell name = Gatelib.Library.find lib name

(* Observable state of a store: every row word-for-word, plus the full
   class structure.  Two stores over equal engine states must agree on
   all of it — the incremental path included. *)
let store_fingerprint st =
  let n = Sigstore.num_signals st in
  let rows = List.init n (fun p -> Array.to_list (Sigstore.row st p)) in
  let irows = List.init n (fun p -> Array.to_list (Sigstore.irow st p)) in
  let classes =
    List.init (Sigstore.num_classes st) (fun c ->
        ( Array.to_list (Sigstore.class_canon st c),
          Array.to_list (Sigstore.class_icanon st c),
          Array.to_list (Sigstore.class_members st c),
          (Sigstore.class_polarity st).(c) ))
  in
  let membership =
    List.init n (fun p -> (Sigstore.class_of st p, (Sigstore.complemented st).(p)))
  in
  ( Array.to_list (Sigstore.signals st),
    rows,
    irows,
    classes,
    membership,
    Array.to_list (Sigstore.icanon_flat st),
    Sigstore.icanon_stride st )

(* A structural edit the resim/maintenance tests can run: the first
   acyclic stem-to-signal rewiring of a random circuit.  Nothing about
   it needs to be permissible — these tests exercise simulation
   plumbing, not logic equivalence. *)
let first_acyclic_stem_subst circ =
  let gates = Circuit.live_gates circ in
  let candidates =
    List.concat_map
      (fun a ->
        if Circuit.num_fanouts circ a = 0 then []
        else
          List.filter_map
            (fun b ->
              if b = a then None
              else
                let s = { Subst.target = Subst.Stem a; source = Subst.Signal b } in
                if Subst.creates_cycle circ s then None else Some s)
            gates)
      gates
  in
  match candidates with
  | s :: _ -> s
  | [] -> Alcotest.fail "no acyclic stem substitution in test circuit"

(* --- TFO-only resim == full resim, word for word ------------------ *)

let test_resim_after_edit_matches_full () =
  List.iter
    (fun seed ->
      let circ = Build.random_circuit ~seed ~n_pis:6 ~n_gates:30 in
      let eng_inc = Engine.create circ ~words:4 in
      let eng_full = Engine.create circ ~words:4 in
      Engine.randomize eng_inc (Sim.Rng.create 11L);
      Engine.randomize eng_full (Sim.Rng.create 11L);
      let s = first_acyclic_stem_subst circ in
      (* both engines share [circ], so one apply edits both worlds *)
      let root = Subst.apply circ s in
      let touched = Engine.resim_after_edit eng_inc root in
      Engine.resim_all eng_full;
      Alcotest.(check bool) "some nodes touched" true (touched >= 0);
      Circuit.iter_live circ (fun id ->
          Alcotest.(check (list int64))
            (Printf.sprintf "seed %d node %d" seed id)
            (Array.to_list (Engine.value eng_full id))
            (Array.to_list (Engine.value eng_inc id))))
    [ 3; 17; 99 ]

(* --- incremental store maintenance == rebuild --------------------- *)

let test_update_after_edit_matches_rebuild () =
  List.iter
    (fun seed ->
      let circ = Build.random_circuit ~seed ~n_pis:6 ~n_gates:40 in
      let base = Engine.create circ ~words:4 in
      let cex = Engine.create circ ~words:2 in
      Engine.randomize base (Sim.Rng.create 5L);
      Engine.randomize cex (Sim.Rng.create 23L);
      let st = Sigstore.create ~cex ~base () in
      Sigstore.sync st;
      let s = first_acyclic_stem_subst circ in
      let root = Subst.apply circ s in
      ignore (Engine.resim_after_edit base root);
      ignore (Engine.resim_after_edit cex root);
      (* incremental: only the edit's TFO rows are re-snapshot *)
      Sigstore.update_after_edit st root;
      (* reference: a fresh store rebuilt from scratch over the same
         engine states *)
      let st_ref = Sigstore.create ~cex ~base () in
      Sigstore.sync st_ref;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: incremental == rebuild" seed)
        true
        (store_fingerprint st = store_fingerprint st_ref))
    [ 7; 42; 123 ]

(* --- counterexample folding makes a refuted pair unfindable ------- *)

let test_cex_folding_splits_class () =
  (* x = a AND b and y = a OR b agree whenever a = b.  Feed the base
     engine only such patterns: the store must alias x and y into one
     compatibility class — exactly the false positive the exact checker
     would refute with the assignment a=1, b=0.  Folding that
     counterexample into the cex engine must split the class, so the
     pair can never be generated again. *)
  let circ = Circuit.create lib in
  let a = Circuit.add_pi circ ~name:"a" in
  let b = Circuit.add_pi circ ~name:"b" in
  let x = Circuit.add_cell circ ~name:"x" (cell "and2") [| a; b |] in
  let y = Circuit.add_cell circ ~name:"y" (cell "or2") [| a; b |] in
  ignore (Circuit.add_po circ ~name:"ox" x);
  ignore (Circuit.add_po circ ~name:"oy" y);
  let base = Engine.create circ ~words:1 in
  let agree = 0x5A5A_F0F0_3C3C_00FFL in
  Engine.set_value base a [| agree |];
  Engine.set_value base b [| agree |];
  Engine.resim_all base;
  let cex = Engine.create circ ~words:1 in
  Engine.set_value cex a [| 0L |];
  Engine.set_value cex b [| 0L |];
  Engine.resim_all cex;
  let st = Sigstore.create ~cex ~base () in
  Sigstore.sync st;
  let px = Sigstore.position st x and py = Sigstore.position st y in
  Alcotest.(check bool) "aliased before the cex" true
    (Sigstore.class_of st px = Sigstore.class_of st py);
  (* fold the distinguishing assignment a=1, b=0 into cex pattern 0 *)
  Engine.set_value cex a [| 1L |];
  Engine.resim_all cex;
  Sigstore.invalidate st;
  Sigstore.sync st;
  let px = Sigstore.position st x and py = Sigstore.position st y in
  Alcotest.(check bool) "split after the cex" false
    (Sigstore.class_of st px = Sigstore.class_of st py);
  (* and the signature lookup of x's row no longer reaches y's class *)
  match Sigstore.lookup st (Sigstore.row st px) with
  | None -> Alcotest.fail "x's own signature must stay findable"
  | Some (c, _) ->
    Alcotest.(check bool) "lookup avoids the refuted alias" false
      (c = Sigstore.class_of st py)

(* --- hash index == linear scan, candidate for candidate ----------- *)

let same_candidates label circ hash scan =
  Alcotest.(check int) (label ^ ": same count") (List.length hash) (List.length scan);
  List.iter2
    (fun (s1, g1) (s2, g2) ->
      Alcotest.(check string) (label ^ ": same candidate")
        (Subst.describe circ s1) (Subst.describe circ s2);
      Alcotest.(check bool) "same gain" true
        (Subst.total_gain g1 = Subst.total_gain g2))
    hash scan

let test_hash_matches_scan () =
  let generate ?store est index =
    Candidates.generate ?store ~config:{ Candidates.default_config with index } est
  in
  List.iter
    (fun seed ->
      let circ = Build.random_circuit ~seed ~n_pis:7 ~n_gates:50 in
      let eng = Engine.create circ ~words:8 in
      Engine.randomize eng (Sim.Rng.create 31L);
      let est = Estimator.create eng in
      same_candidates (Printf.sprintf "seed %d" seed) circ
        (generate est Candidates.Hash) (generate est Candidates.Scan);
      (* the same identity on a store kept up to date incrementally
         across accepted substitutions, as the optimizer's accept path
         does *)
      let cex = Engine.create circ ~words:2 in
      Engine.randomize cex (Sim.Rng.create 37L);
      let store = Sigstore.create ~cex ~base:eng () in
      let accepted (s, _) =
        (not (Subst.creates_cycle circ s))
        && Powder.Check.permissible circ s = Powder.Check.Permissible
      in
      let rec edit_and_compare edits =
        let hash = generate ~store est Candidates.Hash in
        same_candidates
          (Printf.sprintf "seed %d after %d edits" seed edits)
          circ hash
          (generate ~store est Candidates.Scan);
        if edits < 3 then
          match List.find_opt accepted hash with
          | None -> Alcotest.fail "no permissible candidate to apply"
          | Some (s, _) ->
            let src = Subst.apply circ s in
            ignore (Estimator.update_after_edit est src);
            ignore (Engine.resim_after_edit cex src);
            Sigstore.update_after_edit store src;
            edit_and_compare (edits + 1)
      in
      edit_and_compare 0)
    [ 2; 29; 77 ]

(* Top-k pruning is exact: keeping the best 4 per target must give, for
   every target, the first 4 of the unbounded list (where the prune
   never fires), in both index modes. *)
let test_top_k_pruning_exact () =
  let generate est index per_target =
    Candidates.generate ~config:{ Candidates.default_config with index; per_target } est
  in
  let first_per_target k cands =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (s, _) ->
        let n = Option.value ~default:0 (Hashtbl.find_opt seen s.Subst.target) in
        Hashtbl.replace seen s.Subst.target (n + 1);
        n < k)
      cands
  in
  let check label circ =
    let eng = Engine.create circ ~words:8 in
    Engine.randomize eng (Sim.Rng.create 41L);
    let est = Estimator.create eng in
    List.iter
      (fun index ->
        let label =
          label ^ match index with Candidates.Hash -> " hash" | Candidates.Scan -> " scan"
        in
        same_candidates label circ (generate est index 4)
          (first_per_target 4 (generate est index max_int));
        Alcotest.(check int) (label ^ ": per_target 0") 0
          (List.length (generate est index 0)))
      [ Candidates.Hash; Candidates.Scan ]
  in
  (match Circuits.Suite.find "cps" with
  | None -> Alcotest.fail "cps not in the suite"
  | Some spec -> check "cps" (Circuits.Suite.mapped spec));
  for seed = 1 to 20 do
    check (Printf.sprintf "fuzz %d" seed)
      (Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed (Int64.of_int seed)))
  done

(* --- observability table == flip-and-resimulate, row for row ----- *)

(* Every stem row of the table and every branch row it derives must
   equal the perturbation mask computed on each engine and folded like
   a signature row; computing the table leaves both engines as they
   were. *)
let check_care_table label store =
  let circ = Sigstore.circuit store in
  let engines = Sigstore.base_engine store :: Option.to_list (Sigstore.cex_engine store) in
  let fold f = Array.concat (List.map f engines) in
  let snapshot () =
    List.map
      (fun e -> List.init (Circuit.num_nodes circ) (fun id ->
           if Circuit.is_live circ id then Array.to_list (Engine.value e id) else []))
      engines
  in
  let before = snapshot () in
  Sigstore.compute_care store;
  Alcotest.(check bool) (label ^ ": engines restored") true (before = snapshot ());
  let row = Alcotest.(array int64) in
  Circuit.iter_live circ (fun id ->
      (match Circuit.kind circ id with
      | Circuit.Cell _ ->
        Alcotest.check row
          (Printf.sprintf "%s: stem %d" label id)
          (fold (fun e -> Engine.stem_observability e id))
          (Sigstore.stem_obs store id)
      | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ());
      List.iter
        (fun { Circuit.sink; pin_index = pin } ->
          Alcotest.check row
            (Printf.sprintf "%s: branch %d -> %d.%d" label id sink pin)
            (fold (fun e -> Engine.branch_observability e ~sink ~pin))
            (Sigstore.branch_obs store ~sink ~pin))
        (Circuit.fanouts circ id))

(* The table on a fresh netlist and after each of up to 3 accepted
   substitutions, with every engine and the store maintained the way
   the optimizer's accept path does. *)
let care_table_across_edits label circ =
  let base = Engine.create circ ~words:4 in
  Engine.randomize base (Sim.Rng.create 43L);
  let cex = Engine.create circ ~words:2 in
  Engine.randomize cex (Sim.Rng.create 47L);
  let est = Estimator.create base in
  let store = Sigstore.create ~cex ~base () in
  Sigstore.sync store;
  let accepted (s, _) =
    (not (Subst.creates_cycle circ s))
    && Powder.Check.permissible circ s = Powder.Check.Permissible
  in
  let rec go edits =
    let label = Printf.sprintf "%s after %d edits" label edits in
    check_care_table label store;
    if edits < 3 then
      match List.find_opt accepted (Candidates.generate ~store est) with
      | None -> ()
      | Some (s, _) ->
        let src = Subst.apply circ s in
        ignore (Estimator.update_after_edit est src);
        ignore (Engine.resim_after_edit cex src);
        Sigstore.update_after_edit store src;
        Alcotest.check_raises (label ^ ": maintenance drops the table")
          (Invalid_argument "Sigstore: observability table not computed")
          (fun () -> ignore (Sigstore.branch_obs store ~sink:src ~pin:0));
        go (edits + 1)
  in
  go 0

let test_care_table_matches_perturbation () =
  (match Circuits.Suite.find "cps" with
  | None -> Alcotest.fail "cps not in the suite"
  | Some spec -> care_table_across_edits "cps" (Circuits.Suite.mapped spec));
  for seed = 1 to 30 do
    care_table_across_edits (Printf.sprintf "fuzz %d" seed)
      (Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed (Int64.of_int seed)))
  done

(* The local rule's corner cases on one hand-built netlist: [g1] drives
   a PO and a gate (two live fanouts, one of them a PO branch), [g3] is
   [and2(a, a)] (one signal on both pins), [g5] has no fanout at all,
   and [g2] has a single fanout branch into [g4]. *)
let test_care_table_corner_cases () =
  let circ = Circuit.create lib in
  let a = Circuit.add_pi circ ~name:"a" in
  let b = Circuit.add_pi circ ~name:"b" in
  let c = Circuit.add_pi circ ~name:"c" in
  let g1 = Circuit.add_cell circ ~name:"g1" (cell "and2") [| a; b |] in
  let g2 = Circuit.add_cell circ ~name:"g2" (cell "or2") [| g1; c |] in
  let g3 = Circuit.add_cell circ ~name:"g3" (cell "and2") [| a; a |] in
  let g4 = Circuit.add_cell circ ~name:"g4" (cell "xor2") [| g3; g2 |] in
  let _g5 = Circuit.add_cell circ ~name:"g5" (cell "inv1") [| b |] in
  ignore (Circuit.add_po circ ~name:"o1" g1);
  ignore (Circuit.add_po circ ~name:"o4" g4);
  List.iter
    (fun cex_words ->
      let base = Engine.create circ ~words:2 in
      Engine.randomize base (Sim.Rng.create 53L);
      let cex =
        match cex_words with
        | 0 -> None
        | w ->
          let e = Engine.create circ ~words:w in
          Engine.randomize e (Sim.Rng.create 59L);
          Some e
      in
      let store = Sigstore.create ?cex ~base () in
      Sigstore.sync store;
      check_care_table (Printf.sprintf "corner cases, %d cex words" cex_words) store)
    [ 0; 1 ]

(* --- the 3-signal pool: class-indexed loop == per-signal scan ------ *)

(* Small pools make the abort threshold bite early, and a 3-signal-only
   run leaves the pool as the only candidate source.  The second netlist
   gives many classes both polarities (a gate and its inverter image,
   each observed), so the two-sided abort and the complemented-member
   distance both decide pool membership. *)
let test_pool_matches_scan () =
  (* compares every configuration; returns whether some class of the
     netlist's store holds both polarities *)
  let check label circ =
    let eng = Engine.create circ ~words:8 in
    Engine.randomize eng (Sim.Rng.create 61L);
    let cex = Engine.create circ ~words:2 in
    Engine.randomize cex (Sim.Rng.create 67L);
    let est = Estimator.create eng in
    let store = Sigstore.create ~cex ~base:eng () in
    List.iter
      (fun (pool_limit, classes) ->
        let generate index =
          Candidates.generate ~store
            ~config:{ Candidates.default_config with index; pool_limit; classes }
            est
        in
        let label =
          Printf.sprintf "%s pool %d%s" label pool_limit
            (if classes = Subst.all_klasses then "" else " 3-signal only")
        in
        same_candidates label circ (generate Candidates.Hash) (generate Candidates.Scan))
      [ (2, Subst.all_klasses); (16, Subst.all_klasses);
        (2, [ Subst.Os3; Subst.Is3 ]); (16, [ Subst.Os3; Subst.Is3 ]) ];
    let both = Sigstore.polarity_plus lor Sigstore.polarity_minus in
    Array.mem both (Sigstore.class_polarity store)
  in
  (match Circuits.Suite.find "cps" with
  | None -> Alcotest.fail "cps not in the suite"
  | Some spec -> ignore (check "cps" (Circuits.Suite.mapped spec)));
  let circ = Build.random_circuit ~seed:29 ~n_pis:7 ~n_gates:50 in
  List.iteri
    (fun i g ->
      if i < 12 then begin
        let n = Circuit.add_cell circ (cell "inv1") [| g |] in
        ignore (Circuit.add_po circ ~name:(Printf.sprintf "inv%d" i) n)
      end)
    (Circuit.live_gates circ);
  Alcotest.(check bool) "some class holds both polarities" true
    (check "inverted images" circ)

let suite =
  [
    ( "sigstore",
      [
        Alcotest.test_case "resim_after_edit == resim_all" `Quick
          test_resim_after_edit_matches_full;
        Alcotest.test_case "update_after_edit == rebuild" `Quick
          test_update_after_edit_matches_rebuild;
        Alcotest.test_case "cex folding splits the aliased class" `Quick
          test_cex_folding_splits_class;
        Alcotest.test_case "hash index == linear scan" `Quick
          test_hash_matches_scan;
        Alcotest.test_case "top-k pruning is exact" `Quick
          test_top_k_pruning_exact;
        Alcotest.test_case "care table == perturbation" `Quick
          test_care_table_matches_perturbation;
        Alcotest.test_case "care table corner cases" `Quick
          test_care_table_corner_cases;
        Alcotest.test_case "pool loop == reference scan" `Quick
          test_pool_matches_scan;
      ] );
  ]
