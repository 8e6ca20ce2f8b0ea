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
          Sigstore.class_has_plus st c,
          Sigstore.class_has_minus st c ))
  in
  let membership =
    List.init n (fun p -> (Sigstore.class_of st p, Sigstore.member_complemented st p))
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
      ] );
  ]
