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
          Array.to_list (Sigstore.class_members st c) ))
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
      (* incremental: the edit marks its TFO rows stale, and the sync
         re-snapshots only those *)
      Sigstore.update_after_edit st root;
      Sigstore.sync st;
      (* reference: a fresh store rebuilt from scratch over the same
         engine states *)
      let st_ref = Sigstore.create ~cex ~base () in
      Sigstore.sync st_ref;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: incremental == rebuild" seed)
        true
        (store_fingerprint st = store_fingerprint st_ref))
    [ 7; 42; 123 ]

(* --- deferred maintenance: edits and folds in any order, one sync -- *)

(* A random acyclic rewiring of a stem or of one branch to an existing
   signal, its inverse, or a new and2 over two signals; [None] when 50
   draws found none.  Like [first_acyclic_stem_subst], nothing about it
   needs to be permissible. *)
let random_subst st circ =
  let gates = Array.of_list (Circuit.live_gates circ) in
  let signals = Array.of_list (Circuit.pis circ @ Circuit.live_gates circ) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let rec draw k =
    if k = 0 then None
    else
      let a = pick gates in
      let target =
        match Circuit.fanouts circ a with
        | _ :: _ as fs when Random.State.bool st ->
          let p = List.nth fs (Random.State.int st (List.length fs)) in
          Subst.Branch { sink = p.Circuit.sink; pin = p.Circuit.pin_index }
        | _ -> Subst.Stem a
      in
      let b = pick signals in
      let source =
        match Random.State.int st 3 with
        | 0 -> Subst.Signal b
        | 1 -> Subst.Inverted b
        | _ -> Subst.Gate2 (cell "and2", b, pick signals)
      in
      let s = { Subst.target; source } in
      if b = a || Circuit.num_fanouts circ a = 0 || Subst.creates_cycle circ s
      then draw (k - 1)
      else Some s
  in
  draw 50

(* 1-6 accepted edits, each preceded at random by a counterexample fold
   (new cex words, re-simulation, [invalidate]), then a single sync:
   the store must equal a fresh rebuild over the same engines, and
   before that sync every read of the class structure must refuse. *)
let prop_deferred_sync_matches_rebuild =
  QCheck.Test.make ~name:"edits and folds, one sync == rebuild" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let circ = Build.random_circuit ~seed ~n_pis:6 ~n_gates:30 in
      let base = Engine.create circ ~words:2 in
      let cex = Engine.create circ ~words:1 in
      Engine.randomize base (Sim.Rng.create 5L);
      Engine.randomize cex (Sim.Rng.create 23L);
      let store = Sigstore.create ~cex ~base () in
      Sigstore.sync store;
      let touched = ref false in
      for _ = 1 to 1 + Random.State.int st 6 do
        if Random.State.int st 4 = 0 then begin
          List.iter
            (fun pi ->
              Engine.set_value cex pi [| Random.State.int64 st Int64.max_int |])
            (Circuit.pis circ);
          Engine.resim_all cex;
          Sigstore.invalidate store;
          touched := true
        end;
        match random_subst st circ with
        | None -> ()
        | Some s ->
          let src = Subst.apply circ s in
          ignore (Engine.resim_after_edit base src);
          ignore (Engine.resim_after_edit cex src);
          Sigstore.update_after_edit store src;
          touched := true
      done;
      let refuses f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let stale_reads_refused =
        (not !touched)
        || refuses (fun () -> ignore (Sigstore.signals store))
           && refuses (fun () -> ignore (Sigstore.num_classes store))
      in
      Sigstore.sync store;
      let fresh = Sigstore.create ~cex ~base () in
      Sigstore.sync fresh;
      stale_reads_refused && store_fingerprint store = store_fingerprint fresh)

(* Every read that a missed sync would leave stale refuses loudly: on a
   new store, after an edit, and after an invalidation. *)
let test_unsynced_reads_raise () =
  let circ = Build.random_circuit ~seed:11 ~n_pis:6 ~n_gates:30 in
  let base = Engine.create circ ~words:2 in
  Engine.randomize base (Sim.Rng.create 5L);
  let store = Sigstore.create ~base () in
  let refused label =
    List.iter
      (fun (name, read) ->
        Alcotest.check_raises
          (Printf.sprintf "%s: %s" label name)
          (Invalid_argument ("Sigstore." ^ name ^ ": store not synced"))
          read)
      [
        ("signals", fun () -> ignore (Sigstore.signals store));
        ("num_classes", fun () -> ignore (Sigstore.num_classes store));
        ("compute_care", fun () -> Sigstore.compute_care store);
        ("compute_lanes", fun () -> Sigstore.compute_lanes store);
      ]
  in
  refused "new store";
  Sigstore.sync store;
  ignore (Sigstore.signals store);
  let src = Subst.apply circ (first_acyclic_stem_subst circ) in
  ignore (Engine.resim_after_edit base src);
  Sigstore.update_after_edit store src;
  refused "pending edit";
  Sigstore.sync store;
  Sigstore.compute_lanes store;
  Sigstore.invalidate store;
  refused "invalidated"

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
        Sigstore.sync store;
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

(* --- the 3-signal pool: bit-sliced lane kernel == per-signal scan --- *)

(* [covered] of a care row by the pool's rule: the densest packed care
   limbs until they hold min(128, |care|) positions. *)
let covered_of care =
  let pcs = Array.map Logic.Bits.popcount62 (Logic.Bits.pack_words care) in
  Array.sort (fun a b -> compare b a) pcs;
  let want = min 128 (Array.fold_left ( + ) 0 pcs) in
  let rec go i acc = if acc >= want then acc else go (i + 1) (acc + pcs.(i)) in
  go 0 0

(* Hash == Scan for every (pool limit, classes) pair on one store. *)
let compare_pools label circ est store configs =
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
    configs

let three_only = [ Subst.Os3; Subst.Is3 ]

(* A random netlist topped up with fresh primary inputs (each a class of
   its own) until its store has exactly [classes] classes, with its
   engines and store. *)
let store_with_classes classes =
  let circ = Build.random_circuit ~seed:83 ~n_pis:6 ~n_gates:40 in
  let extra = ref 0 in
  let rec settle () =
    let eng = Engine.create circ ~words:8 in
    Engine.randomize eng (Sim.Rng.create 71L);
    let cex = Engine.create circ ~words:2 in
    Engine.randomize cex (Sim.Rng.create 73L);
    let store = Sigstore.create ~cex ~base:eng () in
    Sigstore.sync store;
    let n = Sigstore.num_classes store in
    if n < classes then begin
      for _ = n to classes - 1 do
        ignore (Circuit.add_pi circ ~name:(Printf.sprintf "top%d" !extra));
        incr extra
      done;
      settle ()
    end
    else if n > classes then
      Alcotest.failf "base netlist already has %d > %d classes" n classes
    else (circ, eng, cex, store)
  in
  settle ()

(* Class counts on both sides of one and two lane-words (62 lanes
   each), a pool of 1, and a pool larger than the store (every side
   collected, no selection).  The stores must also hold a sparse-care
   target (covered < 128) and a dense one (covered >= 180), so both
   plane depths run; branch care rows are the observability of the
   targets (a single-fanout stem shares its branch's row). *)
let pools_across_lane_words () =
  List.iter
    (fun classes ->
      let circ, eng, _, store = store_with_classes classes in
      Alcotest.(check int) "class count" classes (Sigstore.num_classes store);
      let est = Estimator.create eng in
      let label = Printf.sprintf "%d classes" classes in
      compare_pools label circ est store
        [ (1, three_only); (16, Subst.all_klasses);
          (Sigstore.num_signals store, three_only) ];
      Alcotest.(check int) (label ^ ": lane-words") ((classes + 61) / 62)
        (Sigstore.lanes store).Sigstore.lane_words;
      let covered =
        List.concat_map
          (fun id ->
            List.map
              (fun { Circuit.sink; pin_index = pin } ->
                covered_of (Sigstore.branch_obs store ~sink ~pin))
              (Circuit.fanouts circ id))
          (Circuit.live_gates circ)
      in
      Alcotest.(check bool) (label ^ ": a sparse-care target") true
        (List.exists (fun c -> c < 128) covered);
      Alcotest.(check bool) (label ^ ": a dense-care target") true
        (List.exists (fun c -> c >= 180) covered))
    [ 61; 62; 63; 124; 125 ]

(* The kernel on stores maintained the optimizer's way: after a
   counterexample is folded into the cex engine (every row rewritten),
   and after each of up to 3 accepted substitutions. *)
let pools_after_folds_and_edits () =
  let circ, eng, cex, store = store_with_classes 70 in
  let est = Estimator.create eng in
  let configs = [ (1, three_only); (16, Subst.all_klasses) ] in
  compare_pools "fresh" circ est store configs;
  let pis = Circuit.pis circ in
  List.iteri
    (fun i pi ->
      let v = Array.copy (Engine.value cex pi) in
      v.(0) <- (if i mod 2 = 0 then Int64.logor v.(0) 1L else Int64.logand v.(0) (-2L));
      Engine.set_value cex pi v)
    pis;
  Engine.resim_all cex;
  Sigstore.invalidate store;
  compare_pools "after a cex fold" circ est store configs;
  let accepted (s, _) =
    (not (Subst.creates_cycle circ s))
    && Powder.Check.permissible circ s = Powder.Check.Permissible
  in
  let rec go edits =
    if edits = 3 then edits
    else
      match List.find_opt accepted (Candidates.generate ~store est) with
      | None -> edits
      | Some (s, _) ->
        let src = Subst.apply circ s in
        ignore (Estimator.update_after_edit est src);
        ignore (Engine.resim_after_edit cex src);
        Sigstore.update_after_edit store src;
        compare_pools (Printf.sprintf "after %d edits" (edits + 1)) circ est store
          configs;
        go (edits + 1)
  in
  Alcotest.(check bool) "some edit accepted" true (go 0 > 0)

(* Scans fan out over pool tasks that share the lane view read-only:
   any job count emits the same list. *)
let pools_across_jobs () =
  match Circuits.Suite.find "cps" with
  | None -> Alcotest.fail "cps not in the suite"
  | Some spec ->
    let circ = Circuits.Suite.mapped spec in
    let eng = Engine.create circ ~words:8 in
    Engine.randomize eng (Sim.Rng.create 79L);
    let est = Estimator.create eng in
    let store = Sigstore.create ~base:eng () in
    let config = { Candidates.default_config with pool_limit = 4 } in
    let seq = Candidates.generate ~config ~store est in
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        same_candidates "jobs 4 == jobs 1" circ
          (Candidates.generate ~config ~pool ~store est)
          seq)

(* Small pools make the selection bound bite early, a pool of 1 is the
   sharpest rank, and a 3-signal-only run leaves the pool as the only
   candidate source.  The second netlist gives many classes both
   polarities (a gate and its inverter image, each observed), so the
   complemented side's key [covered - d] decides pool membership.  The
   stores above then cover lane-word boundaries, maintained stores and
   job counts. *)
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
    compare_pools label circ est store
      [ (1, three_only); (2, Subst.all_klasses); (16, Subst.all_klasses);
        (2, three_only); (16, three_only) ];
    let lv = Sigstore.lanes store in
    Array.exists2 (fun p m -> p land m <> 0) lv.Sigstore.plus lv.Sigstore.minus
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
    (check "inverted images" circ);
  pools_across_lane_words ();
  pools_after_folds_and_edits ();
  pools_across_jobs ()

(* [pool_limit <= 0] is an empty pool: no 3-signal candidate, and the
   2-signal ones are exactly those of a run without 3-signal classes. *)
let test_pool_limit_zero () =
  match Circuits.Suite.find "rd84" with
  | None -> Alcotest.fail "rd84 not in the suite"
  | Some spec ->
    let circ = Circuits.Suite.mapped spec in
    let eng = Engine.create circ ~words:4 in
    Engine.randomize eng (Sim.Rng.create 89L);
    let est = Estimator.create eng in
    List.iter
      (fun index ->
        let generate pool_limit classes =
          Candidates.generate
            ~config:{ Candidates.default_config with index; pool_limit; classes }
            est
        in
        let two_only = generate 16 [ Subst.Os2; Subst.Is2 ] in
        List.iter
          (fun limit ->
            same_candidates
              (Printf.sprintf "pool_limit %d" limit)
              circ (generate limit Subst.all_klasses) two_only)
          [ 0; -1 ])
      [ Candidates.Hash; Candidates.Scan ]

(* The view holds each class canon bit, and its complement, in its
   lane; the polarity masks follow membership, and every maintenance
   call drops the view. *)
let test_lane_view () =
  let circ, eng, cex, store = store_with_classes 125 in
  Sigstore.compute_lanes store;
  let lv = Sigstore.lanes store in
  let stride = Sigstore.icanon_stride store in
  for c = 0 to Sigstore.num_classes store - 1 do
    let w = c / 62 and bit = 1 lsl (c mod 62) in
    let canon = Sigstore.class_icanon store c in
    for pos = 0 to (62 * stride) - 1 do
      let want = (canon.(pos / 62) lsr (pos mod 62)) land 1 = 1 in
      let at off = lv.Sigstore.cols.((w * lv.Sigstore.block) + off) land bit <> 0 in
      if want <> at pos || want = at (lv.Sigstore.positions + pos) then
        Alcotest.failf "class %d position %d" c pos
    done;
    let members = Array.to_list (Sigstore.class_members store c) in
    let compl = Sigstore.complemented store in
    Alcotest.(check (pair bool bool))
      (Printf.sprintf "class %d sides" c)
      (List.exists (fun p -> not compl.(p)) members, List.exists (fun p -> compl.(p)) members)
      (lv.Sigstore.plus.(w) land bit <> 0, lv.Sigstore.minus.(w) land bit <> 0)
  done;
  Array.iteri
    (fun w _ ->
      if lv.Sigstore.cols.((w * lv.Sigstore.block) + lv.Sigstore.block - 1) <> 0 then
        Alcotest.failf "padding column of lane-word %d" w)
    lv.Sigstore.plus;
  let dropped label maintain =
    Sigstore.compute_lanes store;
    maintain ();
    Alcotest.check_raises (label ^ " drops the lane view")
      (Invalid_argument "Sigstore: lane view not computed")
      (fun () -> ignore (Sigstore.lanes store))
  in
  dropped "rebuild" (fun () -> Sigstore.rebuild store);
  dropped "invalidate" (fun () -> Sigstore.invalidate store);
  Sigstore.sync store;
  let s = first_acyclic_stem_subst circ in
  dropped "update_after_edit" (fun () ->
      let root = Subst.apply circ s in
      ignore (Engine.resim_after_edit eng root);
      ignore (Engine.resim_after_edit cex root);
      Sigstore.update_after_edit store root)

(* Every gain skip under [require_positive] is exact: the 1-signal
   bound, the new-gate bound and the flood stop (an empty care row,
   where the walk stops at the first source the bound skips) drop only
   candidates the positive-gain filter or the per-target cut would drop
   anyway.  So the positive run equals the unfiltered run with its
   non-positive candidates removed, candidate for candidate and gain
   for gain. *)
let test_positive_skips_exact () =
  let flood_seen = ref false in
  let check label circ =
    let eng = Engine.create circ ~words:16 in
    Engine.randomize eng (Sim.Rng.create 97L);
    let est = Estimator.create eng in
    let store = Sigstore.create ~base:eng () in
    let generate require_positive =
      Candidates.generate ~store
        ~config:{ Candidates.default_config with require_positive }
        est
    in
    let positive = generate true in
    Alcotest.(check bool) (label ^ ": some candidate") true (positive <> []);
    same_candidates label circ positive
      (List.filter (fun (_, g) -> Subst.total_gain g > 1e-12) (generate false));
    (* [generate] left the store's care table computed *)
    List.iter
      (fun id ->
        if Circuit.num_fanouts circ id > 0
           && Array.for_all (fun w -> w = 0L) (Sigstore.stem_obs store id)
        then flood_seen := true)
      (Circuit.live_gates circ)
  in
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> Alcotest.failf "%s not in the suite" name
      | Some spec -> check name (Circuits.Suite.mapped spec))
    [ "rd84"; "cps"; "C880" ];
  check "synth:2000" (Circuits.Generators.synth ~seed:1 ~gates:2000);
  Alcotest.(check bool) "some stem target has an empty care row" true !flood_seen

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
        Alcotest.test_case "pool_limit <= 0 is an empty pool" `Quick
          test_pool_limit_zero;
        Alcotest.test_case "lane view == class canons" `Quick test_lane_view;
        QCheck_alcotest.to_alcotest prop_deferred_sync_matches_rebuild;
        Alcotest.test_case "unsynced reads raise" `Quick test_unsynced_reads_raise;
        Alcotest.test_case "positive-gain skips are exact" `Quick
          test_positive_skips_exact;
      ] );
  ]
