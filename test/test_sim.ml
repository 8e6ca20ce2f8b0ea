module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Rng = Sim.Rng

let test_exhaustive_parity () =
  let c = Build.parity_chain 4 in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  (* the parity of 4 inputs is 1 on exactly half the minterms *)
  match Circuit.pos c with
  | [ po ] ->
    let d = Circuit.po_driver c po in
    (* only the first 16 patterns form one exhaustive block; with 64
       patterns the block repeats 4 times, so counting still works *)
    Alcotest.(check int) "ones" 32 (Engine.count_ones eng d)
  | _ -> Alcotest.fail "one po expected"

let test_eval_single_matches_engine () =
  let c = Build.random_circuit ~seed:42 ~n_pis:5 ~n_gates:20 in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  (* check pattern 13 = inputs (1,0,1,1,0) *)
  let m = 13 in
  let pi_vals = List.mapi (fun i _ -> m land (1 lsl i) <> 0) (Circuit.pis c) in
  let single = Engine.eval_single c pi_vals in
  List.iter
    (fun po ->
      let name = Circuit.name c po in
      let from_engine =
        Int64.logand (Int64.shift_right_logical (Engine.value eng po).(0) m) 1L
        = 1L
      in
      Alcotest.(check bool) name (List.assoc name single) from_engine)
    (Circuit.pos c)

let test_prob_uniform_inputs () =
  let c = Build.parity_chain 6 in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  List.iter
    (fun pi -> Alcotest.(check (float 1e-9)) "pi prob" 0.5 (Engine.prob_one eng pi))
    (Circuit.pis c)

let test_randomize_prob_bias () =
  let c = Build.parity_chain 2 in
  let eng = Engine.create c ~words:64 in
  let probs pi = if Circuit.name c pi = "x0" then 0.9 else 0.5 in
  Engine.randomize eng ~input_probs:probs (Rng.create 7L);
  match Circuit.pis c with
  | [ x0; x1 ] ->
    let p0 = Engine.prob_one eng x0 and p1 = Engine.prob_one eng x1 in
    Alcotest.(check bool) "x0 biased" true (p0 > 0.85 && p0 < 0.95);
    Alcotest.(check bool) "x1 near half" true (p1 > 0.44 && p1 < 0.56)
  | _ -> Alcotest.fail "two pis"

let test_resim_tfo_consistency () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let eng = Engine.create c ~words:4 in
  Engine.randomize eng (Rng.create 3L);
  (* apply the IS2 edit, resim only the TFO, compare against full resim *)
  Circuit.set_fanin c d 0 e;
  Engine.resim_tfo eng d;
  let incr_sigs = Engine.po_signatures eng in
  Engine.resim_all eng;
  let full_sigs = Engine.po_signatures eng in
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.(check bool) "words equal" true (v1 = v2))
    incr_sigs full_sigs

let test_signature_equal_complement () =
  let c = Build.parity_chain 3 in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  (* x0 xor x1 node vs its own value *)
  match Circuit.live_gates c with
  | g1 :: _ ->
    Alcotest.(check bool) "self equal" true (Engine.equal_signature eng g1 g1);
    Alcotest.(check bool) "self not complement" false
      (Engine.complement_signature eng g1 g1)
  | [] -> Alcotest.fail "gates expected"

let test_stem_observability_parity () =
  (* in a parity chain every internal signal is observable on every
     pattern *)
  let c = Build.parity_chain 4 in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  List.iter
    (fun g ->
      let obs = Engine.stem_observability eng g in
      Alcotest.(check bool) "fully observable" true
        (Array.for_all (fun w -> Int64.equal w (-1L)) obs))
    (Circuit.live_gates c)

let test_branch_observability_masked () =
  (* f = (a & b): branch a->f is observable exactly when b = 1 *)
  let lib = Build.lib in
  let c = Circuit.create lib in
  let a = Circuit.add_pi c ~name:"a" in
  let b = Circuit.add_pi c ~name:"b" in
  let f = Circuit.add_cell c ~name:"f" (Gatelib.Library.find lib "and2") [| a; b |] in
  let _ = Circuit.add_po c ~name:"out" f in
  let eng = Engine.create c ~words:1 in
  Engine.exhaustive eng;
  let obs = Engine.branch_observability eng ~sink:f ~pin:0 in
  let b_sig = Engine.value eng b in
  Alcotest.(check bool) "obs = b" true (Int64.equal obs.(0) b_sig.(0))

let test_observability_preserves_state () =
  let c = Build.random_circuit ~seed:5 ~n_pis:6 ~n_gates:30 in
  let eng = Engine.create c ~words:2 in
  Engine.randomize eng (Rng.create 11L);
  let before = Engine.po_signatures eng in
  List.iter (fun g -> ignore (Engine.stem_observability eng g)) (Circuit.live_gates c);
  let after = Engine.po_signatures eng in
  List.iter2
    (fun (_, v1) (_, v2) -> Alcotest.(check bool) "unchanged" true (v1 = v2))
    before after

let test_with_perturbation_restores () =
  let c = Build.parity_chain 5 in
  let eng = Engine.create c ~words:2 in
  Engine.randomize eng (Rng.create 23L);
  match Circuit.live_gates c with
  | g :: _ ->
    let before = Array.copy (Engine.value eng g) in
    let ones_during =
      Engine.with_perturbation eng ~first:g
        ~perturb:(fun eng -> Engine.set_value eng g (Array.make 2 (-1L)))
        ~measure:(fun eng -> Engine.count_ones eng g)
    in
    Alcotest.(check int) "forced to ones" 128 ones_during;
    Alcotest.(check bool) "restored" true (before = Engine.value eng g)
  | [] -> Alcotest.fail "gates expected"

let prop_exhaustive_po_prob_parity =
  QCheck.Test.make ~name:"parity output prob is 1/2" ~count:5
    QCheck.(int_range 2 6)
    (fun n ->
      let c = Build.parity_chain n in
      let eng = Engine.create c ~words:1 in
      Engine.exhaustive eng;
      match Circuit.pos c with
      | [ po ] -> Float.abs (Engine.prob_one eng po -. 0.5) < 1e-9
      | _ -> false)

(* Satellite: every stochastic component (bench sections, the
   optimizer's cex screen, guard re-verify, the fuzz harness) now draws
   through [Rng.derive]/[Rng.stream], so equal seed + label must mean
   an identical stream, and distinct labels distinct domains. *)
let test_rng_derive_deterministic () =
  Alcotest.(check int64) "same seed and label"
    (Rng.derive 5L "powder/cex") (Rng.derive 5L "powder/cex");
  Alcotest.(check bool) "labels separate domains" true
    (Rng.derive 5L "powder/cex" <> Rng.derive 5L "powder/guard");
  Alcotest.(check bool) "seeds separate streams" true
    (Rng.derive 5L "fuzz/spec" <> Rng.derive 6L "fuzz/spec");
  Alcotest.(check int64) "stream replays"
    (Rng.next (Rng.stream 7L "bench/sig")) (Rng.next (Rng.stream 7L "bench/sig"));
  Alcotest.(check bool) "stream label matters" true
    (Rng.next (Rng.stream 7L "bench/sig") <> Rng.next (Rng.stream 7L "fuzz/pat"))

let test_identical_seeds_identical_signatures () =
  let c1 = Build.parity_chain 6 and c2 = Build.parity_chain 6 in
  let e1 = Engine.create c1 ~words:4 and e2 = Engine.create c2 ~words:4 in
  Engine.randomize e1 (Rng.stream 7L "test/sig");
  Engine.randomize e2 (Rng.stream 7L "test/sig");
  Alcotest.(check bool) "identical seeds give identical signatures" true
    (Engine.equivalent_on_patterns e1 e2);
  List.iter2
    (fun p1 p2 ->
      Alcotest.(check int) "pattern words match bit for bit"
        (Engine.count_ones e1 p1) (Engine.count_ones e2 p2))
    (Circuit.pis c1) (Circuit.pis c2)

(* The shard-stream contract the optimizer's signatures (and so
   test/golden/) depend on: PI word [j] is drawn from the stream
   "sim/words-<j/2>", word-major within the shard, one
   [bits_with_prob] per PI in [pis] order; every other node is what a
   plain [resim_all] computes from those PI words. *)
let test_randomize_sharded_streams () =
  let c =
    match Circuits.Suite.find "rd84" with
    | Some spec -> Circuits.Suite.mapped spec
    | None -> Alcotest.fail "rd84 missing from the suite"
  in
  let pis = Array.of_list (Circuit.pis c) in
  let prob pi =
    let rec index i = if pis.(i) = pi then i else index (i + 1) in
    0.1 +. (0.1 *. float_of_int (index 0 mod 8))
  in
  let seed = 1234L and words = 5 in
  let eng = Engine.create c ~words in
  Engine.randomize_sharded ~input_probs:prob ~seed eng;
  let expected = Array.map (fun _ -> Array.make words 0L) pis in
  let shards = (words + 1) / 2 in
  for k = 0 to shards - 1 do
    let rng = Rng.stream seed (Printf.sprintf "sim/words-%d" k) in
    for j = 2 * k to min words ((2 * k) + 2) - 1 do
      Array.iteri
        (fun i pi -> expected.(i).(j) <- Rng.bits_with_prob rng (prob pi))
        pis
    done
  done;
  Array.iteri
    (fun i pi ->
      for j = 0 to words - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "%s word %d" (Circuit.name c pi) j)
          expected.(i).(j)
          (Engine.value eng pi).(j)
      done)
    pis;
  let ref_eng = Engine.create c ~words in
  Array.iter (fun pi -> Engine.set_value ref_eng pi (Engine.value eng pi)) pis;
  Engine.resim_all ref_eng;
  for id = 0 to Circuit.num_nodes c - 1 do
    Alcotest.(check (array int64))
      (Printf.sprintf "node %d" id)
      (Engine.value ref_eng id) (Engine.value eng id)
  done

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "exhaustive parity" `Quick test_exhaustive_parity;
        Alcotest.test_case "seed derivation deterministic" `Quick
          test_rng_derive_deterministic;
        Alcotest.test_case "identical seeds, identical signatures" `Quick
          test_identical_seeds_identical_signatures;
        Alcotest.test_case "eval_single vs engine" `Quick test_eval_single_matches_engine;
        Alcotest.test_case "uniform input probs" `Quick test_prob_uniform_inputs;
        Alcotest.test_case "randomize bias" `Quick test_randomize_prob_bias;
        Alcotest.test_case "resim_tfo consistency" `Quick test_resim_tfo_consistency;
        Alcotest.test_case "signature predicates" `Quick test_signature_equal_complement;
        Alcotest.test_case "stem observability (parity)" `Quick test_stem_observability_parity;
        Alcotest.test_case "branch observability mask" `Quick test_branch_observability_masked;
        Alcotest.test_case "observability preserves state" `Quick test_observability_preserves_state;
        Alcotest.test_case "with_perturbation restores" `Quick test_with_perturbation_restores;
        QCheck_alcotest.to_alcotest prop_exhaustive_po_prob_parity;
        Alcotest.test_case "randomize_sharded shard streams" `Quick
          test_randomize_sharded_streams;
      ] );
  ]
