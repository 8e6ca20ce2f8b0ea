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

let rows eng =
  Array.init (Circuit.num_nodes (Engine.circuit eng)) (fun id ->
      Array.copy (Engine.value eng id))

let test_resim_after_edit_is2 () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let eng = Engine.create c ~words:4 in
  Engine.randomize eng (Rng.create 3L);
  (* apply the IS2 edit, resim incrementally, compare against full resim *)
  Circuit.set_fanin c d 0 e;
  ignore (Engine.resim_after_edit eng d);
  let incr_rows = rows eng in
  Engine.resim_all eng;
  Array.iteri
    (fun id v ->
      Alcotest.(check (array int64)) (Circuit.name c id) (Engine.value eng id) v)
    incr_rows

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

(* The kernel's trial mode against an independent reference: the same
   perturbation made structural in a clone (an inverter on each fanout
   pin of the stem, or on the one branch) and simulated by [resim_all].
   Returns the clone's engine and the inverter. *)
let structural_reference eng pins ~driver =
  let c = Circuit.clone (Engine.circuit eng) in
  let inv = Gatelib.Library.find (Circuit.library c) "inv1" in
  let x = Circuit.add_cell c inv [| driver |] in
  List.iter (fun (sink, pin) -> Circuit.set_fanin c sink pin x) pins;
  let ref_eng = Engine.create c ~words:(Engine.words eng) in
  List.iter (fun pi -> Engine.set_value ref_eng pi (Engine.value eng pi)) (Circuit.pis c);
  Engine.resim_all ref_eng;
  (ref_eng, x)

let po_xor eng ref_eng =
  let diff = Array.make (Engine.words eng) 0L in
  List.iter
    (fun po ->
      Array.iteri
        (fun j v ->
          diff.(j) <- Int64.logor diff.(j) (Int64.logxor v (Engine.value ref_eng po).(j)))
        (Engine.value eng po))
    (Circuit.pos (Engine.circuit eng));
  diff

let nested_raises eng s =
  match Engine.stem_observability eng s with
  | _ -> false
  | exception Invalid_argument _ -> true

(* Over 50 fuzzed netlists, every stem flip and every branch pin
   override through the kernel's trial mode (every other override
   evaluated in place, an inverter over the driver's row, instead of
   copied in): [measure] sees the
   reference's values on every node, the observability masks are the
   reference's PO differences, every row is restored, and a nested
   kernel call raises [Invalid_argument] (also when it escapes
   [measure]). *)
let test_kernel_differential () =
  let inverter = Logic.Tt.not_ (Logic.Tt.var 1 0) in
  let trials = ref 0 in
  for seed = 0 to 49 do
    let c = Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed (Int64.of_int (700 + seed))) in
    let n = Circuit.num_nodes c in
    let eng = Engine.create c ~words:2 in
    Engine.randomize eng (Rng.stream (Int64.of_int seed) "test/kernel");
    let before = rows eng in
    let check_restored what =
      for id = 0 to n - 1 do
        Alcotest.(check (array int64))
          (Printf.sprintf "%s: row %d restored" what id)
          before.(id) (Engine.value eng id)
      done
    in
    (* [first] perturbed by [perturb] against [ref_eng], in which node
       [first_ref] carries [first]'s perturbed words; [mask] computes
       the engine's observability mask of the same perturbation *)
    let compare what ~first ~perturb (ref_eng, first_ref) mask =
      let seen =
        Engine.with_perturbation eng ~first ~perturb ~measure:(fun e ->
            Alcotest.(check bool) (what ^ ": nested call raises") true
              (nested_raises e first);
            rows e)
      in
      for id = 0 to n - 1 do
        let want = Engine.value ref_eng (if id = first then first_ref else id) in
        Alcotest.(check (array int64)) (Printf.sprintf "%s: node %d" what id) want seen.(id)
      done;
      Alcotest.(check (array int64)) (what ^ ": mask") (po_xor eng ref_eng) (mask ());
      check_restored what;
      incr trials
    in
    let flip s e = Engine.set_value e s (Array.map Int64.lognot (Engine.value e s)) in
    Circuit.iter_live c (fun s ->
        if not (Circuit.is_po_node c s) then begin
          let pins =
            List.map (fun p -> (p.Circuit.sink, p.Circuit.pin_index)) (Circuit.fanouts c s)
          in
          compare
            (Printf.sprintf "seed %d stem %d" seed s)
            ~first:s ~perturb:(flip s)
            (structural_reference eng pins ~driver:s)
            (fun () -> Engine.stem_observability eng s)
        end);
    Circuit.iter_live c (fun sink ->
        Array.iteri
          (fun pin d ->
            let perturb e =
              if (sink + pin) mod 2 = 0 then
                Engine.recompute_with_pin_override e ~sink ~pin
                  (Array.map Int64.lognot (Engine.value e d))
              else Engine.recompute_with_pin_cell e ~sink ~pin inverter [| d |]
            in
            let ref_eng, _ = structural_reference eng [ (sink, pin) ] ~driver:d in
            compare
              (Printf.sprintf "seed %d branch %d.%d" seed sink pin)
              ~first:sink ~perturb (ref_eng, sink)
              (fun () -> Engine.branch_observability eng ~sink ~pin))
          (Circuit.fanins c sink));
    (* a nested call that escapes [measure] still leaves the engine
       restored and usable *)
    match Circuit.live_gates c with
    | [] -> ()
    | g :: _ ->
      let escaped =
        match
          Engine.with_perturbation eng ~first:g ~perturb:(flip g) ~measure:(fun e ->
              Engine.stem_observability e g)
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) "escaping nested call raises" true escaped;
      check_restored (Printf.sprintf "seed %d after the escape" seed);
      ignore (Engine.stem_observability eng g);
      check_restored (Printf.sprintf "seed %d usable after the escape" seed)
  done;
  Alcotest.(check bool) (Printf.sprintf "%d trials" !trials) true (!trials > 2000)

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

(* Compiled word programs against the single-pattern evaluator: one
   cell over primary inputs, for every lib2 cell and random 3-6 input
   truth tables, on random words (every word's high bit drawn, the first
   word's set), through the engine, through a pin override, and through
   the [int64 array] entry point. *)
let test_word_programs () =
  let rng = Random.State.make [| 26 |] in
  let word () =
    Int64.logor
      (Random.State.int64 rng Int64.max_int)
      (if Random.State.bool rng then Int64.min_int else 0L)
  in
  let w = 3 in
  let row () =
    let r = Array.init w (fun _ -> word ()) in
    r.(0) <- Int64.logor r.(0) Int64.min_int;
    r
  in
  let random_cells =
    List.init 60 (fun i ->
        let n = 3 + (i mod 4) in
        Gatelib.Cell.make ~name:(Printf.sprintf "rand%d" i)
          ~func:(Logic.Tt.create n (word ()))
          ~area:1.0 ~pin_caps:(Array.make n 1.0) ~tau:1.0 ~drive_res:1.0 ())
  in
  List.iter
    (fun (cell : Gatelib.Cell.t) ->
      let k = Gatelib.Cell.arity cell in
      let c = Circuit.create Gatelib.Library.lib2 in
      let pis = Array.init k (fun i -> Circuit.add_pi c ~name:(Printf.sprintf "i%d" i)) in
      let g = Circuit.add_cell c cell pis in
      ignore (Circuit.add_po c ~name:"o" g);
      let eng = Engine.create c ~words:w in
      Array.iter (fun pi -> Engine.set_value eng pi (row ())) pis;
      Engine.resim_all eng;
      let bit (v : int64 array) p =
        Int64.logand (Int64.shift_right_logical v.(p / 64) (p mod 64)) 1L = 1L
      in
      let check how out ins =
        for p = 0 to (64 * w) - 1 do
          let want =
            List.assoc "o" (Engine.eval_single c (List.init k (fun i -> bit (ins i) p)))
          in
          if bit out p <> want then
            Alcotest.failf "%s %s: pattern %d reads %b, want %b" cell.Gatelib.Cell.name
              how p (bit out p) want
        done
      in
      let input i = Engine.value eng pis.(i) in
      check "engine" (Engine.value eng g) input;
      check "apply_gate_words"
        (Engine.apply_gate_words cell.Gatelib.Cell.func (Array.init k input))
        input;
      if k > 0 then begin
        let pin = Random.State.int rng k and v = row () in
        Engine.recompute_with_pin_override eng ~sink:g ~pin v;
        check
          (Printf.sprintf "pin %d override" pin)
          (Engine.value eng g)
          (fun i -> if i = pin then v else input i)
      end)
    (Gatelib.Library.cells Gatelib.Library.lib2 @ random_cells)

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
        Alcotest.test_case "resim_after_edit after IS2 == resim_all" `Quick
          test_resim_after_edit_is2;
        Alcotest.test_case "stem observability (parity)" `Quick test_stem_observability_parity;
        Alcotest.test_case "branch observability mask" `Quick test_branch_observability_masked;
        Alcotest.test_case "observability preserves state" `Quick test_observability_preserves_state;
        Alcotest.test_case "with_perturbation restores" `Quick test_with_perturbation_restores;
        Alcotest.test_case "kernel trial == clone + resim_all" `Quick
          test_kernel_differential;
        Alcotest.test_case "word programs == eval_single" `Quick test_word_programs;
        QCheck_alcotest.to_alcotest prop_exhaustive_po_prob_parity;
        Alcotest.test_case "randomize_sharded shard streams" `Quick
          test_randomize_sharded_streams;
      ] );
  ]
