module Circuit = Netlist.Circuit
module Library = Gatelib.Library

let check_valid c =
  match Circuit.validate c with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid circuit: " ^ e)

let test_build_and_validate () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  check_valid c;
  Alcotest.(check int) "gates" 3 (Circuit.gate_count c);
  Alcotest.(check int) "pis" 3 (List.length (Circuit.pis c));
  Alcotest.(check int) "pos" 2 (List.length (Circuit.pos c))

let test_loads () =
  let c, a, b, _, d, _, _ = Build.fig2_a () in
  (* a drives: and2(e) pin (1.0) + xor2(d) pin (2.0) *)
  Alcotest.(check (float 1e-9)) "load a" 3.0 (Circuit.load_of c a);
  (* b drives two and2 pins *)
  Alcotest.(check (float 1e-9)) "load b" 2.0 (Circuit.load_of c b);
  (* d drives one and2 pin *)
  Alcotest.(check (float 1e-9)) "load d" 1.0 (Circuit.load_of c d)

let test_set_fanin () =
  let c, a, _, _, d, e, _ = Build.fig2_a () in
  Circuit.set_fanin c d 0 e;
  check_valid c;
  Alcotest.(check int) "a fanouts" 1 (Circuit.num_fanouts c a);
  Alcotest.(check int) "e fanouts" 2 (Circuit.num_fanouts c e);
  Alcotest.(check bool) "d fanin" true ((Circuit.fanins c d).(0) = e)

let test_replace_stem_and_sweep () =
  let c, ab, abc, out = Build.redundant_and () in
  (* replace the redundant or-output by ab directly *)
  Circuit.replace_stem c out ab;
  check_valid c;
  let killed = Circuit.sweep c in
  check_valid c;
  Alcotest.(check bool) "out killed" true (List.mem out killed);
  Alcotest.(check bool) "abc killed" true (List.mem abc killed);
  Alcotest.(check bool) "ab alive" true (Circuit.is_live c ab);
  Alcotest.(check int) "one gate left" 1 (Circuit.gate_count c)

let test_cycle_detection () =
  let c, _, _, _, d, _, f = Build.fig2_a () in
  (* connecting f into d's input would create a cycle *)
  Alcotest.(check bool) "would cycle" true (Circuit.would_cycle_pin c d 0 f);
  Alcotest.check_raises "set_fanin rejects"
    (Invalid_argument "Circuit.set_fanin: would create a cycle") (fun () ->
      Circuit.set_fanin c d 0 f)

let test_tfo_tfi () =
  let c, a, _, _, d, e, f = Build.fig2_a () in
  let tfo = Circuit.tfo c a in
  Alcotest.(check bool) "d in tfo(a)" true tfo.(d);
  Alcotest.(check bool) "e in tfo(a)" true tfo.(e);
  Alcotest.(check bool) "f in tfo(a)" true tfo.(f);
  Alcotest.(check bool) "a not in tfo(a)" false tfo.(a);
  let tfi = Circuit.tfi c f in
  Alcotest.(check bool) "a in tfi(f)" true tfi.(a);
  Alcotest.(check bool) "e not in tfi(f)" false tfi.(e)

let test_dominators () =
  let c, ab, abc, out = Build.redundant_and () in
  (* abc's only fanout is out: Dom(out) contains abc and nc but not ab
     (ab also feeds out directly AND abc, both inside... ab's fanouts
     are abc and out, both in Dom(out), so ab IS dominated too). *)
  let dom = Circuit.dominated_region c out in
  Alcotest.(check bool) "out in dom" true dom.(out);
  Alcotest.(check bool) "abc in dom" true dom.(abc);
  Alcotest.(check bool) "ab in dom" true dom.(ab);
  (* Dom(abc): just abc and nc; ab escapes through its direct edge to out *)
  let dom_abc = Circuit.dominated_region c abc in
  Alcotest.(check bool) "abc in dom(abc)" true dom_abc.(abc);
  Alcotest.(check bool) "ab not in dom(abc)" false dom_abc.(ab);
  (match Circuit.find_by_name c "nc" with
  | Some nc -> Alcotest.(check bool) "nc in dom(abc)" true dom_abc.(nc)
  | None -> Alcotest.fail "nc not found")

(* inputs(Dom(s)): the members' fanins outside the region, the set
   Equation 3's input relief sums over *)
let test_inputs_of_region () =
  let c, ab, abc, _ = Build.redundant_and () in
  let dom_abc = Circuit.dominated_region c abc in
  let ins =
    Circuit.with_dominated_region c abc (fun region ->
        let mask, members = region () in
        Array.to_list members
        |> List.concat_map (fun m -> Array.to_list (Circuit.fanins c m))
        |> List.filter (fun f -> not mask.(f))
        |> List.sort_uniq compare)
  in
  (* ab feeds abc from outside (it escapes through its direct edge to
     the or-gate); pi "c" only feeds nc, so it lies INSIDE the region
     and is not one of its inputs *)
  Alcotest.(check (list int)) "ab is the only input" [ ab ] ins;
  match Circuit.find_by_name c "c" with
  | Some ci -> Alcotest.(check bool) "pi c dominated" true dom_abc.(ci)
  | None -> Alcotest.fail "pi c not found"

let test_topo_order () =
  let c = Build.random_circuit ~seed:7 ~n_pis:8 ~n_gates:40 in
  check_valid c;
  let order = Circuit.topo_order c in
  let pos_of = Array.make (Circuit.num_nodes c) (-1) in
  Array.iteri (fun k id -> pos_of.(id) <- k) order;
  Array.iter
    (fun id ->
      Array.iter
        (fun f ->
          Alcotest.(check bool) "fanin before node" true (pos_of.(f) < pos_of.(id)))
        (Circuit.fanins c id))
    order

let test_clone_independent () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let c2 = Circuit.clone c in
  Circuit.set_fanin c2 d 0 e;
  (* original untouched *)
  Alcotest.(check bool) "orig fanin" true ((Circuit.fanins c d).(0) <> e);
  check_valid c;
  check_valid c2

let test_area () =
  let c, _, _, _, _, _, _ = Build.fig2_a () in
  let and2 = Library.find Build.lib "and2" and xor2 = Library.find Build.lib "xor2" in
  Alcotest.(check (float 1e-6)) "area"
    ((2.0 *. and2.Gatelib.Cell.area) +. xor2.Gatelib.Cell.area)
    (Circuit.area c)

let prop_random_circuits_valid =
  QCheck.Test.make ~name:"random circuits validate" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Build.random_circuit ~seed ~n_pis:6 ~n_gates:25 in
      match Circuit.validate c with Ok () -> true | Error _ -> false)

let suite =
  [
    ( "circuit",
      [
        Alcotest.test_case "build and validate" `Quick test_build_and_validate;
        Alcotest.test_case "loads" `Quick test_loads;
        Alcotest.test_case "set_fanin" `Quick test_set_fanin;
        Alcotest.test_case "replace_stem and sweep" `Quick test_replace_stem_and_sweep;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "tfo/tfi" `Quick test_tfo_tfi;
        Alcotest.test_case "dominated region" `Quick test_dominators;
        Alcotest.test_case "inputs of region" `Quick test_inputs_of_region;
        Alcotest.test_case "topo order" `Quick test_topo_order;
        Alcotest.test_case "clone independence" `Quick test_clone_independent;
        Alcotest.test_case "area" `Quick test_area;
        QCheck_alcotest.to_alcotest prop_random_circuits_valid;
      ] );
  ]

(* appended: version counter / topo cache coherence *)
let test_topo_cache_invalidation () =
  let c, _, _, _, d, e, _ = Build.fig2_a () in
  let o1 = Circuit.topo_order c in
  let o1' = Circuit.topo_order c in
  Alcotest.(check bool) "cached physical" true (o1 == o1');
  Circuit.set_fanin c d 0 e;
  let o2 = Circuit.topo_order c in
  Alcotest.(check bool) "invalidated" true (not (o1 == o2));
  (* still a valid order *)
  let pos_of = Array.make (Circuit.num_nodes c) (-1) in
  Array.iteri (fun k id -> pos_of.(id) <- k) o2;
  Array.iter
    (fun id ->
      Array.iter
        (fun f -> Alcotest.(check bool) "order" true (pos_of.(f) < pos_of.(id)))
        (Circuit.fanins c id))
    o2

let suite =
  match suite with
  | [ (name, tests) ] ->
    [ (name,
       tests
       @ [ Alcotest.test_case "topo cache invalidation" `Quick
             test_topo_cache_invalidation ]) ]
  | other -> other

(* A rejected edit must leave every cache alone: the topological memo
   (which [reaches] prunes with) and the edit log. *)
let test_rejected_edit_keeps_caches () =
  let c, _, _, _, d, e, f = Build.fig2_a () in
  let cur = Circuit.edit_cursor c in
  Circuit.set_fanin c d 0 e;
  let log = Circuit.edits_since c cur in
  let order = Circuit.topo_order c in
  Alcotest.check_raises "cyclic set_fanin"
    (Invalid_argument "Circuit.set_fanin: would create a cycle") (fun () ->
      Circuit.set_fanin c d 1 f);
  Alcotest.check_raises "cyclic replace_stem"
    (Invalid_argument "Circuit.replace_stem: would create a cycle") (fun () ->
      Circuit.replace_stem c d f);
  Alcotest.(check bool) "topo order kept" true (Circuit.topo_order c == order);
  Alcotest.(check (option (list int))) "edit log unchanged" log
    (Circuit.edits_since c cur)

(* Reference traversals: the plain whole-circuit versions the pruned,
   scratch-reusing ones in [Circuit] must agree with. *)
let ref_reaches c a b =
  a = b
  || begin
    let seen = Array.make (Circuit.num_nodes c) false in
    let rec visit id =
      id = b
      || List.exists
           (fun p ->
             let s = p.Circuit.sink in
             Circuit.is_live c s && (not seen.(s))
             && begin
                  seen.(s) <- true;
                  visit s
                end)
           (Circuit.fanouts c id)
    in
    visit a
  end

let ref_dominated_region c s =
  let in_tfi = Circuit.tfi c s in
  in_tfi.(s) <- true;
  let dom = Array.make (Circuit.num_nodes c) false in
  dom.(s) <- true;
  let order = Circuit.topo_order c in
  for k = Array.length order - 1 downto 0 do
    let id = order.(k) in
    if in_tfi.(id) && id <> s then begin
      let fo = Circuit.fanouts c id in
      if fo <> []
         && List.for_all
              (fun p -> (not (Circuit.is_po_node c p.Circuit.sink)) && dom.(p.Circuit.sink))
              fo
      then dom.(id) <- true
    end
  done;
  dom

let ref_would_cycle_pin c sink b = (not (Circuit.is_po_node c sink)) && ref_reaches c sink b

let ref_would_cycle_stem c a b =
  a = b
  || List.exists
       (fun p -> (not (Circuit.is_po_node c p.Circuit.sink)) && ref_reaches c p.Circuit.sink b)
       (Circuit.fanouts c a)

let members_of mask =
  List.filter (fun i -> mask.(i)) (List.init (Array.length mask) Fun.id)

(* Everything the traversals answer about node [a]: its reach row, its
   cycle-check rows, its dominated region (mask and members). *)
let traversal_row ~reaches ~pin ~stem ~dom c a =
  let n = Circuit.num_nodes c in
  let row f = List.init n (fun b -> f a b) in
  let mask, members = dom c a in
  (row (reaches c), row (pin c), row (stem c), Array.to_list mask, members)

let new_row c a =
  traversal_row c a ~reaches:Circuit.reaches
    ~pin:(fun c sink b -> Circuit.would_cycle_pin c sink 0 b)
    ~stem:Circuit.would_cycle_stem
    ~dom:(fun c s ->
      let n = Circuit.num_nodes c in
      let mask, members =
        Circuit.with_dominated_region c s (fun region ->
            let mask, members = region () in
            (Array.sub mask 0 n, Array.to_list members))
      in
      if Circuit.dominated_region c s <> mask then
        Alcotest.failf "node %d: dominated_region differs from the shared mask" s;
      (mask, members))

let reference_row c a =
  traversal_row c a ~reaches:ref_reaches ~pin:ref_would_cycle_pin
    ~stem:ref_would_cycle_stem
    ~dom:(fun c s ->
      let mask = ref_dominated_region c s in
      (mask, members_of mask))

let test_traversals_match_reference () =
  let module Engine = Sim.Engine in
  let module Estimator = Power.Estimator in
  let module Subst = Powder.Subst in
  let edits = ref 0 in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      for seed = 1 to 50 do
        let c = Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed (Int64.of_int seed)) in
        let compare_all label =
          let ids = Array.init (Circuit.num_nodes c) Fun.id in
          (* with the memo stale ([reaches] walks unpruned), then warm *)
          let stale = Array.map (new_row c) ids in
          ignore (Circuit.topo_order c);
          let expected = Array.map (reference_row c) ids in
          let warm = Array.map (new_row c) ids in
          let in_tasks = Par.Pool.map pool ~f:(new_row c) ids in
          Array.iteri
            (fun a want ->
              let check what got =
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d %s node %d: %s" seed label a what)
                  true (got = want)
              in
              check "stale memo" stale.(a);
              check "warm memo" warm.(a);
              check "pool task" (Option.get in_tasks.(a)))
            expected
        in
        compare_all "fresh";
        let eng = Engine.create c ~words:4 in
        Engine.randomize eng (Sim.Rng.create (Int64.of_int seed));
        let est = Estimator.create eng in
        let accepted (s, _) =
          (not (Subst.creates_cycle c s))
          && Powder.Check.permissible c s = Powder.Check.Permissible
        in
        let rec edit k =
          if k < 3 then
            match List.find_opt accepted (Powder.Candidates.generate est) with
            | None -> ()
            | Some (s, _) ->
              let src = Subst.apply c s in
              incr edits;
              (* before anything re-warms the memo the edit made stale *)
              compare_all (Printf.sprintf "after edit %d" (k + 1));
              ignore (Estimator.update_after_edit est src);
              edit (k + 1)
        in
        edit 0
      done);
  Alcotest.(check bool) (Printf.sprintf "%d edits exercised" !edits) true (!edits >= 50)

let suite =
  match suite with
  | [ (name, tests) ] ->
    [ (name,
       tests
       @ [ Alcotest.test_case "rejected edit keeps caches" `Quick
             test_rejected_edit_keeps_caches;
           Alcotest.test_case "traversals match reference" `Quick
             test_traversals_match_reference ]) ]
  | other -> other
