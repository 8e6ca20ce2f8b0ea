module Circuit = Netlist.Circuit
module Engine = Sim.Engine

type t = {
  eng : Engine.t;
  mutable p : float array; (* signal probability per node id *)
  (* The running total lives in a power-of-two segment tree over
     per-node [node_power] leaves (1-indexed heap layout; leaves at
     [cap + id], root at 1, unused leaves 0.0).  A fixed pairwise
     association makes the root a pure function of the leaf multiset's
     positions — independent of which leaves were updated in what order
     and of the capacity (padding zeros are exact under [+.]) — so an
     incrementally maintained total is bit-equal to a from-scratch
     rebuild, which test_power.ml asserts. *)
  mutable tree : float array;
  mutable cap : int;
  mutable cursor : Circuit.edit_cursor;
}

let signal_prob_of_node eng id = Engine.prob_one eng id

let transition_prob t id = 2.0 *. t.p.(id) *. (1.0 -. t.p.(id))

let engine t = t.eng
let circuit t = Engine.circuit t.eng

let node_power t id =
  let circ = circuit t in
  if not (Circuit.is_live circ id) then 0.0
  else
    match Circuit.kind circ id with
    | Circuit.Po _ -> 0.0
    | Circuit.Pi | Circuit.Const _ | Circuit.Cell _ ->
      Circuit.load_of circ id *. transition_prob t id

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n

let rebuild_tree t =
  let circ = circuit t in
  let n = Circuit.num_nodes circ in
  let cap = pow2_at_least 1 (max 1 n) in
  let tree = Array.make (2 * cap) 0.0 in
  t.cap <- cap;
  t.tree <- tree;
  Circuit.iter_live circ (fun id -> tree.(cap + id) <- node_power t id);
  for i = cap - 1 downto 1 do
    tree.(i) <- tree.(2 * i) +. tree.((2 * i) + 1)
  done;
  t.cursor <- Circuit.edit_cursor circ

let set_leaf t id v =
  let i0 = t.cap + id in
  if t.tree.(i0) <> v then begin
    t.tree.(i0) <- v;
    let i = ref (i0 lsr 1) in
    while !i >= 1 do
      t.tree.(!i) <- t.tree.(2 * !i) +. t.tree.((2 * !i) + 1);
      i := !i lsr 1
    done
  end

let refresh_leaf t id =
  if id >= 0 && id < t.cap then
    set_leaf t id
      (if id < Circuit.num_nodes (circuit t) then node_power t id else 0.0)

(* Fold the circuit's edit-log suffix into the tree: structural edits
   (load changes, kills, resurrections, new nodes) reach the total here
   even when they lie outside the re-simulated cone. *)
let sync t =
  let circ = circuit t in
  if Circuit.num_nodes circ > t.cap then rebuild_tree t
  else begin
    (match Circuit.edits_since circ t.cursor with
    | None -> rebuild_tree t
    | Some ids -> List.iter (refresh_leaf t) ids);
    t.cursor <- Circuit.edit_cursor circ
  end

let create eng =
  let circ = Engine.circuit eng in
  let p = Array.make (Circuit.num_nodes circ) 0.0 in
  Circuit.iter_live circ (fun id -> p.(id) <- signal_prob_of_node eng id);
  let t =
    { eng; p; tree = [| 0.0; 0.0 |]; cap = 1;
      cursor = Circuit.edit_cursor circ }
  in
  rebuild_tree t;
  t

let ensure_capacity t =
  let n = Circuit.num_nodes (circuit t) in
  if n > Array.length t.p then begin
    let bigger = Array.make (max n (2 * Array.length t.p)) 0.0 in
    Array.blit t.p 0 bigger 0 (Array.length t.p);
    t.p <- bigger
  end

let total t =
  sync t;
  t.tree.(1)

let watts ?(vdd = 3.3) ?(freq = 20.0e6) t =
  0.5 *. vdd *. vdd *. freq *. total t

let refresh_all t =
  ensure_capacity t;
  let circ = circuit t in
  Circuit.iter_live circ (fun id -> t.p.(id) <- signal_prob_of_node t.eng id);
  rebuild_tree t

let m_update_calls = Obs.Metrics.counter "power.update.calls"
let m_update_nodes = Obs.Metrics.counter "power.update.nodes"

(* Incremental: the levelized engine update reports exactly the nodes
   whose words changed, and a node's probability is a pure function of
   its words — so refreshing only those (plus the seed) leaves [p]
   identical to a full refresh.  A brand-new node whose simulated
   words happen to be all zero reports unchanged, but its default
   [p = 0.0] already equals the probability of an all-zero signature. *)
let update_after_edit t s =
  ensure_capacity t;
  if Circuit.num_nodes (circuit t) > t.cap then rebuild_tree t;
  let refreshed = ref 1 in
  let evaluated =
    Engine.resim_after_edit t.eng s ~on_change:(fun id ->
        t.p.(id) <- signal_prob_of_node t.eng id;
        refresh_leaf t id;
        incr refreshed)
  in
  t.p.(s) <- signal_prob_of_node t.eng s;
  refresh_leaf t s;
  Obs.Metrics.incr m_update_calls;
  Obs.Metrics.add m_update_nodes !refreshed;
  evaluated

let transition_of_ones ones ~total_patterns =
  let p = float_of_int ones /. float_of_int total_patterns in
  2.0 *. p *. (1.0 -. p)

let region_power t region =
  let circ = circuit t in
  let acc = ref 0.0 in
  Circuit.iter_live circ (fun id -> if region.(id) then acc := !acc +. node_power t id);
  !acc

let region_input_relief t region =
  let circ = circuit t in
  let acc = ref 0.0 in
  List.iter
    (fun id ->
      let inside_cap =
        List.fold_left
          (fun c pin ->
            if region.(pin.Circuit.sink) then c +. Circuit.pin_cap circ pin
            else c)
          0.0 (Circuit.fanouts circ id)
      in
      acc := !acc +. (inside_cap *. transition_prob t id))
    (Circuit.inputs_of_region circ region);
  !acc

(* Member-list variants: [members] must cover every node of [region]
   (a superset is fine — extra ids are filtered by the mask) in
   ascending id order, so the float accumulation order is identical to
   the full-circuit scans above. *)

let region_power_members t region members =
  let acc = ref 0.0 in
  Array.iter (fun id -> if region.(id) then acc := !acc +. node_power t id) members;
  !acc

let region_input_relief_members t region members =
  let circ = circuit t in
  let inputs = ref [] in
  Array.iter
    (fun m ->
      if region.(m) then
        Array.iter
          (fun f -> if not region.(f) then inputs := f :: !inputs)
          (Circuit.fanins circ m))
    members;
  let inputs = List.sort_uniq compare !inputs in
  let acc = ref 0.0 in
  List.iter
    (fun id ->
      let inside_cap =
        List.fold_left
          (fun c pin ->
            if region.(pin.Circuit.sink) then c +. Circuit.pin_cap circ pin
            else c)
          0.0 (Circuit.fanouts circ id)
      in
      acc := !acc +. (inside_cap *. transition_prob t id))
    inputs;
  !acc
