module Circuit = Netlist.Circuit
module Rng = Sim.Rng

type mutation = Fanout_split | Inverter_chain | Constant_cone | High_fanout_stem

let all_mutations = [ Fanout_split; Inverter_chain; Constant_cone; High_fanout_stem ]

let mutation_name = function
  | Fanout_split -> "fanout_split"
  | Inverter_chain -> "inverter_chain"
  | Constant_cone -> "constant_cone"
  | High_fanout_stem -> "high_fanout_stem"

type family = Multilevel | Two_level | Symmetric | Arithmetic

type spec = {
  seed : int64;
  family : family;
  ins : int;
  outs : int;
  layers : int;
  per_layer : int;
  fanin : int;
  objective : Mapper.Techmap.objective;
  mutations : mutation list;
}

(* uniform int in [lo, hi]; the top 31 bits of a splitmix draw are
   unbiased enough for ranges this small *)
let pick rng lo hi =
  let span = hi - lo + 1 in
  lo + (Int64.to_int (Int64.shift_right_logical (Rng.next rng) 33) mod span)

let pick_elt rng = function
  | [] -> None
  | l -> Some (List.nth l (pick rng 0 (List.length l - 1)))

let spec_of_seed ?(max_ins = 10) seed =
  let max_ins = max 4 max_ins in
  let rng = Rng.stream seed "fuzz/spec" in
  let family =
    (* weight the symmetric family up: its dense signature aliasing is
       what gives the exact check real refutation work *)
    match pick rng 0 5 with
    | 0 | 1 -> Multilevel
    | 2 -> Two_level
    | 3 | 4 -> Symmetric
    | _ -> Arithmetic
  in
  let ins = pick rng 4 max_ins in
  let outs = pick rng 1 4 in
  let layers = pick rng 2 4 in
  let per_layer = pick rng 3 8 in
  let fanin = pick rng 2 3 in
  let objective =
    if Int64.logand (Rng.next rng) 1L = 0L then Mapper.Techmap.Power
    else Mapper.Techmap.Area
  in
  let n_mut = pick rng 1 6 in
  let mutations =
    List.init n_mut (fun _ ->
        List.nth all_mutations (pick rng 0 (List.length all_mutations - 1)))
  in
  { seed; family; ins; outs; layers; per_layer; fanin; objective; mutations }

let base spec =
  (* the AIG generators take a plain int seed; fold the 64-bit case
     seed down through the same derive chain so cases stay distinct *)
  let aig_seed =
    Int64.to_int (Int64.logand (Rng.derive spec.seed "fuzz/aig") 0x3FFFFFFFL)
  in
  let aig =
    match spec.family with
    | Multilevel ->
      Circuits.Generators.multilevel ~seed:aig_seed ~ins:spec.ins
        ~outs:spec.outs ~layers:spec.layers ~per_layer:spec.per_layer
        ~fanin:spec.fanin
    | Two_level ->
      Circuits.Generators.pla ~seed:aig_seed ~ins:spec.ins ~outs:spec.outs
        ~cubes:(3 * spec.per_layer) ~lit_lo:2 ~lit_hi:(min spec.ins 5)
    | Symmetric ->
      if spec.ins >= 9 && aig_seed land 1 = 0 then Circuits.Generators.sym9 ()
      else Circuits.Generators.rd ~inputs:(max 5 (min spec.ins 9))
    | Arithmetic ->
      if aig_seed land 1 = 0 then
        Circuits.Generators.comparator ~width:(max 2 (spec.ins / 2))
      else Circuits.Generators.multiplier ~width:(max 2 (spec.ins / 3))
  in
  Mapper.Techmap.map ~objective:spec.objective Gatelib.Library.lib2 aig

(* Live non-PO nodes whose stem has at least one fanout. *)
let stems_with_fanout c =
  let acc = ref [] in
  Circuit.iter_live c (fun id ->
      if (not (Circuit.is_po_node c id)) && Circuit.num_fanouts c id > 0 then
        acc := id :: !acc);
  List.rev !acc

let find_cell c name = Gatelib.Library.find_opt (Circuit.library c) name

(* Duplicate a multi-fanout gate and move every other fanout pin to the
   copy.  The copy computes the same function over the same fanins, so
   no sink can tell the difference. *)
let fanout_split rng c =
  let cands =
    List.filter
      (fun id ->
        (match Circuit.kind c id with Circuit.Cell _ -> true | _ -> false)
        && Circuit.num_fanouts c id >= 2)
      (stems_with_fanout c)
  in
  match pick_elt rng cands with
  | None -> false
  | Some g ->
    let dup = Circuit.add_cell c (Circuit.cell_of c g) (Circuit.fanins c g) in
    let moved = ref false in
    List.iteri
      (fun i (p : Circuit.pin) ->
        if i mod 2 = 1 && not (Circuit.would_cycle_pin c p.sink p.pin_index dup)
        then begin
          Circuit.set_fanin c p.sink p.pin_index dup;
          moved := true
        end)
      (Circuit.fanouts c g);
    ignore (Circuit.sweep c);
    !moved

(* Reroute one branch of a stem through a double inversion. *)
let inverter_chain rng c =
  match find_cell c "inv" with
  | None -> false
  | Some inv -> (
    match pick_elt rng (stems_with_fanout c) with
    | None -> false
    | Some s ->
      let pins = Circuit.fanouts c s in
      let i1 = Circuit.add_cell c inv [| s |] in
      let i2 = Circuit.add_cell c inv [| i1 |] in
      let ok = ref false in
      (match pick_elt rng pins with
      | Some p when not (Circuit.would_cycle_pin c p.sink p.pin_index i2) ->
        Circuit.set_fanin c p.sink p.pin_index i2;
        ok := true
      | _ -> ());
      ignore (Circuit.sweep c);
      !ok)

(* Grow a small cone over constant drivers, then merge its (constant)
   output into one branch through an identity gate: [or2(s, 0) = s],
   [and2(s, 1) = s]. *)
let constant_cone rng c =
  match (find_cell c "or2", find_cell c "and2") with
  | Some or2, Some and2 -> (
    let two_in = Gatelib.Library.two_input_cells (Circuit.library c) in
    if two_in = [] then false
    else
      let k0 = Circuit.add_const c false in
      let k1 = Circuit.add_const c true in
      let pool = ref [ (k0, false); (k1, true) ] in
      for _ = 1 to pick rng 2 4 do
        match pick_elt rng two_in with
        | None -> ()
        | Some cell ->
          let a, va = Option.get (pick_elt rng !pool) in
          let b, vb = Option.get (pick_elt rng !pool) in
          let g = Circuit.add_cell c cell [| a; b |] in
          pool := (g, Gatelib.Cell.eval cell [| va; vb |]) :: !pool
      done;
      let cone, value = List.hd !pool in
      let cands =
        List.filter (fun id -> id <> cone) (stems_with_fanout c)
      in
      let ok = ref false in
      (match pick_elt rng cands with
      | None -> ()
      | Some s -> (
        let cell = if value then and2 else or2 in
        let merged = Circuit.add_cell c cell [| s; cone |] in
        match pick_elt rng (List.filter (fun (p : Circuit.pin) -> p.sink <> merged) (Circuit.fanouts c s)) with
        | Some p when not (Circuit.would_cycle_pin c p.sink p.pin_index merged) ->
          Circuit.set_fanin c p.sink p.pin_index merged;
          ok := true
        | _ -> ()));
      ignore (Circuit.sweep c);
      !ok)
  | _ -> false

(* Manufacture a wide stem: [t = or2(s, inv s)] is a tautology, so
   ANDing it into a branch of any signal [x] leaves [x]'s function
   unchanged while [t] collects one fanout per rerouted branch. *)
let high_fanout_stem rng c =
  match (find_cell c "inv", find_cell c "or2", find_cell c "and2") with
  | Some inv, Some or2, Some and2 -> (
    match pick_elt rng (stems_with_fanout c) with
    | None -> false
    | Some s ->
      let i = Circuit.add_cell c inv [| s |] in
      let taut = Circuit.add_cell c or2 [| s; i |] in
      let helpers = [ i; taut ] in
      let ok = ref false in
      let stems =
        List.filter (fun id -> not (List.mem id helpers)) (stems_with_fanout c)
      in
      for _ = 1 to pick rng 2 4 do
        match pick_elt rng stems with
        | None -> ()
        | Some x -> (
          let pins =
            List.filter
              (fun (p : Circuit.pin) -> not (List.mem p.sink helpers))
              (Circuit.fanouts c x)
          in
          match pick_elt rng pins with
          | Some p ->
            let g = Circuit.add_cell c and2 [| x; taut |] in
            if
              p.sink <> g
              && not (Circuit.would_cycle_pin c p.sink p.pin_index g)
            then begin
              Circuit.set_fanin c p.sink p.pin_index g;
              ok := true
            end
            (* a failed reroute leaves [g] dangling; the final sweep
               removes it (sweeping here would kill [taut] for the
               remaining iterations) *)
          | None -> ())
      done;
      ignore (Circuit.sweep c);
      !ok)
  | _ -> false

let mutate rng c = function
  | Fanout_split -> fanout_split rng c
  | Inverter_chain -> inverter_chain rng c
  | Constant_cone -> constant_cone rng c
  | High_fanout_stem -> high_fanout_stem rng c

let generate spec =
  let c = base spec in
  let rng = Rng.stream spec.seed "fuzz/mutate" in
  List.iter (fun m -> ignore (mutate rng c m)) spec.mutations;
  ignore (Circuit.sweep c);
  c
