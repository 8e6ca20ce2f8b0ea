module Circuit = Netlist.Circuit
module Engine = Sim.Engine

(* The trial that sticks the fault's site at its value, the constant
   row written in place *)
let trial fault =
  let v = (if fault.Fault.stuck_at then Logic.Tt.const_true else Logic.Tt.const_false) 0 in
  match fault.Fault.site with
  | Fault.Stem s -> (s, fun eng -> Engine.set_cell_value eng s v [||])
  | Fault.Branch (sink, pin) ->
    (sink, fun eng -> Engine.recompute_with_pin_cell eng ~sink ~pin v [||])

let detection_mask eng fault =
  let first, perturb = trial fault in
  Engine.with_perturbation eng ~first ~perturb ~measure:Engine.po_diff

let detects eng fault =
  let first, perturb = trial fault in
  Engine.with_perturbation eng ~first ~perturb ~measure:Engine.po_changed

type coverage = { total : int; detected : int; undetected : Fault.t list }

let grade eng faults =
  let undetected = List.filter (fun f -> not (detects eng f)) faults in
  {
    total = List.length faults;
    detected = List.length faults - List.length undetected;
    undetected;
  }

let random_coverage circ ~patterns ~seed =
  let words = max 1 ((patterns + 63) / 64) in
  let eng = Engine.create circ ~words in
  Engine.randomize eng (Sim.Rng.create seed);
  grade eng (Fault.all_faults circ)
