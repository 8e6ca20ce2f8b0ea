module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Library = Gatelib.Library
module Engine = Sim.Engine
module Estimator = Power.Estimator
module Timing = Sta.Timing

type target =
  | Stem of Circuit.node_id
  | Branch of { sink : Circuit.node_id; pin : int }

type source =
  | Signal of Circuit.node_id
  | Inverted of Circuit.node_id
  | Gate2 of Cell.t * Circuit.node_id * Circuit.node_id

type t = { target : target; source : source }

type klass = Os2 | Is2 | Os3 | Is3

let klass s =
  match (s.target, s.source) with
  | Stem _, (Signal _ | Inverted _) -> Os2
  | Stem _, Gate2 _ -> Os3
  | Branch _, (Signal _ | Inverted _) -> Is2
  | Branch _, Gate2 _ -> Is3

let klass_name = function
  | Os2 -> "OS2"
  | Is2 -> "IS2"
  | Os3 -> "OS3"
  | Is3 -> "IS3"

let all_klasses = [ Os2; Is2; Os3; Is3 ]

let klass_of_name name =
  let name = String.uppercase_ascii name in
  List.find_opt (fun k -> String.equal (klass_name k) name) all_klasses

let substituted_signal circ s =
  match s.target with
  | Stem a -> a
  | Branch { sink; pin } -> (Circuit.fanins circ sink).(pin)

let out_cap_of circ id =
  match Circuit.kind circ id with
  | Circuit.Cell (c, _) -> c.Cell.out_cap
  | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> 0.0

let moved_load circ s =
  match s.target with
  | Stem a -> Circuit.load_of circ a -. out_cap_of circ a
  | Branch { sink; pin } -> Circuit.pin_cap circ { Circuit.sink; pin_index = pin }

let describe circ s =
  let source_str =
    match s.source with
    | Signal b -> Circuit.name circ b
    | Inverted b -> "!" ^ Circuit.name circ b
    | Gate2 (c, b, d) ->
      Printf.sprintf "%s(%s,%s)" c.Cell.name (Circuit.name circ b)
        (Circuit.name circ d)
  in
  match s.target with
  | Stem a ->
    Printf.sprintf "%s(%s <- %s)"
      (klass_name (klass s))
      (Circuit.name circ a) source_str
  | Branch { sink; pin } ->
    Printf.sprintf "%s(%s.pin%d <- %s)"
      (klass_name (klass s))
      (Circuit.name circ sink) pin source_str

(* ------------------------------------------------------------------ *)
(* Source realization plan (shared by apply / gain / delay / cycle).   *)
(* ------------------------------------------------------------------ *)

(* An Inverted source reuses an existing inverter on the signal when one
   is present (no new gate, no new pin load on the signal). *)
let existing_inverter circ b ~avoid =
  let inv_tt = Logic.Tt.not_ (Logic.Tt.var 1 0) in
  List.find_map
    (fun p ->
      let sink = p.Circuit.sink in
      if sink = avoid then None
      else
        match Circuit.kind circ sink with
        | Circuit.Cell (c, _) when Logic.Tt.equal c.Cell.func inv_tt -> Some sink
        | Circuit.Cell _ | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> None)
    (Circuit.fanouts circ b)

type plan =
  | P_existing of Circuit.node_id
  | P_new_inv of Circuit.node_id            (* inverter cell on this signal *)
  | P_new_gate of Cell.t * Circuit.node_id * Circuit.node_id

let plan_of circ s =
  let avoid = match s.target with Stem a -> a | Branch { sink; _ } -> sink in
  match s.source with
  | Signal b -> P_existing b
  | Inverted b -> (
    match existing_inverter circ b ~avoid with
    | Some v -> P_existing v
    | None -> P_new_inv b)
  | Gate2 (c, b, d) -> P_new_gate (c, b, d)

(* ------------------------------------------------------------------ *)
(* Cycle legality.                                                     *)
(* ------------------------------------------------------------------ *)

let creates_cycle circ s =
  let reaches_from_target node =
    match s.target with
    | Stem a ->
      a = node
      || List.exists
           (fun p ->
             (not (Circuit.is_po_node circ p.Circuit.sink))
             && Circuit.reaches circ p.Circuit.sink node)
           (Circuit.fanouts circ a)
    | Branch { sink; _ } ->
      (not (Circuit.is_po_node circ sink)) && Circuit.reaches circ sink node
  in
  match plan_of circ s with
  | P_existing v -> reaches_from_target v
  | P_new_inv b -> reaches_from_target b
  | P_new_gate (_, b, d) -> reaches_from_target b || reaches_from_target d

(* ------------------------------------------------------------------ *)
(* Application.                                                        *)
(* ------------------------------------------------------------------ *)

let apply circ s =
  if creates_cycle circ s then
    invalid_arg ("Subst.apply: cycle: " ^ describe circ s);
  let inv = Library.inverter (Circuit.library circ) in
  let src =
    match plan_of circ s with
    | P_existing v -> v
    | P_new_inv b -> Circuit.add_cell circ inv [| b |]
    | P_new_gate (c, b, d) -> Circuit.add_cell circ c [| b; d |]
  in
  (match s.target with
  | Stem a -> Circuit.replace_stem circ a src
  | Branch { sink; pin } -> Circuit.set_fanin circ sink pin src);
  ignore (Circuit.sweep circ);
  src

let apply_to_clone circ s =
  let cl = Circuit.clone circ in
  ignore (apply cl s);
  cl

(* ------------------------------------------------------------------ *)
(* Power gain.                                                         *)
(* ------------------------------------------------------------------ *)

type gain = { pg_a : float; pg_b : float; pg_c : float }

let total_gain g = g.pg_a +. g.pg_b +. g.pg_c

(* the source as a cell function over existing signals *)
let buffer_tt = Logic.Tt.var 1 0
let inverter_tt = Logic.Tt.not_ buffer_tt

let trial s =
  let func, ins =
    match s.source with
    | Signal b -> (buffer_tt, [| b |])
    | Inverted b -> (inverter_tt, [| b |])
    | Gate2 (c, b, d) -> (c.Cell.func, [| b; d |])
  in
  match s.target with
  | Stem a -> (a, fun eng -> Engine.set_cell_value eng a func ins)
  | Branch { sink; pin } ->
    (sink, fun eng -> Engine.recompute_with_pin_cell eng ~sink ~pin func ins)

(* The removed region is Dom(a) minus whatever still feeds the
   substituting signal(s): those cones survive the sweep.  The [dom]
   mask is mutated in place: [keep_cone] only clears region members,
   so setting every member's entry again afterwards restores it, at
   the cost of the member walk the power sums already make (copying
   the mask per candidate made generation quadratic on large
   netlists). *)
let stem_pg_a est s (dom, members) =
  let circ = Estimator.circuit est in
  (* Strip TFI(root) ∩ Dom(a) by a backward walk restricted to the
     region: any region node with a path to [root] has all the
     path's intermediate nodes in the region too (an intermediate
     escaping to a PO without passing [a] would give the ancestor
     the same escape), so the restricted walk reaches exactly
     TFI(root) ∩ Dom(a).  Overlapping cones compose: a node cleared
     by an earlier cone was reached through fanins that were also
     cleared, so nothing a later walk is blocked from was kept. *)
  let rec strip id =
    Array.iter
      (fun f ->
        if dom.(f) then begin
          dom.(f) <- false;
          strip f
        end)
      (Circuit.fanins circ id)
  in
  let keep_cone root =
    if dom.(root) then begin
      dom.(root) <- false;
      strip root
    end
  in
  (match plan_of circ s with
  | P_existing v -> keep_cone v
  | P_new_inv b -> keep_cone b
  | P_new_gate (_, b, d) ->
    keep_cone b;
    keep_cone d);
  let pg =
    Estimator.region_power est dom members
    +. Estimator.region_input_relief est dom members
  in
  Array.iter (fun id -> dom.(id) <- true) members;
  pg

let gain_ab ?dom est s =
  let circ = Estimator.circuit est in
  let eng = Estimator.engine est in
  let moved = moved_load circ s in
  let pg_a =
    match (s.target, dom) with
    | Stem _, Some d -> stem_pg_a est s d
    | Stem a, None ->
      Circuit.with_dominated_region circ a (fun region -> stem_pg_a est s (region ()))
    | Branch _, _ ->
      moved *. Estimator.transition_prob est (substituted_signal circ s)
  in
  let pg_b =
    match plan_of circ s with
    | P_existing v -> -.(moved *. Estimator.transition_prob est v)
    | P_new_inv b ->
      let inv = Library.inverter (Circuit.library circ) in
      let eb = Estimator.transition_prob est b in
      (* the inverter's input pin loads b; its output (activity = E(b))
         drives the moved load plus its own output capacitance *)
      -.((inv.Cell.pin_caps.(0) *. eb) +. ((moved +. inv.Cell.out_cap) *. eb))
    | P_new_gate (c, b, d) ->
      let e_g =
        Estimator.transition_of_ones
          (Engine.cell_ones eng c.Cell.func [| b; d |])
          ~total_patterns:(Engine.num_patterns eng)
      in
      -.((c.Cell.pin_caps.(0) *. Estimator.transition_prob est b)
         +. (c.Cell.pin_caps.(1) *. Estimator.transition_prob est d)
         +. ((moved +. c.Cell.out_cap) *. e_g))
  in
  { pg_a; pg_b; pg_c = 0.0 }

let gain_full est s =
  let base = gain_ab est s in
  let circ = Estimator.circuit est in
  let eng = Estimator.engine est in
  let first, perturb = trial s in
  let tfo = Circuit.tfo circ first in
  (* For a stem target the stem itself vanishes (accounted in PG_A and
     PG_B); for a branch target the sink's own activity changes too. *)
  (match s.target with
  | Stem _ -> ()
  | Branch { sink; _ } -> tfo.(sink) <- true);
  let measure eng =
    let acc = ref 0.0 in
    Circuit.iter_live circ (fun id ->
        if tfo.(id) && not (Circuit.is_po_node circ id) then begin
          let e_old = Estimator.transition_prob est id in
          let p_new = Engine.prob_one eng id in
          let e_new = 2.0 *. p_new *. (1.0 -. p_new) in
          acc := !acc +. (Circuit.load_of circ id *. (e_old -. e_new))
        end);
    !acc
  in
  let pg_c = Engine.with_perturbation eng ~first ~perturb ~measure in
  { base with pg_c }

(* ------------------------------------------------------------------ *)
(* Delay legality.                                                     *)
(* ------------------------------------------------------------------ *)

let delay_ok sta s =
  let eps = 1e-9 in
  let circ = Timing.circuit sta in
  let moved = moved_load circ s in
  let req_target =
    match s.target with
    | Stem a -> Timing.required sta a
    | Branch { sink; pin = _ } ->
      Timing.required sta sink -. Timing.gate_delay circ sink
  in
  (* delay increase of signal [b] when its load grows by [delta] *)
  let load_increase_ok b delta =
    let cur = Circuit.load_of circ b in
    let inc = Timing.delay_with_load circ b (cur +. delta) -. Timing.delay_with_load circ b cur in
    (inc, Timing.slack sta b +. eps >= inc)
  in
  let lib = Circuit.library circ in
  match plan_of circ s with
  | P_existing v ->
    let inc, ok = load_increase_ok v moved in
    ok && Timing.arrival sta v +. inc <= req_target +. eps
  | P_new_inv b ->
    let inv = Library.inverter lib in
    let inc, ok = load_increase_ok b inv.Cell.pin_caps.(0) in
    let inv_delay = inv.Cell.tau +. (inv.Cell.drive_res *. (moved +. inv.Cell.out_cap)) in
    ok && Timing.arrival sta b +. inc +. inv_delay <= req_target +. eps
  | P_new_gate (c, b, d) ->
    let inc_b, ok_b = load_increase_ok b c.Cell.pin_caps.(0) in
    let inc_d, ok_d = load_increase_ok d c.Cell.pin_caps.(1) in
    let gate_delay = c.Cell.tau +. (c.Cell.drive_res *. (moved +. c.Cell.out_cap)) in
    let arr =
      Float.max
        (Timing.arrival sta b +. inc_b)
        (Timing.arrival sta d +. inc_d)
      +. gate_delay
    in
    ok_b && ok_d && arr <= req_target +. eps
