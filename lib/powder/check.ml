module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Library = Gatelib.Library
module Equiv = Atpg.Equiv

type verdict =
  | Permissible
  | Not_permissible of (string * bool) list
  | Gave_up of { engine : string; limit : string }

let gave_up_sat = function
  | Atpg.Sat.Conflicts -> Gave_up { engine = "sat"; limit = "conflicts" }
  | Atpg.Sat.Deadline -> Gave_up { engine = "sat"; limit = "deadline" }

let gave_up_podem = function
  | Atpg.Podem.Backtracks -> Gave_up { engine = "podem"; limit = "backtracks" }
  | Atpg.Podem.Deadline -> Gave_up { engine = "podem"; limit = "deadline" }

(* A miter as an overlay: ids below [n0] are the circuit's own nodes,
   read in place; the miter's nodes take [n0], [n0 + 1], ... in the
   order they were built.  The global miter overlays the live circuit
   in the order a clone of it would have allocated them, and the window
   miter ([n0 = 0]) stands alone in the order the window's own circuit
   would have: the CNF encoder numbers variables by id and orders
   clauses by them, so every solve follows that same search. *)
type miter = {
  circ : Circuit.t;
  n0 : int;
  extra : Circuit.kind array;  (* node [n0 + i] *)
  twin : Circuit.node_id array;  (* the node a duplicate copies, or -1 *)
  inputs : Circuit.node_id list;  (* the free inputs, in pattern order *)
  out : Circuit.node_id;
}

let kind mt id = if id < mt.n0 then Circuit.kind mt.circ id else mt.extra.(id - mt.n0)
let num_ids mt = mt.n0 + Array.length mt.extra
let view mt = { Atpg.Cnf.num_ids = num_ids mt; kind = kind mt }

(* A miter under construction: its nodes so far, newest first, each
   with the node it duplicates. *)
type builder = {
  base : int;
  mutable next : int;
  mutable nodes : (Circuit.kind * Circuit.node_id) list;
}

let builder base = { base; next = base; nodes = [] }

let add b ?(of_ = -1) k =
  b.nodes <- (k, of_) :: b.nodes;
  b.next <- b.next + 1;
  b.next - 1

let add_cell b ?of_ c fs = add b ?of_ (Circuit.Cell (c, fs))

(* The substitution's source, then a copy of each [changed] node of
   [order] with the substitution applied: a retargeted pin reads the
   source, a fanin that has a copy reads the copy, any other fanin its
   image [img] in the miter.  Returns the source and the copies. *)
let duplicate b circ s ~img ~changed order =
  let src =
    match Subst.plan_of circ s with
    | Subst.P_existing v -> img v
    | Subst.P_new_inv x -> add_cell b (Library.inverter (Circuit.library circ)) [| img x |]
    | Subst.P_new_gate (c, x, y) -> add_cell b c [| img x; img y |]
  in
  let retargeted id pin f =
    match s.Subst.target with
    | Subst.Stem a -> f = a
    | Subst.Branch { sink; pin = p } -> id = sink && pin = p
  in
  let dup = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      if changed id then
        match Circuit.kind circ id with
        | Circuit.Cell (c, fs) ->
          let fs' =
            Array.mapi
              (fun pin f ->
                if retargeted id pin f then src
                else match Hashtbl.find_opt dup f with Some d -> d | None -> img f)
              fs
          in
          Hashtbl.add dup id (add_cell b ~of_:(img id) c fs')
        | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ())
    order;
  (src, dup)

(* XOR each (old, new) pair and OR the differences: the miter over
   [inputs], or None when there is nothing to compare. *)
let finish b circ ~inputs pairs =
  let diffs =
    List.fold_left (fun acc (o, n) -> add_cell b Equiv.xor_cell [| o; n |] :: acc) [] pairs
    |> List.rev
  in
  let rec or_tree = function
    | [ x ] -> x
    | x :: y :: rest -> or_tree (add_cell b Equiv.or_cell [| x; y |] :: rest)
    | [] -> assert false
  in
  match diffs with
  | [] -> None
  | _ ->
    let out = or_tree diffs in
    let nodes = Array.of_list (List.rev b.nodes) in
    Some
      {
        circ;
        n0 = b.base;
        extra = Array.map fst nodes;
        twin = Array.map snd nodes;
        inputs;
        out;
      }

(* The global miter: the changed cone is the substitution's TFO (and a
   retargeted branch's sink), and every primary output whose driver
   changes is compared.  None when no primary output is affected (the
   substitution is then vacuously permissible). *)
let build circ s =
  let b = builder (Circuit.num_nodes circ) in
  let changed =
    match s.Subst.target with
    | Subst.Stem a -> Circuit.tfo circ a
    | Subst.Branch { sink; _ } ->
      let t = Circuit.tfo circ sink in
      t.(sink) <- true;
      t
  in
  let src, dup =
    duplicate b circ s ~img:Fun.id ~changed:(Array.get changed) (Circuit.topo_order circ)
  in
  let pairs =
    List.filter_map
      (fun po ->
        let d = Circuit.po_driver circ po in
        (* the PO's driver in the modified circuit: the source when the
           substitution retargets this PO itself, a duplicate when the
           driver lies in the changed cone, otherwise unchanged *)
        let retargeted =
          match s.Subst.target with
          | Subst.Stem a -> d = a
          | Subst.Branch { sink; _ } -> sink = po
        in
        match if retargeted then Some src else Hashtbl.find_opt dup d with
        | Some d' when d' <> d -> Some (d, d')
        | Some _ | None -> None)
      (Circuit.pos circ)
  in
  finish b circ ~inputs:(Circuit.pis circ) pairs

(* The global miter as a circuit of its own: a clone of the circuit
   with the overlay's nodes added under the same ids, and a PO on the
   output.  Only the PODEM and BDD engines, which walk a [Circuit.t],
   need it. *)
let materialize mt =
  let m = Circuit.clone mt.circ in
  Array.iter
    (function
      | Circuit.Cell (c, fs) -> ignore (Circuit.add_cell m c fs)
      | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> invalid_arg "Check.materialize")
    mt.extra;
  ignore (Circuit.add_po m ~name:"incr_miter_out" mt.out);
  m

(* The output's fanin cone in topological order (an iterative DFS
   postorder, so deep chains cannot overflow the stack). *)
let topo_cone mt =
  let seen = Array.make (num_ids mt) false in
  let order = ref [] in
  let stack = ref [ (mt.out, false) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (id, true) :: rest ->
      stack := rest;
      order := id :: !order
    | (id, false) :: rest ->
      if seen.(id) then stack := rest
      else begin
        seen.(id) <- true;
        stack := (id, true) :: rest;
        match kind mt id with
        | Circuit.Cell (_, fs) ->
          Array.iter (fun f -> if not seen.(f) then stack := (f, false) :: !stack) fs
        | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ()
      end
  done;
  (Array.of_list (List.rev !order), seen)

let first_one_bit v =
  let rec go j =
    if j >= Array.length v then None
    else if Int64.equal v.(j) 0L then go (j + 1)
    else begin
      let bit = ref 0 in
      while
        Int64.equal (Int64.logand (Int64.shift_right_logical v.(j) !bit) 1L) 0L
      do
        incr bit
      done;
      Some ((j * 64) + !bit)
    end
  in
  go 0

(* Every input combination, laid out as [Sim.Engine.exhaustive] lays
   it out, simulated over the output's cone only. *)
let exhaustive mt =
  let pis = mt.inputs in
  let n = List.length pis in
  let words = max 1 ((1 lsl n) / 64) in
  let values = Array.make (num_ids mt) [||] in
  List.iteri
    (fun i pi ->
      values.(pi) <-
        (if i < 6 then Array.make words (Logic.Tt.word (Logic.Tt.var 6 i))
         else
           Array.init words (fun j -> if (j lsr (i - 6)) land 1 = 1 then -1L else 0L)))
    pis;
  Array.iter
    (fun id ->
      match kind mt id with
      | Circuit.Pi | Circuit.Po _ -> ()
      | Circuit.Const b -> values.(id) <- Array.make words (if b then -1L else 0L)
      | Circuit.Cell (c, fs) ->
        let out = Array.make words 0L in
        Sim.Engine.eval_cell_words c.Cell.func (Array.map (fun f -> values.(f)) fs) out words;
        values.(id) <- out)
    (fst (topo_cone mt));
  match first_one_bit values.(mt.out) with
  | None -> Atpg.Cnf.Impossible
  | Some pattern ->
    let pattern = pattern land ((1 lsl n) - 1) in
    Atpg.Cnf.Justified (List.mapi (fun i pi -> (pi, pattern land (1 lsl i) <> 0)) pis)

(* The one decision procedure for every miter: exhaustive simulation
   of the output's cone when the miter has at most [exhaustive_limit]
   inputs, the SAT solver over the cone's CNF above that. *)
let decide ~exhaustive_limit ~conflict_limit ~deadline ?on_stall mt =
  if List.length mt.inputs <= exhaustive_limit then exhaustive mt
  else
    let v = view mt in
    Atpg.Cnf.justify ~conflict_limit ~deadline ?on_stall v ~cone:(Atpg.Cnf.cone v mt.out)
      ~pis:mt.inputs mt.out

let sweep_metrics = Atpg.Sweep.metrics "check"

(* Conflicts a pair proof of the check's sweep may spend.  The sweep
   runs at a search's first conflict, before the solver has shown the
   check is hard, so a pair it cannot prove cheaply is left to the
   resumed search: on cps every merge the sweep needs takes far fewer,
   and on synth:4000 cones a failing proof at [Equiv]'s 2,500 costs
   about 12 ms. *)
let sweep_pair_budget = 300

(* The paused solve's escape: sweep the duplicated cone back into the
   original.  The miter's cone goes into a sweep graph, the originals
   first; a pass without merging simulates it, and stops the sweep when
   some pattern already sets the output (the miter is satisfiable; the
   solver finds its model).  A second pass walks the duplicates
   bottom-up and merges each into the original it copies when their
   words agree and a pair proof shows them equal; once a PO driver's
   duplicate merges, its XOR folds to 0.  True iff the output folds to
   constant 0: every merge was proved, so the miter is UNSAT. *)
let sweep_proves ~deadline mt =
  let t0 = Obs.Clock.now () in
  Obs.Metrics.incr sweep_metrics.escalations;
  let pis = mt.inputs in
  let g =
    Atpg.Sweep.create ~deadline ~pair_budget:sweep_pair_budget
      ~npis:(List.length pis) sweep_metrics
  in
  let order, in_cone = topo_cone mt in
  let map = Array.make (Array.length in_cone) (-1) in
  List.iteri (fun k pi -> map.(pi) <- Atpg.Sweep.input g k) pis;
  let node id =
    match kind mt id with
    | Circuit.Pi | Circuit.Po _ -> map.(id)
    | Circuit.Const b -> Atpg.Sweep.const g b
    | Circuit.Cell (c, fs) -> Atpg.Sweep.gate g c (Array.map (fun f -> map.(f)) fs)
  in
  Array.iter (fun id -> if id < mt.n0 then map.(id) <- node id) order;
  let walk ~merge =
    Array.iteri
      (fun i o ->
        let id = mt.n0 + i in
        if in_cone.(id) then begin
          map.(id) <- node id;
          if merge && o >= 0 && map.(o) >= 0 then
            map.(id) <- Atpg.Sweep.try_merge g ~fresh:map.(id) ~old:map.(o)
        end)
      mt.twin
  in
  walk ~merge:false;
  let proved =
    Array.for_all (Int64.equal 0L) (Atpg.Sweep.sim_words g map.(mt.out))
    && begin
      walk ~merge:true;
      Atpg.Sweep.is_const g map.(mt.out) false
    end
  in
  if proved then Obs.Metrics.incr sweep_metrics.proved;
  Obs.Metrics.observe sweep_metrics.seconds (Obs.Clock.now () -. t0);
  proved

let miter_clauses circ s =
  Option.map
    (fun mt ->
      let v = view mt in
      let clauses, _, num_vars = Atpg.Cnf.clauses v (Atpg.Cnf.cone v mt.out) in
      (clauses, num_vars))
    (build circ s)

let swept circ s =
  match build circ s with
  | None -> true
  | Some mt -> sweep_proves ~deadline:Obs.Deadline.never mt

(* The miter's construction time, apart from the engine's.  A
   histogram in the --metrics dump rather than a trace span, so traces
   and profiles keep the span tree they have always had. *)
let m_miter_build_seconds = Obs.Metrics.histogram "check.miter_build_seconds"

let permissible ?(backtrack_limit = 20_000) ?(exhaustive_limit = 12)
    ?(engine = `Sat) ?(deadline = Obs.Deadline.never) ?(sweep = true) circ s =
  if Obs.Deadline.expired deadline then
    (* Refuse before paying for the miter: an expired budget must reject
       cleanly, never hang inside an engine. *)
    Gave_up { engine = "check"; limit = "deadline" }
  else
    let t0 = Obs.Clock.now () in
    let miter = build circ s in
    Obs.Metrics.observe m_miter_build_seconds (Obs.Clock.now () -. t0);
    match miter with
    | None -> Permissible
    | Some mt -> (
      let names = List.map (fun (pi, v) -> (Circuit.name circ pi, v)) in
      let wide = List.length mt.inputs > exhaustive_limit in
      match engine with
      | `Podem when wide -> (
        match
          Atpg.Podem.justify_one ~backtrack_limit ~deadline (materialize mt) mt.out
        with
        | Atpg.Podem.Untestable -> Permissible
        | Atpg.Podem.Test a -> Not_permissible (names a)
        | Atpg.Podem.Aborted why -> gave_up_podem why)
      | `Bdd when wide -> (
        match Atpg.Bddcheck.justify_one (materialize mt) mt.out with
        | Atpg.Bddcheck.Impossible -> Permissible
        | Atpg.Bddcheck.Justified a -> Not_permissible (names a)
        | Atpg.Bddcheck.Gave_up _ -> Gave_up { engine = "bdd"; limit = "nodes" })
      | `Sat | `Podem | `Bdd -> (
        match
          decide ~exhaustive_limit ~conflict_limit:(10 * backtrack_limit) ~deadline
            ~on_stall:(fun () -> sweep && sweep_proves ~deadline mt)
            mt
        with
        | Atpg.Cnf.Impossible -> Permissible
        | Atpg.Cnf.Justified a -> Not_permissible (names a)
        | Atpg.Cnf.Gave_up why -> gave_up_sat why))

type window_verdict =
  | W_proved
  | W_escalated of [ `Overflow | `Cex | `Gave_up ]

let escalation_name = function
  | `Overflow -> "overflow"
  | `Cex -> "cex"
  | `Gave_up -> "giveup"

(* Fault injection for the differential test layer: arm with
   [inject_window_forge] and the next window miter whose honest answer
   is a counterexample claims [W_proved] instead.  The windowed-vs-
   global fuzz oracle must flag the lie. *)
let forged = ref 0
let inject_window_forge () = incr forged
let window_forge_armed () = !forged > 0
let clear_window_forge () = forged := 0

(* Conflicts the window's SAT search may spend: a window it cannot
   decide cheaply escalates to the global check. *)
let window_conflict_limit = 2_000

(* Windowed permissibility (the --window K path).  The window miter is
   built like the global one, over the window alone: cut signals become
   free inputs, the shared slice is copied once, the changed cone is
   duplicated with the substitution applied, and every escape is XORed
   old-vs-new.  Window-UNSAT is globally sound (free cut inputs
   over-approximate reachable behaviour; silent escapes mean nothing
   outside the window can change); window-SAT or give-up is
   inconclusive and must escalate to the global miter. *)
let windowed ?(exhaustive_limit = 12) ?(deadline = Obs.Deadline.never)
    ~max_cut circ s =
  if Obs.Deadline.expired deadline then W_escalated `Gave_up
  else begin
    let module W = Atpg.Window in
    let a = Subst.substituted_signal circ s in
    let support =
      a
      ::
      (match Subst.plan_of circ s with
      | Subst.P_existing v -> [ v ]
      | Subst.P_new_inv b -> [ b ]
      | Subst.P_new_gate (_, b, d) -> [ b; d ])
    in
    let roots =
      match s.Subst.target with
      | Subst.Stem t ->
        List.filter_map
          (fun p ->
            let sk = p.Circuit.sink in
            if Circuit.is_po_node circ sk then None else Some sk)
          (Circuit.fanouts circ t)
        |> List.sort_uniq compare
      | Subst.Branch { sink; _ } ->
        if Circuit.is_po_node circ sink then [] else [ sink ]
    in
    match
      W.extract circ ~roots ~support ~max_cut ~max_volume:(16 * max_cut)
    with
    | None -> W_escalated `Overflow
    | Some w -> (
      let b = builder 0 in
      let map = Hashtbl.create 64 in
      let img id = Hashtbl.find map id in
      (* the cut, ascending: constants stay constant, the rest become
         the miter's free inputs *)
      let inputs = ref [] in
      Array.iter
        (fun id ->
          let x =
            match Circuit.kind circ id with
            | Circuit.Const v -> add b (Circuit.Const v)
            | Circuit.Pi | Circuit.Cell _ | Circuit.Po _ ->
              let x = add b Circuit.Pi in
              inputs := x :: !inputs;
              x
          in
          Hashtbl.replace map id x)
        w.W.cut;
      Array.iter
        (fun id ->
          match Circuit.kind circ id with
          | Circuit.Cell (c, fs) ->
            Hashtbl.replace map id (add_cell b c (Array.map img fs))
          | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ())
        w.W.order;
      let src, dup = duplicate b circ s ~img ~changed:(W.is_changed w) w.W.order in
      let escapes =
        List.filter_map
          (fun e -> Option.map (fun d -> (img e, d)) (Hashtbl.find_opt dup e))
          (Array.to_list w.W.escapes)
      in
      (* the target signal itself escaping: a retargeted use outside the
         window (truncated stem fanout, or a PO) sees a -> src directly *)
      let target_escapes =
        match s.Subst.target with
        | Subst.Stem t ->
          List.exists
            (fun p ->
              let sk = p.Circuit.sink in
              Circuit.is_po_node circ sk || not (W.is_internal w sk))
            (Circuit.fanouts circ t)
        | Subst.Branch { sink; _ } -> Circuit.is_po_node circ sink
      in
      let pairs = if target_escapes then escapes @ [ (img a, src) ] else escapes in
      match finish b circ ~inputs:(List.rev !inputs) pairs with
      | None -> W_proved
      | Some mt -> (
        match
          decide ~exhaustive_limit ~conflict_limit:window_conflict_limit ~deadline mt
        with
        | Atpg.Cnf.Impossible -> W_proved
        | Atpg.Cnf.Justified _ when !forged > 0 ->
          decr forged;
          W_proved
        | Atpg.Cnf.Justified _ -> W_escalated `Cex
        | Atpg.Cnf.Gave_up _ -> W_escalated `Gave_up))
  end

(* Exact refutation on the engine's pattern set: perturb the target to
   carry the source's values, re-simulate the fanout, and look for any
   primary-output difference. *)
let refuted_on_patterns eng s =
  let first, perturb = Subst.trial s in
  Sim.Engine.with_perturbation eng ~first ~perturb ~measure:Sim.Engine.po_changed
