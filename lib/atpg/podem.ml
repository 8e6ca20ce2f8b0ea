module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
open Tval

type give_up = Backtracks | Deadline

type result =
  | Test of (Circuit.node_id * bool) list
  | Untestable
  | Aborted of give_up

type mode = Fault_mode of Fault.t | Justify of Circuit.node_id

type state = {
  circ : Circuit.t;
  order : Circuit.node_id array;
  pi_ids : Circuit.node_id list;
  assign : v3 array; (* per node id; meaningful for PIs *)
  values : Tval.t array;
  mode : mode;
  limit : int;
  deadline : Obs.Deadline.t;
  mutable backtracks : int;
  mutable steps : int;
}

exception Abort_search of give_up

let fault_of_mode = function Fault_mode f -> Some f | Justify _ -> None

(* ------------------------------------------------------------------ *)
(* Implication: three-valued forward simulation of both machines.      *)
(* ------------------------------------------------------------------ *)

let eval_composite st id =
  match Circuit.kind st.circ id with
  | Circuit.Pi ->
    let g = st.assign.(id) in
    { good = g; faulty = g }
  | Circuit.Const b -> of_bool b
  | Circuit.Po d -> st.values.(d)
  | Circuit.Cell (c, fs) ->
    let goods = Array.map (fun f -> st.values.(f).good) fs in
    let faults = Array.map (fun f -> st.values.(f).faulty) fs in
    (match fault_of_mode st.mode with
    | Some { Fault.site = Fault.Branch (sink, pin); stuck_at }
      when sink = id ->
      faults.(pin) <- v3_of_bool stuck_at
    | Some _ | None -> ());
    {
      good = Tval.eval_cell c.Cell.func goods;
      faulty = Tval.eval_cell c.Cell.func faults;
    }

let apply_stem_fault st id v =
  match fault_of_mode st.mode with
  | Some { Fault.site = Fault.Stem s; stuck_at } when s = id ->
    { v with faulty = v3_of_bool stuck_at }
  | Some _ | None -> v

let imply st =
  Array.iter
    (fun id -> st.values.(id) <- apply_stem_fault st id (eval_composite st id))
    st.order;
  List.iter
    (fun po -> st.values.(po) <- eval_composite st po)
    (Circuit.pos st.circ)

(* ------------------------------------------------------------------ *)
(* Status checks.                                                      *)
(* ------------------------------------------------------------------ *)

type status = Success | Conflict | Open_search

let fault_site_node circ = function
  | { Fault.site = Fault.Stem s; _ } -> s
  | { Fault.site = Fault.Branch (sink, pin); _ } ->
    (Circuit.fanins circ sink).(pin)

let d_frontier st =
  (* Cells with a D/D' input whose output could still differ.  For a
     branch fault the effect enters the circuit at the faulted sink (the
     driver stem itself carries no D), so the sink joins the frontier
     while its output is open. *)
  let frontier = ref [] in
  (match st.mode with
  | Fault_mode { Fault.site = Fault.Branch (sink, _); _ } ->
    let v = st.values.(sink) in
    if v.good = VX || v.faulty = VX then frontier := [ sink ]
  | Fault_mode { Fault.site = Fault.Stem _; _ } | Justify _ -> ());
  Circuit.iter_live st.circ (fun id ->
      match Circuit.kind st.circ id with
      | Circuit.Cell (_, fs) ->
        let v = st.values.(id) in
        let output_open = v.good = VX || v.faulty = VX in
        if output_open
           && Array.exists (fun f -> is_d_or_dbar st.values.(f)) fs
           && not (List.mem id !frontier)
        then frontier := id :: !frontier
      | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ());
  !frontier

(* Is there a path from [id] to a PO along nodes whose value is still
   open (X in either machine) or already carrying the fault effect? *)
let x_path_to_po st id =
  let seen = Array.make (Circuit.num_nodes st.circ) false in
  let open_node n =
    let v = st.values.(n) in
    v.good = VX || v.faulty = VX || is_d_or_dbar v
  in
  let rec dfs n =
    List.exists
      (fun p ->
        let s = p.Circuit.sink in
        Circuit.is_live st.circ s
        &&
        if Circuit.is_po_node st.circ s then true
        else if seen.(s) || not (open_node s) then false
        else begin
          seen.(s) <- true;
          dfs s
        end)
      (Circuit.fanouts st.circ n)
  in
  dfs id

let status st =
  match st.mode with
  | Justify target -> (
    match st.values.(target).good with
    | V1 -> Success
    | V0 -> Conflict
    | VX -> Open_search)
  | Fault_mode f ->
    let detected =
      List.exists
        (fun po -> is_d_or_dbar st.values.(po))
        (Circuit.pos st.circ)
    in
    if detected then Success
    else begin
      let site = fault_site_node st.circ f in
      let site_good =
        match f.Fault.site with
        | Fault.Stem s -> st.values.(s).good
        | Fault.Branch _ -> st.values.(site).good
      in
      let stuck = v3_of_bool f.Fault.stuck_at in
      let effect_entry =
        match f.Fault.site with
        | Fault.Stem s -> s
        | Fault.Branch (sink, _) -> sink
      in
      if site_good = stuck then Conflict (* can never be excited *)
      else if site_good = VX then
        (* excitation still pending; keep searching if the effect could
           still reach an output *)
        if x_path_to_po st effect_entry then Open_search else Conflict
      else begin
        (* excited: need a frontier gate with an open path to a PO *)
        let frontier = d_frontier st in
        if List.exists (fun g -> x_path_to_po st g) frontier then Open_search
        else Conflict
      end
    end

(* ------------------------------------------------------------------ *)
(* Objective and backtrace.                                            *)
(* ------------------------------------------------------------------ *)

(* Walk from an objective node down to an unassigned PI, choosing at
   each cell an input that is still open.  Returns the PI and a value
   guess. *)
let backtrace st start want =
  let rec walk id want =
    match Circuit.kind st.circ id with
    | Circuit.Pi ->
      if st.assign.(id) = VX then
        Some (id, match want with V0 -> false | V1 | VX -> true)
      else None
    | Circuit.Const _ -> None
    | Circuit.Po d -> walk d want
    | Circuit.Cell (c, fs) ->
      let open_inputs =
        Array.to_list fs
        |> List.filter (fun f ->
               let v = st.values.(f) in
               v.good = VX || v.faulty = VX)
      in
      let rec try_inputs = function
        | [] -> None
        | f :: rest -> (
          (* Guess the phase for input f: prefer a value that could
             force the wanted output. *)
          let guess =
            match want with
            | VX -> V1
            | w -> (
              let probe b =
                let goods =
                  Array.map
                    (fun g -> if g = f then v3_of_bool b else st.values.(g).good)
                    fs
                in
                Tval.eval_cell c.Cell.func goods
              in
              if probe true = w then V1
              else if probe false = w then V0
              else if probe true = VX then V1
              else V0)
          in
          match walk f guess with Some r -> Some r | None -> try_inputs rest)
      in
      try_inputs open_inputs
  in
  walk start want

let objective st =
  match st.mode with
  | Justify target -> Some (target, V1)
  | Fault_mode f ->
    let site = fault_site_node st.circ f in
    let site_good =
      match f.Fault.site with
      | Fault.Stem s -> st.values.(s).good
      | Fault.Branch _ -> st.values.(site).good
    in
    if site_good = VX then
      Some (site, v3_of_bool (not f.Fault.stuck_at))
    else begin
      match d_frontier st with
      | [] -> None
      | g :: _ -> Some (g, VX)
    end

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)
(* ------------------------------------------------------------------ *)

let rec search st =
  (* Each search step runs a whole-circuit implication, so polling the
     deadline every few hundred steps keeps overhead invisible while
     bounding the reaction latency. *)
  st.steps <- st.steps + 1;
  if st.steps land 255 = 0 && Obs.Deadline.expired st.deadline then
    raise (Abort_search Deadline);
  imply st;
  match status st with
  | Success -> true
  | Conflict -> false
  | Open_search -> (
    match objective st with
    | None -> false
    | Some (node, want) -> (
      match backtrace st node want with
      | None -> false
      | Some (pi, first_guess) ->
        let try_value b =
          st.assign.(pi) <- v3_of_bool b;
          search st
        in
        if try_value first_guess then true
        else begin
          st.backtracks <- st.backtracks + 1;
          if st.backtracks > st.limit then raise (Abort_search Backtracks);
          if try_value (not first_guess) then true
          else begin
            st.assign.(pi) <- VX;
            false
          end
        end))

let make_state ?(backtrack_limit = 20_000) ?(deadline = Obs.Deadline.never)
    circ mode =
  let n = Circuit.num_nodes circ in
  {
    circ;
    order = Circuit.topo_order circ;
    pi_ids = Circuit.pis circ;
    assign = Array.make n VX;
    values = Array.make n Tval.x;
    mode;
    limit = backtrack_limit;
    deadline;
    backtracks = 0;
    steps = 0;
  }

let extract_test st =
  List.filter_map
    (fun pi ->
      match st.assign.(pi) with
      | V0 -> Some (pi, false)
      | V1 -> Some (pi, true)
      | VX -> None)
    st.pi_ids

let m_search_seconds = Obs.Metrics.histogram "atpg.podem.search_seconds"
let m_searches = Obs.Metrics.counter "atpg.podem.searches"
let m_backtracks = Obs.Metrics.counter "atpg.podem.backtracks"
let m_giveups = Obs.Metrics.counter "atpg.podem.giveups"

let run st =
  let t0 = Obs.Clock.now () in
  let res =
    try if search st then Test (extract_test st) else Untestable
    with Abort_search why -> Aborted why
  in
  Obs.Metrics.observe m_search_seconds (Obs.Clock.now () -. t0);
  Obs.Metrics.incr m_searches;
  Obs.Metrics.add m_backtracks st.backtracks;
  (match res with
  | Aborted _ -> Obs.Metrics.incr m_giveups
  | Test _ | Untestable -> ());
  res

let generate_test ?backtrack_limit ?deadline circ fault =
  let st = make_state ?backtrack_limit ?deadline circ (Fault_mode fault) in
  run st

let justify_one ?backtrack_limit ?deadline circ target =
  let st = make_state ?backtrack_limit ?deadline circ (Justify target) in
  run st
