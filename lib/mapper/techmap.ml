module G = Aig.Graph
module Tt = Logic.Tt
module Cell = Gatelib.Cell
module Library = Gatelib.Library
module Circuit = Netlist.Circuit

type objective = Area | Power

type choice =
  | C_pi
  | C_inv
  | C_match of { leaves : int array; cell : Cell.t; perm : int array }
  | C_struct
  | C_none

(* ------------------------------------------------------------------ *)
(* Cut enumeration.                                                    *)
(* ------------------------------------------------------------------ *)

let merge_cuts k c1 c2 =
  (* merge two sorted leaf arrays; None if the union exceeds k *)
  let n1 = Array.length c1 and n2 = Array.length c2 in
  let out = Array.make (n1 + n2) 0 in
  let rec go i j m =
    if m > k then None
    else if i = n1 && j = n2 then Some (Array.sub out 0 m)
    else if i = n1 || (j < n2 && c2.(j) < c1.(i)) then begin
      out.(m) <- c2.(j);
      go i (j + 1) (m + 1)
    end
    else if j = n2 || c1.(i) < c2.(j) then begin
      out.(m) <- c1.(i);
      go (i + 1) j (m + 1)
    end
    else begin
      out.(m) <- c1.(i);
      go (i + 1) (j + 1) (m + 1)
    end
  in
  go 0 0 0

let enumerate_cuts g ~cut_size ~cuts_per_node =
  let n = G.num_nodes g in
  let cuts = Array.make n [] in
  for id = 1 to n - 1 do
    match G.node_fanins g id with
    | None -> cuts.(id) <- [ [| id |] ]
    | Some (l0, l1) ->
      let c0 = cuts.(G.node_of l0) and c1 = cuts.(G.node_of l1) in
      let merged =
        List.concat_map
          (fun a -> List.filter_map (fun b -> merge_cuts cut_size a b) c1)
          c0
      in
      let dedup = Hashtbl.create 16 in
      let unique =
        List.filter
          (fun c ->
            let key = Array.to_list c in
            if Hashtbl.mem dedup key then false
            else begin
              Hashtbl.add dedup key ();
              true
            end)
          merged
      in
      let sorted =
        List.sort
          (fun a b -> Int.compare (Array.length a) (Array.length b))
          unique
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      cuts.(id) <- [| id |] :: take cuts_per_node sorted
  done;
  cuts

(* Function of node [root] over the cut leaves (positive variables). *)
let cut_function g root leaves =
  let k = Array.length leaves in
  let var_of = Hashtbl.create 8 in
  Array.iteri (fun i l -> Hashtbl.add var_of l i) leaves;
  let memo = Hashtbl.create 16 in
  let rec f node =
    match Hashtbl.find_opt memo node with
    | Some tt -> tt
    | None ->
      let tt =
        match Hashtbl.find_opt var_of node with
        | Some i -> Tt.var k i
        | None -> (
          match G.node_fanins g node with
          | None -> invalid_arg "cut_function: leaf set does not cover the cone"
          | Some (l0, l1) ->
            let t0 = f (G.node_of l0) in
            let t0 = if G.is_complement l0 then Tt.not_ t0 else t0 in
            let t1 = f (G.node_of l1) in
            let t1 = if G.is_complement l1 then Tt.not_ t1 else t1 in
            Tt.and_ t0 t1)
      in
      Hashtbl.add memo node tt;
      tt
  in
  f root

(* ------------------------------------------------------------------ *)
(* Signal probabilities on the AIG (independence approximation).       *)
(* ------------------------------------------------------------------ *)

let node_probs g input_prob =
  let n = G.num_nodes g in
  let p = Array.make n 0.0 in
  for id = 1 to n - 1 do
    match G.node_fanins g id with
    | None ->
      (match G.pi_name g id with
      | Some name -> p.(id) <- input_prob name
      | None -> p.(id) <- 0.0)
    | Some (l0, l1) ->
      let lp l =
        let q = p.(G.node_of l) in
        if G.is_complement l then 1.0 -. q else q
      in
      p.(id) <- lp l0 *. lp l1
  done;
  p

let activity p = 2.0 *. p *. (1.0 -. p)

(* ------------------------------------------------------------------ *)
(* Mapping.                                                            *)
(* ------------------------------------------------------------------ *)

let m_maps = Obs.Metrics.counter "mapper.maps"

let map ?(objective = Power) ?(cut_size = 4) ?(cuts_per_node = 8)
    ?(input_prob = fun _ -> 0.5) lib g =
  Obs.Metrics.incr m_maps;
  let inv = try Library.inverter lib with Not_found ->
    invalid_arg "Techmap.map: library has no inverter"
  in
  let and2_tt = Tt.and_ (Tt.var 2 0) (Tt.var 2 1) in
  let nand2_tt = Tt.not_ and2_tt in
  let and_cell = Library.match_tt_best lib and2_tt in
  let nand_cell = Library.match_tt_best lib nand2_tt in
  if and_cell = None && nand_cell = None then
    invalid_arg "Techmap.map: library has no 2-input AND or NAND";
  let n = G.num_nodes g in
  let probs = node_probs g input_prob in
  let refs = G.fanout_count g in
  let share id = float_of_int (max 1 refs.(id)) in
  let cell_cost cell perm leaves =
    match objective with
    | Area -> cell.Cell.area
    | Power ->
      let pins = ref (1e-6 *. cell.Cell.area) in
      Array.iteri
        (fun i leaf ->
          pins :=
            !pins +. (cell.Cell.pin_caps.(perm.(i)) *. activity probs.(leaf)))
        leaves;
      !pins
  in
  let inv_cost id =
    match objective with
    | Area -> inv.Cell.area
    | Power -> (1e-6 *. inv.Cell.area) +. (inv.Cell.pin_caps.(0) *. activity probs.(id))
  in
  let cuts = enumerate_cuts g ~cut_size ~cuts_per_node in
  let cost = Array.make_matrix n 2 infinity in
  let choice = Array.make_matrix n 2 C_none in
  let consider id phase c ch =
    if c < cost.(id).(phase) then begin
      cost.(id).(phase) <- c;
      choice.(id).(phase) <- ch
    end
  in
  for id = 1 to n - 1 do
    match G.node_fanins g id with
    | None ->
      consider id 0 0.0 C_pi;
      consider id 1 (inv_cost id) C_inv
    | Some (l0, l1) ->
      (* matched candidates from every non-trivial cut *)
      List.iter
        (fun cut ->
          if Array.length cut > 1 || cut.(0) <> id then begin
            let f = cut_function g id cut in
            let support = Tt.support f in
            if List.length support >= 2 then begin
              let leaves =
                Array.of_list (List.map (fun v -> cut.(v)) support)
              in
              let f = Tt.project f support in
              let leaf_costs =
                Array.fold_left
                  (fun acc leaf -> acc +. (cost.(leaf).(0) /. share leaf))
                  0.0 leaves
              in
              let try_phase phase target =
                match Library.match_tt_best lib target with
                | None -> ()
                | Some (cell, perm) ->
                  consider id phase
                    (cell_cost cell perm leaves +. leaf_costs)
                    (C_match { leaves; cell; perm })
              in
              try_phase 0 f;
              try_phase 1 (Tt.not_ f)
            end
          end)
        cuts.(id);
      (* structural fallback for the positive phase *)
      let edge_cost l =
        let nd = G.node_of l and ph = if G.is_complement l then 1 else 0 in
        cost.(nd).(ph) /. share nd
      in
      let struct_cost =
        let base = edge_cost l0 +. edge_cost l1 in
        match (and_cell, nand_cell) with
        | Some (c, perm), _ ->
          base +. cell_cost c perm [| G.node_of l0; G.node_of l1 |]
        | None, Some (c, perm) ->
          base
          +. cell_cost c perm [| G.node_of l0; G.node_of l1 |]
          +. inv_cost id
        | None, None -> infinity
      in
      consider id 0 struct_cost C_struct;
      (* inverter conversions both ways *)
      consider id 1 (cost.(id).(0) +. inv_cost id) C_inv;
      consider id 0 (cost.(id).(1) +. inv_cost id) C_inv
  done;
  (* --------------------------------------------------------------- *)
  (* Cover construction.                                              *)
  (* --------------------------------------------------------------- *)
  let circ = Circuit.create lib in
  let pi_ids = Hashtbl.create 16 in
  List.iter
    (fun (name, l) -> Hashtbl.add pi_ids (G.node_of l) (Circuit.add_pi circ ~name))
    (G.pis g);
  let impl_memo = Hashtbl.create 64 in
  let rec impl id phase =
    match Hashtbl.find_opt impl_memo (id, phase) with
    | Some node -> node
    | None ->
      let node =
        match choice.(id).(phase) with
        | C_pi -> Hashtbl.find pi_ids id
        | C_inv -> Circuit.add_cell circ inv [| impl id (1 - phase) |]
        | C_match { leaves; cell; perm } ->
          let fanins = Array.make (Cell.arity cell) (-1) in
          Array.iteri (fun i leaf -> fanins.(perm.(i)) <- impl leaf 0) leaves;
          Circuit.add_cell circ cell fanins
        | C_struct -> (
          let edge l = impl (G.node_of l) (if G.is_complement l then 1 else 0) in
          match (G.node_fanins g id, and_cell, nand_cell) with
          | Some (l0, l1), Some (c, _), _ ->
            Circuit.add_cell circ c [| edge l0; edge l1 |]
          | Some (l0, l1), None, Some (c, _) ->
            let nand_node = Circuit.add_cell circ c [| edge l0; edge l1 |] in
            Circuit.add_cell circ inv [| nand_node |]
          | _, _, _ -> assert false)
        | C_none -> assert false
      in
      Hashtbl.add impl_memo (id, phase) node;
      node
  in
  List.iter
    (fun (name, l) ->
      let driver =
        if G.node_of l = 0 then Circuit.add_const circ (G.is_complement l)
        else impl (G.node_of l) (if G.is_complement l then 1 else 0)
      in
      ignore (Circuit.add_po circ ~name driver))
    (G.pos g);
  circ
