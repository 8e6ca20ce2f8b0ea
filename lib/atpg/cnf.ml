module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Tt = Logic.Tt

type outcome =
  | Justified of (Circuit.node_id * bool) list
  | Impossible
  | Gave_up of Sat.give_up

type view = { num_ids : int; kind : Circuit.node_id -> Circuit.kind }

let view_of circ = { num_ids = Circuit.num_nodes circ; kind = Circuit.kind circ }

let fanins_of = function
  | Circuit.Pi | Circuit.Const _ -> [||]
  | Circuit.Cell (_, fs) -> fs
  | Circuit.Po d -> [| d |]

(* The target and its transitive fanin, in ascending id order: on large
   netlists most of the circuit is irrelevant to one justification
   query.  An explicit stack, so deep chains cannot overflow. *)
let cone v target =
  let seen = Array.make v.num_ids false in
  let stack = ref [ target ] and acc = ref [] in
  seen.(target) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      acc := id :: !acc;
      Array.iter
        (fun f ->
          if not seen.(f) then begin
            seen.(f) <- true;
            stack := f :: !stack
          end)
        (fanins_of (v.kind id))
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

(* Tseitin clauses of a fanin-closed [cone] (ascending ids), variables
   numbered in cone order.  The list runs from the last node's clauses
   back to the first's: the solver's search is pinned to this order. *)
let clauses v cone =
  let var = Array.make v.num_ids (-1) in
  Array.iteri (fun i id -> var.(id) <- i) cone;
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  Array.iter
    (fun id ->
      match v.kind id with
      | Circuit.Pi -> ()
      | Circuit.Const b -> add [| Sat.lit_of var.(id) b |]
      | Circuit.Po d ->
        add [| Sat.lit_of var.(id) true; Sat.lit_of var.(d) false |];
        add [| Sat.lit_of var.(id) false; Sat.lit_of var.(d) true |]
      | Circuit.Cell (c, fs) ->
        let k = Array.length fs in
        for m = 0 to (1 lsl k) - 1 do
          let clause = Array.make (k + 1) 0 in
          for i = 0 to k - 1 do
            clause.(i) <- Sat.lit_of var.(fs.(i)) (m land (1 lsl i) = 0)
          done;
          clause.(k) <- Sat.lit_of var.(id) (Tt.eval_int c.Cell.func m);
          add clause
        done)
    cone;
  (!clauses, (fun id -> var.(id)), Array.length cone)

let justify ?(conflict_limit = 200_000) ?(deadline = Obs.Deadline.never)
    ?on_stall v ~cone ~pis target =
  let clauses, var_of, num_vars = clauses v cone in
  let clauses = [| Sat.lit_of (var_of target) true |] :: clauses in
  match Sat.solve ~conflict_limit ~deadline ?on_stall ~num_vars clauses with
  | Sat.Unsat -> Impossible
  | Sat.Timeout why -> Gave_up why
  | Sat.Sat model ->
    Justified
      (List.filter_map
         (fun pi ->
           let x = var_of pi in
           if x >= 0 then Some (pi, model.(x)) else None)
         pis)

let justify_one ?conflict_limit ?deadline circ target =
  let v = view_of circ in
  justify ?conflict_limit ?deadline v ~cone:(cone v target)
    ~pis:(Circuit.pis circ) target
