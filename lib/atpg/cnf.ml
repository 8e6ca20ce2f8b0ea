module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Tt = Logic.Tt

type outcome =
  | Justified of (Circuit.node_id * bool) list
  | Impossible
  | Gave_up of Sat.give_up

(* Encode only the fanin cone of the target: on large netlists most of
   the circuit is irrelevant to one justification query. *)
let clauses_of_cone circ target =
  let cone = Circuit.tfi circ target in
  cone.(target) <- true;
  let var = Array.make (Circuit.num_nodes circ) (-1) in
  let next = ref 0 in
  Circuit.iter_live circ (fun id ->
      if cone.(id) then begin
        var.(id) <- !next;
        incr next
      end);
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  Circuit.iter_live circ (fun id ->
      if cone.(id) then
        match Circuit.kind circ id with
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
          done);
  (!clauses, (fun id -> var.(id)), !next)

let justify_one ?(conflict_limit = 200_000) ?(deadline = Obs.Deadline.never)
    circ target =
  let clauses, var_of, num_vars = clauses_of_cone circ target in
  let clauses = [| Sat.lit_of (var_of target) true |] :: clauses in
  match Sat.solve ~conflict_limit ~deadline ~num_vars clauses with
  | Sat.Unsat -> Impossible
  | Sat.Timeout why -> Gave_up why
  | Sat.Sat model ->
    Justified
      (List.filter_map
         (fun pi ->
           let v = var_of pi in
           if v >= 0 then Some (pi, model.(v)) else None)
         (Circuit.pis circ))
