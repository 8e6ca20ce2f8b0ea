module Circuit = Netlist.Circuit

type site = Stem of Circuit.node_id | Branch of Circuit.node_id * int

type t = { site : site; stuck_at : bool }

let stem id v = { site = Stem id; stuck_at = v }
let branch ~sink ~pin v = { site = Branch (sink, pin); stuck_at = v }

let all_faults circ =
  let acc = ref [] in
  Circuit.iter_live circ (fun id ->
      match Circuit.kind circ id with
      | Circuit.Po _ -> ()
      | Circuit.Pi | Circuit.Const _ | Circuit.Cell _ ->
        acc := stem id true :: stem id false :: !acc;
        if Circuit.num_fanouts circ id > 1 then
          List.iter
            (fun p ->
              if not (Circuit.is_po_node circ p.Circuit.sink) then
                acc :=
                  branch ~sink:p.Circuit.sink ~pin:p.Circuit.pin_index true
                  :: branch ~sink:p.Circuit.sink ~pin:p.Circuit.pin_index false
                  :: !acc)
            (Circuit.fanouts circ id));
  List.rev !acc

let to_string circ f =
  let polarity = if f.stuck_at then "sa1" else "sa0" in
  match f.site with
  | Stem id -> Printf.sprintf "%s/%s" (Circuit.name circ id) polarity
  | Branch (sink, pin) ->
    Printf.sprintf "%s.pin%d/%s" (Circuit.name circ sink) pin polarity
