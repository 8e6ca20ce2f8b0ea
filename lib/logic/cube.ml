type t = { pos : int; neg : int }

let universe = { pos = 0; neg = 0 }

let of_literals lits =
  List.fold_left
    (fun c (i, phase) ->
      if i < 0 || i > 61 then invalid_arg "Cube.of_literals";
      if phase then { c with pos = c.pos lor (1 lsl i) }
      else { c with neg = c.neg lor (1 lsl i) })
    universe lits

let literals c =
  let rec loop i acc =
    if i < 0 then acc
    else
      let acc =
        if c.pos land (1 lsl i) <> 0 then (i, true) :: acc
        else if c.neg land (1 lsl i) <> 0 then (i, false) :: acc
        else acc
      in
      loop (i - 1) acc
  in
  loop 61 []

let is_contradictory c = c.pos land c.neg <> 0

let num_literals c =
  let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
  pop c.pos 0 + pop c.neg 0

let eval c m = c.pos land lnot m = 0 && c.neg land m = 0

let contains a b = a.pos land lnot b.pos = 0 && a.neg land lnot b.neg = 0

let intersect a b =
  let c = { pos = a.pos lor b.pos; neg = a.neg lor b.neg } in
  if is_contradictory c then None else Some c

let distance a b =
  let opp = (a.pos land b.neg) lor (a.neg land b.pos) in
  let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
  pop opp 0

let merge a b =
  if distance a b <> 1 then None
  else
    let opp = (a.pos land b.neg) lor (a.neg land b.pos) in
    let a' = { pos = a.pos land lnot opp; neg = a.neg land lnot opp } in
    let b' = { pos = b.pos land lnot opp; neg = b.neg land lnot opp } in
    if a'.pos = b'.pos && a'.neg = b'.neg then Some a' else None

let to_tt n c =
  let tt = ref (Tt.const_true n) in
  List.iter
    (fun (i, phase) ->
      if i < n then
        let v = Tt.var n i in
        tt := Tt.and_ !tt (if phase then v else Tt.not_ v))
    (literals c);
  if is_contradictory c then Tt.const_false n else !tt

let to_string n c =
  String.init n (fun i ->
      if c.pos land (1 lsl i) <> 0 then '1'
      else if c.neg land (1 lsl i) <> 0 then '0'
      else '-')

let of_string s =
  let c = ref universe in
  String.iteri
    (fun i ch ->
      match ch with
      | '1' -> c := { !c with pos = !c.pos lor (1 lsl i) }
      | '0' -> c := { !c with neg = !c.neg lor (1 lsl i) }
      | '-' | 'x' | 'X' | '2' -> ()
      | _ -> invalid_arg "Cube.of_string")
    s;
  !c
