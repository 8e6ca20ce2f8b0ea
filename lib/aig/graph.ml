type lit = int

type node_kind = Const0 | Pi of string | And of lit * lit

type t = {
  mutable kinds : node_kind array;
  mutable count : int;
  strash : (lit * lit, int) Hashtbl.t;
  mutable pis_rev : (string * lit) list;
  mutable pos_rev : (string * lit) list;
}

let lit_false = 0
let lit_true = 1
let node_of l = l lsr 1
let is_complement l = l land 1 = 1
let compl_ l = l lxor 1
let lit_of_node n c = (2 * n) lor (if c then 1 else 0)

let create () =
  {
    kinds = Array.make 64 Const0;
    count = 1;
    strash = Hashtbl.create 64;
    pis_rev = [];
    pos_rev = [];
  }

let grow t =
  if t.count = Array.length t.kinds then begin
    let bigger = Array.make (2 * Array.length t.kinds) Const0 in
    Array.blit t.kinds 0 bigger 0 t.count;
    t.kinds <- bigger
  end

let alloc t kind =
  grow t;
  let n = t.count in
  t.kinds.(n) <- kind;
  t.count <- t.count + 1;
  n

let add_pi t name =
  let l = lit_of_node (alloc t (Pi name)) false in
  t.pis_rev <- (name, l) :: t.pis_rev;
  l

let pis t = List.rev t.pis_rev

let and_ t a b =
  (* constant folding *)
  if a = lit_false || b = lit_false then lit_false
  else if a = lit_true then b
  else if b = lit_true then a
  else if a = b then a
  else if a = compl_ b then lit_false
  else begin
    let a, b = if a <= b then (a, b) else (b, a) in
    match Hashtbl.find_opt t.strash (a, b) with
    | Some n -> lit_of_node n false
    | None ->
      let n = alloc t (And (a, b)) in
      Hashtbl.add t.strash (a, b) n;
      lit_of_node n false
  end

let or_ t a b = compl_ (and_ t (compl_ a) (compl_ b))
let xor t a b = or_ t (and_ t a (compl_ b)) (and_ t (compl_ a) b)
let mux t ~sel ~t1 ~e0 = or_ t (and_ t sel t1) (and_ t (compl_ sel) e0)

let balanced_fold op neutral t lits =
  (* fold as a balanced tree to keep depth logarithmic *)
  let rec reduce = function
    | [] -> neutral
    | [ x ] -> x
    | xs ->
      let rec pair = function
        | a :: b :: rest -> op t a b :: pair rest
        | ([ _ ] | []) as tail -> tail
      in
      reduce (pair xs)
  in
  reduce lits

let and_list t lits = balanced_fold and_ lit_true t lits
let or_list t lits = balanced_fold or_ lit_false t lits
let xor_list t lits = balanced_fold xor lit_false t lits

let add_po t name l = t.pos_rev <- (name, l) :: t.pos_rev
let pos t = List.rev t.pos_rev

let num_nodes t = t.count

let num_ands t =
  let n = ref 0 in
  for i = 0 to t.count - 1 do
    match t.kinds.(i) with And _ -> incr n | Const0 | Pi _ -> ()
  done;
  !n

let node_fanins t n =
  match t.kinds.(n) with And (a, b) -> Some (a, b) | Const0 | Pi _ -> None

let pi_name t n = match t.kinds.(n) with Pi s -> Some s | Const0 | And _ -> None

let fanout_count t =
  let counts = Array.make t.count 0 in
  for i = 0 to t.count - 1 do
    match t.kinds.(i) with
    | And (a, b) ->
      counts.(node_of a) <- counts.(node_of a) + 1;
      counts.(node_of b) <- counts.(node_of b) + 1
    | Const0 | Pi _ -> ()
  done;
  List.iter (fun (_, l) -> counts.(node_of l) <- counts.(node_of l) + 1) t.pos_rev;
  counts

let eval_values t pi_values =
  let named = List.combine (List.map fst (pis t)) (Array.to_list pi_values) in
  let values = Array.make t.count false in
  for i = 1 to t.count - 1 do
    match t.kinds.(i) with
    | Const0 -> ()
    | Pi name -> values.(i) <- List.assoc name named
    | And (a, b) ->
      let va = values.(node_of a) <> is_complement a in
      let vb = values.(node_of b) <> is_complement b in
      values.(i) <- va && vb
  done;
  values

let eval t pi_values =
  let values = eval_values t pi_values in
  List.map
    (fun (name, l) -> (name, values.(node_of l) <> is_complement l))
    (pos t)

let level t =
  let levels = Array.make t.count 0 in
  for i = 1 to t.count - 1 do
    match t.kinds.(i) with
    | Const0 | Pi _ -> ()
    | And (a, b) ->
      levels.(i) <- 1 + max levels.(node_of a) levels.(node_of b)
  done;
  levels

let pp_stats fmt t =
  let levels = level t in
  let depth = Array.fold_left max 0 levels in
  Format.fprintf fmt "ands=%d pis=%d pos=%d depth=%d" (num_ands t)
    (List.length t.pis_rev) (List.length t.pos_rev) depth
