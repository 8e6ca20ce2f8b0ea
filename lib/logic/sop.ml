type t = { n : int; cs : Cube.t list }

let create n cs =
  if n < 0 || n > 62 then invalid_arg "Sop.create";
  { n; cs = List.filter (fun c -> not (Cube.is_contradictory c)) cs }

let num_vars t = t.n
let cubes t = t.cs
let num_cubes t = List.length t.cs
let num_literals t = List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 t.cs

let const_false n = create n []
let const_true n = create n [ Cube.universe ]

let eval t m = List.exists (fun c -> Cube.eval c m) t.cs

let to_tt t =
  if t.n > Tt.max_vars then invalid_arg "Sop.to_tt";
  List.fold_left (fun acc c -> Tt.or_ acc (Cube.to_tt t.n c)) (Tt.const_false t.n) t.cs

let of_tt tt =
  let n = Tt.num_vars tt in
  let cube_of_minterm m =
    let lits = List.init n (fun i -> (i, m land (1 lsl i) <> 0)) in
    Cube.of_literals lits
  in
  let cover = List.map cube_of_minterm (Tt.minterms tt) in
  (* Greedy distance-1 merging to a fixpoint. *)
  let rec merge_pass cs =
    let merged = ref false in
    let rec try_merge acc = function
      | [] -> List.rev acc
      | c :: rest ->
        let rec find_partner before = function
          | [] -> try_merge (c :: acc) (List.rev before)
          | d :: after -> (
            match Cube.merge c d with
            | Some m ->
              merged := true;
              try_merge (m :: acc) (List.rev_append before after)
            | None -> find_partner (d :: before) after)
        in
        find_partner [] rest
    in
    let cs' = try_merge [] cs in
    if !merged then merge_pass cs' else cs'
  in
  create n (merge_pass cover)

let drop_contained cs =
  let rec loop acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if List.exists (fun d -> Cube.contains d c) rest
         || List.exists (fun d -> Cube.contains d c) acc
      then loop acc rest
      else loop (c :: acc) rest
  in
  loop [] cs

let minimize t =
  let rec merge_fix cs =
    let merged = ref false in
    let rec go acc = function
      | [] -> List.rev acc
      | c :: rest ->
        let rec find before = function
          | [] -> go (c :: acc) (List.rev before)
          | d :: after -> (
            match Cube.merge c d with
            | Some m ->
              merged := true;
              go (m :: acc) (List.rev_append before after)
            | None -> find (d :: before) after)
        in
        find [] rest
    in
    let cs' = drop_contained (go [] cs) in
    if !merged then merge_fix cs' else cs'
  in
  { t with cs = merge_fix (drop_contained t.cs) }

let complement_naive t =
  (* not (c1 + c2 + ...) = not c1 * not c2 * ... ; each [not ci] is a sum
     of single-literal cubes; distribute and clean up. *)
  let complement_cube c =
    List.map (fun (i, phase) -> Cube.of_literals [ (i, not phase) ]) (Cube.literals c)
  in
  let product acc factor =
    List.concat_map
      (fun a -> List.filter_map (fun b -> Cube.intersect a b) factor)
      acc
    |> drop_contained
  in
  match t.cs with
  | [] -> const_true t.n
  | first :: rest ->
    let init = complement_cube first in
    if init = [] then const_false t.n
    else
      let cs =
        List.fold_left
          (fun acc c ->
            match complement_cube c with
            | [] -> []
            | factor -> product acc factor)
          init rest
      in
      minimize (create t.n cs)

(* ------------------------------------------------------------------ *)
(* Tautology by unate recursion.                                       *)
(* ------------------------------------------------------------------ *)

let cofactor_cover cs i v =
  (* cover cofactored on variable i = v: drop cubes with the opposite
     literal, erase the literal from the rest *)
  List.filter_map
    (fun (c : Cube.t) ->
      let bit = 1 lsl i in
      let has_pos = c.Cube.pos land bit <> 0 and has_neg = c.Cube.neg land bit <> 0 in
      if (v && has_neg) || ((not v) && has_pos) then None
      else Some { Cube.pos = c.Cube.pos land lnot bit; neg = c.Cube.neg land lnot bit })
    cs

let rec tautology_cover n cs =
  if List.exists (fun c -> c.Cube.pos = 0 && c.Cube.neg = 0) cs then true
  else if cs = [] then false
  else begin
    (* variable counts: pick the most binate variable (appears in both
       phases); a cover unate in every variable is a tautology iff it
       contains the universal cube (already checked) *)
    let pos_counts = Array.make n 0 and neg_counts = Array.make n 0 in
    List.iter
      (fun (c : Cube.t) ->
        for i = 0 to n - 1 do
          if c.Cube.pos land (1 lsl i) <> 0 then pos_counts.(i) <- pos_counts.(i) + 1;
          if c.Cube.neg land (1 lsl i) <> 0 then neg_counts.(i) <- neg_counts.(i) + 1
        done)
      cs;
    let best = ref (-1) in
    let best_score = ref (-1) in
    for i = 0 to n - 1 do
      if pos_counts.(i) > 0 && neg_counts.(i) > 0 then begin
        let score = pos_counts.(i) + neg_counts.(i) in
        if score > !best_score then begin
          best_score := score;
          best := i
        end
      end
    done;
    if !best < 0 then false (* unate, no universal cube *)
    else
      let i = !best in
      tautology_cover n (cofactor_cover cs i true)
      && tautology_cover n (cofactor_cover cs i false)
  end

let tautology t = tautology_cover t.n t.cs

let covers_cube t (c : Cube.t) =
  if Cube.is_contradictory c then true
  else begin
    (* cofactor the cover by the cube, then tautology-check *)
    let rec cof cs lits =
      match lits with
      | [] -> cs
      | (i, v) :: rest -> cof (cofactor_cover cs i v) rest
    in
    tautology_cover t.n (cof t.cs (Cube.literals c))
  end

(* ------------------------------------------------------------------ *)
(* ESPRESSO-style minimization (single output, no external DC set).    *)
(* ------------------------------------------------------------------ *)

let espresso t =
  let expand_cube cover (c : Cube.t) =
    (* greedily remove literals while the enlarged cube stays inside the
       cover's ON-set *)
    List.fold_left
      (fun acc (i, v) ->
        let bit = 1 lsl i in
        let without =
          if v then { acc with Cube.pos = acc.Cube.pos land lnot bit }
          else { acc with Cube.neg = acc.Cube.neg land lnot bit }
        in
        if covers_cube cover without then without else acc)
      c (Cube.literals c)
  in
  let irredundant cs =
    (* drop any cube covered by the union of the others (greedy, keeps
       earlier cubes first) *)
    let rec go kept = function
      | [] -> List.rev kept
      | c :: rest ->
        let others = { t with cs = List.rev_append kept rest } in
        if covers_cube others c then go kept rest else go (c :: kept) rest
    in
    (* larger cubes first so the small ones get dropped *)
    go []
      (List.sort
         (fun a b -> Int.compare (Cube.num_literals a) (Cube.num_literals b))
         cs)
  in
  let rec loop cover iterations =
    let expanded =
      drop_contained (List.map (fun c -> expand_cube cover c) cover.cs)
    in
    let pruned = irredundant expanded in
    let next = { cover with cs = pruned } in
    if iterations <= 1 || List.length pruned = List.length cover.cs then next
    else loop next (iterations - 1)
  in
  if t.cs = [] then t else loop (minimize t) 3
