module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Tt = Logic.Tt

type metrics = {
  escalations : Obs.Metrics.counter;
  proved : Obs.Metrics.counter;
  pair_proofs : Obs.Metrics.counter;
  seconds : Obs.Metrics.histogram;
}

let metrics prefix =
  {
    escalations = Obs.Metrics.counter (prefix ^ ".sweep.escalations");
    proved = Obs.Metrics.counter (prefix ^ ".sweep.proved");
    pair_proofs = Obs.Metrics.counter (prefix ^ ".sweep.pair_proofs");
    seconds = Obs.Metrics.histogram (prefix ^ ".sweep_seconds");
  }

type node = Input of int | Const of bool | Gate of Cell.t * int array

(* Nodes are appended in topological order (a gate's fanins are older
   than the gate), so a merge only ever redirects references that are
   yet to be made and can never close a cycle.  Pattern words
   [0 .. random_words - 1] are random; the words after them hold the
   counterexamples of failed pair proofs, [cexs] of them so far, the
   unused bits standing for the all-zero input. *)
type t = {
  npis : int;
  deadline : Obs.Deadline.t;
  m : metrics;
  pair_budget : int;
  mutable words : int;
  mutable patterns : int64 array array;  (* per PI index *)
  mutable nodes : node array;
  mutable sim : int64 array array;
  mutable n : int;
  mutable merged : bool array;  (* retired into an older equal node *)
  strash : (int * int64 * int array, int) Hashtbl.t;
  consts : int array;  (* node of constant false / true, -1 until made *)
  mutable cexs : int;
  (* [find_equal]'s index of live nodes by words, over ids below
     [indexed]; emptied whenever a counterexample changes the words *)
  index : (int64 array, int) Hashtbl.t;
  mutable indexed : int;
  scratch_in : int64 array array;
  scratch_out : int64 array;
}

(* 512 random patterns, and by default at most 2,500 conflicts per pair
   proof: enough on cps and synth:4000 for every proof an equivalence
   sweep needs. *)
let random_words = 8
let default_pair_budget = 2500

let create ?(deadline = Obs.Deadline.never) ?(pair_budget = default_pair_budget)
    ~npis m =
  let rng = Sim.Rng.create 0x5EEDL in
  let patterns = Array.init npis (fun _ -> Array.make (random_words + 1) 0L) in
  for j = 0 to random_words - 1 do
    for k = 0 to npis - 1 do
      patterns.(k).(j) <- Sim.Rng.next rng
    done
  done;
  {
    npis;
    deadline;
    m;
    pair_budget;
    words = random_words + 1;
    patterns;
    nodes = Array.make 64 (Const false);
    sim = Array.make 64 [||];
    n = 0;
    merged = Array.make 64 false;
    strash = Hashtbl.create 256;
    consts = [| -1; -1 |];
    cexs = 0;
    index = Hashtbl.create 256;
    indexed = 0;
    scratch_in = Array.init Tt.max_vars (fun _ -> [| 0L |]);
    scratch_out = [| 0L |];
  }

let num_nodes g = g.n
let sim_words g id = g.sim.(id)

let push g node words =
  if g.n = Array.length g.nodes then begin
    let cap = 2 * g.n in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 g.n;
      b
    in
    g.nodes <- grow g.nodes (Const false);
    g.sim <- grow g.sim [||];
    g.merged <- grow g.merged false
  end;
  let id = g.n in
  g.nodes.(id) <- node;
  g.sim.(id) <- words;
  g.n <- id + 1;
  id

let input g k = push g (Input k) g.patterns.(k)

let const g b =
  let i = if b then 1 else 0 in
  if g.consts.(i) < 0 then
    g.consts.(i) <- push g (Const b) (Array.make g.words (if b then -1L else 0L));
  g.consts.(i)

let is_const g id b =
  match g.nodes.(id) with Const c -> c = b | Input _ | Gate _ -> false

let is_constant g id = is_const g id false || is_const g id true

(* The gate's value as a function of its distinct, non-constant fanins:
   [`Const b] when that is constant, [`Wire f] when it is fanin [f]
   itself, [`Gate] otherwise.  Folds the miter's XOR of a node with
   itself and its OR with 0. *)
let simplify g func fs =
  let k = Array.length fs in
  let consistent m =
    let ok = ref true in
    for i = 0 to k - 1 do
      let bit = m land (1 lsl i) <> 0 in
      (match g.nodes.(fs.(i)) with
      | Const b -> if b <> bit then ok := false
      | Input _ | Gate _ -> ());
      for j = 0 to i - 1 do
        if fs.(j) = fs.(i) && (m land (1 lsl j) <> 0) <> bit then ok := false
      done
    done;
    !ok
  in
  let value = ref None and constant = ref true in
  let follows = Array.make k true in
  for m = 0 to (1 lsl k) - 1 do
    if consistent m then begin
      let v = Tt.eval_int func m in
      (match !value with
      | None -> value := Some v
      | Some v0 -> if v <> v0 then constant := false);
      for i = 0 to k - 1 do
        if (m land (1 lsl i) <> 0) <> v then follows.(i) <- false
      done
    end
  done;
  match !value with
  | Some v when !constant -> `Const v
  | Some _ | None -> (
    let rec wire i =
      if i >= k then `Gate
      else if follows.(i) && not (is_constant g fs.(i)) then `Wire fs.(i)
      else wire (i + 1)
    in
    wire 0)

let eval_word g func fs j =
  Array.iteri (fun i f -> g.scratch_in.(i).(0) <- g.sim.(f).(j)) fs;
  Sim.Engine.eval_cell_words func g.scratch_in g.scratch_out 1;
  g.scratch_out.(0)

let key (c : Cell.t) fs = (Tt.num_vars c.func, Tt.word c.func, fs)

let gate g (c : Cell.t) fs =
  match simplify g c.func fs with
  | `Const b -> const g b
  | `Wire f -> f
  | `Gate -> (
    match Hashtbl.find_opt g.strash (key c fs) with
    | Some id -> id
    | None ->
      let fs = Array.copy fs in
      let out = Array.make g.words 0L in
      Sim.Engine.eval_cell_words c.func (Array.map (fun f -> g.sim.(f)) fs) out g.words;
      let id = push g (Gate (c, fs)) out in
      Hashtbl.add g.strash (key c fs) id;
      id)

(* Re-evaluate pattern word [j] of every node, in order. *)
let resim_word g j =
  for id = 0 to g.n - 1 do
    match g.nodes.(id) with
    | Input _ -> ()
    | Const b -> g.sim.(id).(j) <- (if b then -1L else 0L)
    | Gate (c, fs) -> g.sim.(id).(j) <- eval_word g c.Cell.func fs j
  done

(* One more counterexample word for every pattern and node. *)
let grow_words g =
  let w = g.words + 1 in
  let extend a =
    let b = Array.make w 0L in
    Array.blit a 0 b 0 g.words;
    b
  in
  g.patterns <- Array.map extend g.patterns;
  for id = 0 to g.n - 1 do
    g.sim.(id) <-
      (match g.nodes.(id) with Input k -> g.patterns.(k) | Const _ | Gate _ -> extend g.sim.(id))
  done;
  g.words <- w;
  resim_word g (w - 1)

(* Fold a counterexample (a value per PI index) into the patterns. *)
let add_pattern g values =
  if g.cexs = 64 * (g.words - random_words) then grow_words g;
  let j = random_words + (g.cexs / 64) and bit = g.cexs mod 64 in
  Array.iteri
    (fun k v ->
      if v then g.patterns.(k).(j) <- Int64.logor g.patterns.(k).(j) (Int64.shift_left 1L bit))
    values;
  g.cexs <- g.cexs + 1;
  resim_word g j;
  Hashtbl.reset g.index;
  g.indexed <- 0

let same_words g a b =
  let x = g.sim.(a) and y = g.sim.(b) in
  let rec go j = j >= g.words || (Int64.equal x.(j) y.(j) && go (j + 1)) in
  go 0

(* The graph as the CNF encoder reads it. *)
let view g =
  {
    Cnf.num_ids = g.n;
    kind =
      (fun id ->
        match g.nodes.(id) with
        | Input _ -> Circuit.Pi
        | Const b -> Circuit.Const b
        | Gate (c, fs) -> Circuit.Cell (c, fs));
  }

(* The model's value per PI index (PIs outside the cone read false). *)
let pattern_of g cone var_of model =
  let values = Array.make g.npis false in
  Array.iter
    (fun id ->
      match g.nodes.(id) with
      | Input k -> values.(k) <- model.(var_of id)
      | Const _ | Gate _ -> ())
    cone;
  values

(* Solve [extra] clauses (over the returned variable map) together with
   the Tseitin clauses of the fanin cone of [roots]. *)
let solve g ~conflict_limit roots extra =
  let v = view g in
  let cone =
    match roots with
    | [ r ] -> Cnf.cone v r
    | _ ->
      Array.of_list
        (List.sort_uniq compare (List.concat_map (fun r -> Array.to_list (Cnf.cone v r)) roots))
  in
  let clauses, var_of, num_vars = Cnf.clauses v cone in
  let lit r = Sat.lit_of (var_of r) true in
  match
    Sat.solve ~conflict_limit ~deadline:g.deadline ~num_vars (extra lit @ clauses)
  with
  | Sat.Unsat -> `Unsat
  | Sat.Timeout _ -> `Unknown
  | Sat.Sat model -> `Sat (pattern_of g cone var_of model)

(* A small-budget proof that [a] and [b] are equal; a counterexample
   refines the patterns. *)
let prove_equal g a b =
  if Obs.Deadline.expired g.deadline then `Unknown
  else begin
    Obs.Metrics.incr g.m.pair_proofs;
    match
      solve g ~conflict_limit:g.pair_budget [ a; b ] (fun lit ->
          [ [| lit a; lit b |]; [| lit a lxor 1; lit b lxor 1 |] ])
    with
    | `Unsat -> `Equal
    | `Unknown -> `Unknown
    | `Sat values ->
      add_pattern g values;
      `Differ
  end

let retire g fresh old =
  g.merged.(fresh) <- true;
  match g.nodes.(fresh) with
  | Gate (c, fs) -> Hashtbl.replace g.strash (key c fs) old
  | Input _ | Const _ -> ()

let try_merge g ~fresh ~old =
  if fresh = old || not (same_words g fresh old) then fresh
  else
    match prove_equal g old fresh with
    | `Equal ->
      retire g fresh old;
      old
    | `Differ | `Unknown -> fresh

let find_equal g id =
  for x = g.indexed to id - 1 do
    if not g.merged.(x) then
      if not (Hashtbl.mem g.index g.sim.(x)) then Hashtbl.add g.index g.sim.(x) x
  done;
  g.indexed <- max g.indexed id;
  match Hashtbl.find_opt g.index g.sim.(id) with
  | Some x when x < id -> Some x
  | Some _ | None -> None

let sweep_node g id =
  match find_equal g id with Some old -> try_merge g ~fresh:id ~old | None -> id

let first_one g id =
  let v = g.sim.(id) in
  let rec go j =
    if j >= g.words then None
    else if Int64.equal v.(j) 0L then go (j + 1)
    else begin
      let bit = ref 0 in
      while Int64.equal (Int64.logand (Int64.shift_right_logical v.(j) !bit) 1L) 0L do
        incr bit
      done;
      Some (Array.init g.npis (fun k ->
          Int64.logand (Int64.shift_right_logical g.patterns.(k).(j) !bit) 1L = 1L))
    end
  in
  go 0

let justify ?(conflict_limit = 200_000) g id =
  if is_const g id false then `Unsat
  else solve g ~conflict_limit [ id ] (fun lit -> [ [| lit id |] ])
