module Circuit = Netlist.Circuit
module Tt = Logic.Tt
module Cell = Gatelib.Cell

type t = {
  circ : Circuit.t;
  w : int;
  mutable values : int64 array array; (* per node id *)
  (* fanin rows of the cell being evaluated, so an evaluation builds no
     argument array *)
  mutable ins : int64 array array;
  (* Scratch of the fanout-propagation kernel, kept across calls and
     sized with [values]: [rank] is each node's topological rank (-1:
     never re-evaluated), built from the memoized order [rank_key] and
     rebuilt when that order changes identity; [heap] is a binary
     min-heap of [hn] node ids keyed by rank; [mark] is every node's
     state in the current call (all [untouched] between calls);
     [saved] pools one row per node for the words it had before the
     call; [touched] stacks the [tn] nodes whose rows were saved;
     [busy] refuses a nested call. *)
  mutable rank : int array;
  mutable rank_key : Circuit.node_id array;
  mutable heap : int array;
  mutable hn : int;
  mutable mark : Bytes.t;
  mutable saved : int64 array array;
  mutable touched : int array;
  mutable tn : int;
  mutable busy : bool;
}

let create circ ~words =
  if words <= 0 then invalid_arg "Engine.create";
  {
    circ;
    w = words;
    values = Array.init (Circuit.num_nodes circ) (fun _ -> Array.make words 0L);
    ins = [||];
    rank = [||];
    rank_key = [||];
    heap = [||];
    hn = 0;
    mark = Bytes.empty;
    saved = [||];
    touched = [||];
    tn = 0;
    busy = false;
  }

let circuit t = t.circ
let words t = t.w
let num_patterns t = 64 * t.w

let ensure_capacity t =
  let n = Circuit.num_nodes t.circ in
  if n > Array.length t.values then begin
    let bigger =
      Array.init (max n (2 * Array.length t.values)) (fun i ->
          if i < Array.length t.values then t.values.(i) else Array.make t.w 0L)
    in
    t.values <- bigger
  end

let value t id = t.values.(id)

(* Evaluate one cell output word-vector from its fanin word-vectors,
   over the first [w] words.  One- and two-input cells (the vast
   majority of instances) get direct bitwise implementations; larger
   cells fall back to an OR over the function's ON-minterms. *)
let eval_cell_words func (ins : int64 array array) (out : int64 array) w =
  let k = Tt.num_vars func in
  let generic () =
    let ons = Array.of_list (Tt.minterms func) in
    for j = 0 to w - 1 do
      let acc = ref 0L in
      for mi = 0 to Array.length ons - 1 do
        let m = ons.(mi) in
        let conj = ref (-1L) in
        for i = 0 to k - 1 do
          let v = ins.(i).(j) in
          conj :=
            Int64.logand !conj
              (if m land (1 lsl i) <> 0 then v else Int64.lognot v)
        done;
        acc := Int64.logor !acc !conj
      done;
      out.(j) <- !acc
    done
  in
  match k with
  | 0 -> Array.fill out 0 w (if Tt.is_const_true func then -1L else 0L)
  | 1 -> (
    let a = ins.(0) in
    match Int64.to_int (Tt.word func) land 3 with
    | 0b01 -> for j = 0 to w - 1 do out.(j) <- Int64.lognot a.(j) done
    | 0b10 -> Array.blit a 0 out 0 w
    | 0b00 -> Array.fill out 0 w 0L
    | _ -> Array.fill out 0 w (-1L))
  | 2 -> (
    let a = ins.(0) and b = ins.(1) in
    let ( &&& ) = Int64.logand and ( ||| ) = Int64.logor in
    let ( ^^^ ) = Int64.logxor and nt = Int64.lognot in
    match Int64.to_int (Tt.word func) land 0xF with
    | 0x8 -> for j = 0 to w - 1 do out.(j) <- a.(j) &&& b.(j) done
    | 0xE -> for j = 0 to w - 1 do out.(j) <- a.(j) ||| b.(j) done
    | 0x6 -> for j = 0 to w - 1 do out.(j) <- a.(j) ^^^ b.(j) done
    | 0x7 -> for j = 0 to w - 1 do out.(j) <- nt (a.(j) &&& b.(j)) done
    | 0x1 -> for j = 0 to w - 1 do out.(j) <- nt (a.(j) ||| b.(j)) done
    | 0x9 -> for j = 0 to w - 1 do out.(j) <- nt (a.(j) ^^^ b.(j)) done
    | 0x2 -> for j = 0 to w - 1 do out.(j) <- a.(j) &&& nt b.(j) done
    | 0x4 -> for j = 0 to w - 1 do out.(j) <- nt a.(j) &&& b.(j) done
    | 0xB -> for j = 0 to w - 1 do out.(j) <- a.(j) ||| nt b.(j) done
    | 0xD -> for j = 0 to w - 1 do out.(j) <- nt a.(j) ||| b.(j) done
    | _ -> generic ())
  | _ -> generic ()

(* Evaluate a cell with fanins [fs] into [out], pin [pin] reading [v]
   instead of its driver's words (no pin overridden when [pin] is -1). *)
let eval_cell t c fs ~pin v out =
  let k = Array.length fs in
  if Array.length t.ins < k then t.ins <- Array.make k [||];
  for i = 0 to k - 1 do
    t.ins.(i) <- (if i = pin then v else t.values.(fs.(i)))
  done;
  eval_cell_words c.Cell.func t.ins out t.w

let eval_node t id =
  match Circuit.kind t.circ id with
  | Circuit.Pi -> ()
  | Circuit.Const b -> Array.fill t.values.(id) 0 t.w (if b then -1L else 0L)
  | Circuit.Po d -> Array.blit t.values.(d) 0 t.values.(id) 0 t.w
  | Circuit.Cell (c, fs) -> eval_cell t c fs ~pin:(-1) [||] t.values.(id)

(* telemetry: how much node re-evaluation each update costs, so the
   TFO-resim share of the optimizer's budget is visible *)
let m_resim_all_calls = Obs.Metrics.counter "sim.resim_all.calls"
let m_resim_nodes = Obs.Metrics.counter "sim.resim.nodes"
let m_obs_stem_calls = Obs.Metrics.counter "sim.observability.stem.calls"
let m_obs_branch_calls = Obs.Metrics.counter "sim.observability.branch.calls"

let resim_all t =
  ensure_capacity t;
  let order = Circuit.topo_order t.circ in
  let pos = Circuit.pos t.circ in
  Array.iter (eval_node t) order;
  List.iter (eval_node t) pos;
  Obs.Metrics.incr m_resim_all_calls;
  Obs.Metrics.add m_resim_nodes (Array.length order + List.length pos)

(* ------------------------------------------------------------------ *)
(* Fanout propagation: one event-driven kernel.                        *)
(* ------------------------------------------------------------------ *)

(* Every incremental update changes some rows and re-simulates what
   lies downstream of them.  A node is re-evaluated only when one of
   its direct fanins changed words (unchanged fanins reproduce its old
   words exactly), and the frontier is drained in topological rank
   order, so every fanin is final before its sink is evaluated.  Each
   node is queued and evaluated at most once per call, so the values
   left behind equal a full [resim_all].  Two modes share it:
   [resim_after_edit] (commit) keeps the new words, and
   [with_perturbation] (trial), which the observability masks use,
   restores every touched row afterwards. *)

(* node states in [mark]: queued or evaluated nodes are [visited] until
   their words are found changed *)
let untouched = '\000'
let visited = '\001'
let changed = '\002'

let push t id =
  if t.rank.(id) >= 0 && Bytes.unsafe_get t.mark id = untouched then begin
    Bytes.unsafe_set t.mark id visited;
    let heap = t.heap and rank = t.rank in
    let i = ref t.hn in
    t.hn <- t.hn + 1;
    while !i > 0 && rank.(heap.((!i - 1) / 2)) > rank.(id) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- id
  end

let pop t =
  let heap = t.heap and rank = t.rank in
  let top = heap.(0) in
  t.hn <- t.hn - 1;
  let n = t.hn and last = heap.(t.hn) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && rank.(heap.(l + 1)) < rank.(heap.(l)) then l + 1 else l in
    if c < n && rank.(heap.(c)) < rank.(last) then begin
      heap.(!i) <- heap.(c);
      i := c
    end
    else sifting := false
  done;
  heap.(!i) <- last;
  top

let rec push_sinks t = function
  | [] -> ()
  | p :: rest ->
    push t p.Circuit.sink;
    push_sinks t rest

(* Save [id]'s words into its pooled row and stack it as touched. *)
let save t id =
  let row =
    let r = t.saved.(id) in
    if Array.length r < t.w then begin
      let r = Array.make t.w 0L in
      t.saved.(id) <- r;
      r
    end
    else r
  in
  Array.blit t.values.(id) 0 row 0 t.w;
  Bytes.unsafe_set t.mark id visited;
  t.touched.(t.tn) <- id;
  t.tn <- t.tn + 1

(* Whether [id]'s words differ from its saved row; if so, mark it
   changed and queue its sinks. *)
let note_change t id =
  let v = t.values.(id) and old = t.saved.(id) in
  let j = ref 0 in
  while !j < t.w && Int64.equal v.(!j) old.(!j) do
    incr j
  done;
  !j < t.w
  && begin
    Bytes.unsafe_set t.mark id changed;
    push_sinks t (Circuit.fanouts t.circ id);
    true
  end

(* Drain the heap; [on_change] fires once per node whose words changed,
   in rank order.  Returns the number of nodes evaluated. *)
let propagate t on_change =
  let evaluated = ref 0 in
  while t.hn > 0 do
    let id = pop t in
    save t id;
    eval_node t id;
    incr evaluated;
    if note_change t id then on_change id
  done;
  !evaluated

(* Start a call: size the scratch with [values] and rank the nodes by
   the circuit's current topological order (the POs after it, in [pos]
   order).  Dead nodes keep rank -1 and are never queued. *)
let enter t =
  if t.busy then invalid_arg "Engine: nested fanout propagation";
  ensure_capacity t;
  let cap = Array.length t.values in
  if Array.length t.saved < cap then begin
    let saved = Array.make cap [||] in
    Array.blit t.saved 0 saved 0 (Array.length t.saved);
    t.saved <- saved;
    t.heap <- Array.make cap 0;
    t.touched <- Array.make cap 0;
    t.mark <- Bytes.make cap untouched;
    t.rank <- Array.make cap (-1);
    t.rank_key <- [||]
  end;
  let order = Circuit.topo_order t.circ in
  if not (t.rank_key == order) then begin
    Array.fill t.rank 0 cap (-1);
    Array.iteri (fun r id -> t.rank.(id) <- r) order;
    List.iteri
      (fun i po -> t.rank.(po) <- Array.length order + i)
      (Circuit.pos t.circ);
    t.rank_key <- order
  end;
  t.busy <- true

(* End a call: unqueue what an exception left queued, put the saved
   rows back when [restore], and clear every mark. *)
let leave t ~restore =
  for i = 0 to t.hn - 1 do
    Bytes.unsafe_set t.mark t.heap.(i) untouched
  done;
  t.hn <- 0;
  for i = 0 to t.tn - 1 do
    let id = t.touched.(i) in
    if restore then Array.blit t.saved.(id) 0 t.values.(id) 0 t.w;
    Bytes.unsafe_set t.mark id untouched
  done;
  t.tn <- 0;
  t.busy <- false

(* One kernel call: [f] runs between [enter] and [leave], however it
   ends. *)
let run t ~restore f =
  enter t;
  match f () with
  | r ->
    leave t ~restore;
    r
  | exception e ->
    leave t ~restore;
    raise e

let m_resim_edit_calls = Obs.Metrics.counter "sim.resim_edit.calls"
let m_sig_resim_nodes = Obs.Metrics.counter "sig/resim_nodes"

(* Commit mode: seeded with the edit root and its direct fanout sinks
   (the nodes whose fanins a substitution rewires). *)
let resim_after_edit ?(on_change = ignore) t s =
  let evaluated =
    run t ~restore:false (fun () ->
        push t s;
        push_sinks t (Circuit.fanouts t.circ s);
        propagate t on_change)
  in
  Obs.Metrics.incr m_resim_edit_calls;
  Obs.Metrics.add m_resim_nodes evaluated;
  Obs.Metrics.add m_sig_resim_nodes evaluated;
  evaluated

(* Trial mode: [first] is saved before [perturb] writes it, so every
   row the call writes is a touched row, and restoring the touched rows
   restores the engine exactly. *)
let with_perturbation t ~first ~perturb ~measure =
  run t ~restore:true (fun () ->
      save t first;
      perturb t;
      ignore (note_change t first : bool);
      ignore (propagate t ignore : int);
      measure t)

(* Trial measure: the patterns on which some primary output changed.  A
   PO is touched exactly when its driver changed (or it is [first]),
   so the touched stack holds every PO that can differ. *)
let po_diff t =
  let diff = Array.make t.w 0L in
  for i = 0 to t.tn - 1 do
    match Circuit.kind t.circ t.touched.(i) with
    | Circuit.Po d when Bytes.get t.mark d = changed ->
      let v = t.values.(d) and old = t.saved.(d) in
      for j = 0 to t.w - 1 do
        diff.(j) <- Int64.logor diff.(j) (Int64.logxor v.(j) old.(j))
      done
    | Circuit.Po _ | Circuit.Pi | Circuit.Const _ | Circuit.Cell _ -> ()
  done;
  diff

let stem_observability t s =
  Obs.Metrics.incr m_obs_stem_calls;
  let flip t =
    let v = t.values.(s) in
    for j = 0 to t.w - 1 do
      v.(j) <- Int64.lognot v.(j)
    done
  in
  with_perturbation t ~first:s ~perturb:flip ~measure:po_diff

let recompute_with_pin_override t ~sink ~pin v =
  match Circuit.kind t.circ sink with
  | Circuit.Cell (c, fs) -> eval_cell t c fs ~pin v t.values.(sink)
  | Circuit.Po _ ->
    if pin <> 0 then invalid_arg "Engine.recompute_with_pin_override";
    Array.blit v 0 t.values.(sink) 0 t.w
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Engine.recompute_with_pin_override: no pins"

let branch_observability t ~sink ~pin =
  ensure_capacity t;
  Obs.Metrics.incr m_obs_branch_calls;
  match Circuit.kind t.circ sink with
  | Circuit.Po _ -> Array.make t.w (-1L) (* an output branch is always observed *)
  | Circuit.Cell (_, fs) ->
    let flipped = Array.map Int64.lognot t.values.(fs.(pin)) in
    with_perturbation t ~first:sink
      ~perturb:(fun t -> recompute_with_pin_override t ~sink ~pin flipped)
      ~measure:po_diff
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Engine.branch_observability: sink has no pins"

let randomize t ?input_probs rng =
  ensure_capacity t;
  let prob =
    match input_probs with Some f -> f | None -> fun _ -> 0.5
  in
  List.iter
    (fun pi ->
      let p = prob pi in
      let v = t.values.(pi) in
      for j = 0 to t.w - 1 do
        v.(j) <- Rng.bits_with_prob rng p
      done)
    (Circuit.pis t.circ);
  resim_all t

(* Word-sharded randomization.  PI words are drawn in fixed-size shards
   of [shard_words] words, each shard from its own derived stream
   [Rng.stream seed "sim/words-<k>"], so the bits assigned to word [j]
   depend only on [(seed, j)] and the PI order.  The optimizer's
   signatures, and therefore its reports and netlists, are pinned to
   these streams. *)
let shard_words = 2

let randomize_sharded ?input_probs ~seed t =
  Obs.Trace.with_span "sim/randomize" @@ fun () ->
  ensure_capacity t;
  let prob = match input_probs with Some f -> f | None -> fun _ -> 0.5 in
  let pis = Circuit.pis t.circ in
  let nshards = (t.w + shard_words - 1) / shard_words in
  for k = 0 to nshards - 1 do
    let rng = Rng.stream seed (Printf.sprintf "sim/words-%d" k) in
    let lo = k * shard_words in
    let hi = min t.w (lo + shard_words) in
    (* word-major within the shard: the draw order is part of the
       stream contract, keep it fixed *)
    for j = lo to hi - 1 do
      List.iter
        (fun pi -> t.values.(pi).(j) <- Rng.bits_with_prob rng (prob pi))
        pis
    done
  done;
  resim_all t

let exhaustive t =
  ensure_capacity t;
  let pis = Circuit.pis t.circ in
  let n = List.length pis in
  if n > 6 && 64 * t.w < 1 lsl n then
    invalid_arg "Engine.exhaustive: not enough patterns";
  List.iteri
    (fun i pi ->
      let v = t.values.(pi) in
      if i < 6 then begin
        let m = Tt.word (Tt.var 6 i) in
        Array.fill v 0 t.w m
      end
      else
        for j = 0 to t.w - 1 do
          v.(j) <- (if (j lsr (i - 6)) land 1 = 1 then -1L else 0L)
        done)
    pis;
  resim_all t

let count_ones t id = Logic.Bits.popcount_words t.values.(id)

let prob_one t id = float_of_int (count_ones t id) /. float_of_int (num_patterns t)

let set_value t id v =
  ensure_capacity t;
  if Array.length v <> t.w then invalid_arg "Engine.set_value";
  Array.blit v 0 t.values.(id) 0 t.w

let apply_gate_words func ins =
  match ins with
  | [||] -> invalid_arg "Engine.apply_gate_words: no inputs"
  | _ ->
    let w = Array.length ins.(0) in
    let out = Array.make w 0L in
    eval_cell_words func ins out w;
    out

let po_signatures t =
  List.map
    (fun po -> (Circuit.name t.circ po, Array.copy t.values.(po)))
    (Circuit.pos t.circ)

let equivalent_on_patterns ta tb =
  if ta.w <> tb.w then invalid_arg "Engine.equivalent_on_patterns";
  let sb = po_signatures tb in
  List.for_all
    (fun (name, va) ->
      match List.assoc_opt name sb with
      | None -> false
      | Some vb ->
        let rec go j = j >= ta.w || (Int64.equal va.(j) vb.(j) && go (j + 1)) in
        go 0)
    (po_signatures ta)

let eval_single circ pi_values =
  let memo = Hashtbl.create 64 in
  let pis = Circuit.pis circ in
  if List.length pis <> List.length pi_values then
    invalid_arg "Engine.eval_single: PI count mismatch";
  List.iter2 (fun pi v -> Hashtbl.add memo pi v) pis pi_values;
  let rec ev id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let v =
        match Circuit.kind circ id with
        | Circuit.Pi -> invalid_arg "Engine.eval_single: unset PI"
        | Circuit.Const b -> b
        | Circuit.Po d -> ev d
        | Circuit.Cell (c, fs) -> Cell.eval c (Array.map ev fs)
      in
      Hashtbl.add memo id v;
      v
  in
  List.map (fun po -> (Circuit.name circ po, ev po)) (Circuit.pos circ)
