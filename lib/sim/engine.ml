module Circuit = Netlist.Circuit
module Tt = Logic.Tt
module Cell = Gatelib.Cell

type t = {
  circ : Circuit.t;
  w : int;
  mutable values : int64 array array; (* per node id *)
  (* persistent scratch for perturb-and-restore observability: saved
     rows are pooled per node (no per-call copies), [obs_changed] is
     cleared on exit by walking the touched list *)
  mutable obs_saved : int64 array array;
  mutable obs_changed : Bytes.t;
  (* rank-ordered worklist scratch: topo rank per node (rebuilt when
     the memoized order changes identity), a binary min-heap of node
     ids keyed by rank, and its membership flags *)
  mutable obs_rank : int array;
  mutable obs_rank_key : Circuit.node_id array;
  mutable obs_heap : int array;
  mutable obs_inq : Bytes.t;
}

let create circ ~words =
  if words <= 0 then invalid_arg "Engine.create";
  {
    circ;
    w = words;
    values = Array.init (Circuit.num_nodes circ) (fun _ -> Array.make words 0L);
    obs_saved = [||];
    obs_changed = Bytes.empty;
    obs_rank = [||];
    obs_rank_key = [||];
    obs_heap = [||];
    obs_inq = Bytes.empty;
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

let eval_node t id =
  match Circuit.kind t.circ id with
  | Circuit.Pi -> ()
  | Circuit.Const b -> Array.fill t.values.(id) 0 t.w (if b then -1L else 0L)
  | Circuit.Po d -> Array.blit t.values.(d) 0 t.values.(id) 0 t.w
  | Circuit.Cell (c, fs) ->
    let ins = Array.map (fun f -> t.values.(f)) fs in
    eval_cell_words c.Cell.func ins t.values.(id) t.w

(* telemetry: how much node re-evaluation each update costs, so the
   TFO-resim share of the optimizer's budget is visible *)
let m_resim_all_calls = Obs.Metrics.counter "sim.resim_all.calls"
let m_resim_tfo_calls = Obs.Metrics.counter "sim.resim_tfo.calls"
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

let m_resim_edit_calls = Obs.Metrics.counter "sim.resim_edit.calls"
let m_sig_resim_nodes = Obs.Metrics.counter "sig/resim_nodes"

(* Incremental re-simulation after a structural edit at [s]: a levelized
   update queue seeded with [s] and its direct fanout sinks (the nodes
   whose fanins a substitution rewires), draining in topological order
   and enqueueing a node's fanouts only when its words actually changed.
   Equivalent to [resim_tfo] word for word — the pruning only skips
   nodes whose inputs are provably unchanged — but touches the changed
   cone instead of the whole transitive fanout, which is what makes
   per-accept signature maintenance cheap.  [on_change] fires once per
   node whose words changed, in topological order. *)
let resim_after_edit ?on_change t s =
  ensure_capacity t;
  let order = Circuit.topo_order t.circ in
  let n_order = Array.length order in
  let pos_list = Circuit.pos t.circ in
  let level = Array.make (Array.length t.values) (-1) in
  Array.iteri (fun i id -> level.(id) <- i) order;
  List.iteri (fun i po -> level.(po) <- n_order + i) pos_list;
  (* binary min-heap of node ids keyed by topological position *)
  let heap = ref (Array.make 64 (-1)) in
  let hn = ref 0 in
  let queued = Array.make (Array.length t.values) false in
  let swap i j =
    let h = !heap in
    let tmp = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- tmp
  in
  let push id =
    if level.(id) >= 0 && not queued.(id) then begin
      queued.(id) <- true;
      if !hn >= Array.length !heap then begin
        let bigger = Array.make (2 * Array.length !heap) (-1) in
        Array.blit !heap 0 bigger 0 !hn;
        heap := bigger
      end;
      !heap.(!hn) <- id;
      incr hn;
      let i = ref (!hn - 1) in
      while !i > 0 && level.(!heap.((!i - 1) / 2)) > level.(!heap.(!i)) do
        swap ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done
    end
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr hn;
    h.(0) <- h.(!hn);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !hn && level.(h.(l)) < level.(h.(!m)) then m := l;
      if r < !hn && level.(h.(r)) < level.(h.(!m)) then m := r;
      if !m <> !i then begin
        swap !i !m;
        i := !m
      end
      else continue_ := false
    done;
    top
  in
  push s;
  List.iter (fun p -> push p.Circuit.sink) (Circuit.fanouts t.circ s);
  let scratch = Array.make t.w 0L in
  let evaluated = ref 0 in
  while !hn > 0 do
    let id = pop () in
    Array.blit t.values.(id) 0 scratch 0 t.w;
    eval_node t id;
    incr evaluated;
    let changed =
      let v = t.values.(id) in
      let rec differs j =
        j < t.w && (not (Int64.equal v.(j) scratch.(j)) || differs (j + 1))
      in
      differs 0
    in
    if changed then begin
      (match on_change with None -> () | Some f -> f id);
      List.iter (fun p -> push p.Circuit.sink) (Circuit.fanouts t.circ id)
    end
  done;
  Obs.Metrics.incr m_resim_edit_calls;
  Obs.Metrics.add m_resim_nodes !evaluated;
  Obs.Metrics.add m_sig_resim_nodes !evaluated;
  !evaluated

let resim_tfo t s =
  ensure_capacity t;
  let tfo = Circuit.tfo t.circ s in
  eval_node t s;
  let evaluated = ref 1 in
  let order = Circuit.topo_order t.circ in
  Array.iter
    (fun id ->
      if tfo.(id) then begin
        eval_node t id;
        incr evaluated
      end)
    order;
  List.iter
    (fun po ->
      if tfo.(po) then begin
        eval_node t po;
        incr evaluated
      end)
    (Circuit.pos t.circ);
  Obs.Metrics.incr m_resim_tfo_calls;
  Obs.Metrics.add m_resim_nodes !evaluated

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

let equal_signature t a b =
  let va = t.values.(a) and vb = t.values.(b) in
  let rec go j = j >= t.w || (Int64.equal va.(j) vb.(j) && go (j + 1)) in
  go 0

let complement_signature t a b =
  let va = t.values.(a) and vb = t.values.(b) in
  let rec go j =
    j >= t.w || (Int64.equal va.(j) (Int64.lognot vb.(j)) && go (j + 1))
  in
  go 0

(* Flip-and-resimulate machinery for observability masks.  Saves the
   affected slice, perturbs, replays, diffs the POs, restores. *)
(* Event-driven perturb-diff-restore: after perturbing [first], a node
   is re-evaluated only when one of its direct fanins actually changed
   — unchanged fanins reproduce the old words exactly, so the wave
   dies where the perturbation is logically masked.  The frontier is a
   binary min-heap on topo rank: a node is pushed when a fanin
   changes, and popping in rank order guarantees every fanin is final
   before the node re-evaluates, exactly like the topo sweep it
   replaces — without visiting the untouched rest of the circuit.
   Saved rows come from a per-engine pool and all flags are cleared on
   exit by walking the touched list, so a call allocates nothing
   proportional to the circuit. *)
let observability_core t ~first ~perturb =
  let circ = t.circ in
  let n = Circuit.num_nodes circ in
  if Array.length t.obs_saved < n then begin
    let bigger = Array.make (max n (2 * Array.length t.obs_saved)) [||] in
    Array.blit t.obs_saved 0 bigger 0 (Array.length t.obs_saved);
    t.obs_saved <- bigger
  end;
  if Bytes.length t.obs_changed < n then begin
    let bigger = Bytes.make (max n (2 * Bytes.length t.obs_changed)) '\000' in
    Bytes.blit t.obs_changed 0 bigger 0 (Bytes.length t.obs_changed);
    t.obs_changed <- bigger
  end;
  if Array.length t.obs_heap < n then t.obs_heap <- Array.make n 0;
  if Bytes.length t.obs_inq < n then begin
    let bigger = Bytes.make n '\000' in
    Bytes.blit t.obs_inq 0 bigger 0 (Bytes.length t.obs_inq);
    t.obs_inq <- bigger
  end;
  let order = Circuit.topo_order t.circ in
  if not (t.obs_rank_key == order) then begin
    let rank = Array.make n max_int in
    Array.iteri (fun r id -> rank.(id) <- r) order;
    t.obs_rank <- rank;
    t.obs_rank_key <- order
  end;
  let rank = t.obs_rank in
  let heap = t.obs_heap in
  let inq = t.obs_inq in
  let hn = ref 0 in
  let push id =
    if Bytes.unsafe_get inq id = '\000' then begin
      Bytes.unsafe_set inq id '\001';
      let i = ref !hn in
      incr hn;
      Array.unsafe_set heap !i id;
      let continue_ = ref true in
      while !continue_ && !i > 0 do
        let p = (!i - 1) / 2 in
        if rank.(Array.unsafe_get heap p) > rank.(Array.unsafe_get heap !i)
        then begin
          let tmp = Array.unsafe_get heap p in
          Array.unsafe_set heap p (Array.unsafe_get heap !i);
          Array.unsafe_set heap !i tmp;
          i := p
        end
        else continue_ := false
      done
    end
  in
  let pop () =
    let top = Array.unsafe_get heap 0 in
    decr hn;
    Array.unsafe_set heap 0 (Array.unsafe_get heap !hn);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !hn
         && rank.(Array.unsafe_get heap l) < rank.(Array.unsafe_get heap !m)
      then m := l;
      if r < !hn
         && rank.(Array.unsafe_get heap r) < rank.(Array.unsafe_get heap !m)
      then m := r;
      if !m = !i then continue_ := false
      else begin
        let tmp = Array.unsafe_get heap !m in
        Array.unsafe_set heap !m (Array.unsafe_get heap !i);
        Array.unsafe_set heap !i tmp;
        i := !m
      end
    done;
    Bytes.unsafe_set inq top '\000';
    top
  in
  let changed = t.obs_changed in
  let save id =
    let row =
      let r = t.obs_saved.(id) in
      if Array.length r < t.w then begin
        let r = Array.make t.w 0L in
        t.obs_saved.(id) <- r;
        r
      end
      else r
    in
    Array.blit t.values.(id) 0 row 0 t.w
  in
  let differs id =
    let old = t.obs_saved.(id) and v = t.values.(id) in
    let rec go j =
      j < t.w && ((not (Int64.equal v.(j) old.(j))) || go (j + 1))
    in
    go 0
  in
  let touched = ref [] in
  let push_fanouts id =
    List.iter
      (fun p ->
        if Circuit.is_live circ p.Circuit.sink then push p.Circuit.sink)
      (Circuit.fanouts circ id)
  in
  save first;
  touched := first :: !touched;
  perturb ();
  if differs first then begin
    Bytes.unsafe_set changed first '\001';
    push_fanouts first
  end;
  while !hn > 0 do
    let id = pop () in
    save id;
    touched := id :: !touched;
    eval_node t id;
    if differs id then begin
      Bytes.unsafe_set changed id '\001';
      push_fanouts id
    end
  done;
  let diff = Array.make t.w 0L in
  List.iter
    (fun po ->
      let d = Circuit.po_driver circ po in
      if Bytes.unsafe_get changed d = '\001' then begin
        let old = t.obs_saved.(d) and v = t.values.(d) in
        for j = 0 to t.w - 1 do
          diff.(j) <- Int64.logor diff.(j) (Int64.logxor v.(j) old.(j))
        done
      end)
    (Circuit.pos circ);
  List.iter
    (fun id ->
      Array.blit t.obs_saved.(id) 0 t.values.(id) 0 t.w;
      Bytes.unsafe_set changed id '\000')
    !touched;
  diff

let stem_observability t s =
  ensure_capacity t;
  Obs.Metrics.incr m_obs_stem_calls;
  let flip () =
    let v = t.values.(s) in
    for j = 0 to t.w - 1 do
      v.(j) <- Int64.lognot v.(j)
    done
  in
  observability_core t ~first:s ~perturb:flip

let branch_observability t ~sink ~pin =
  ensure_capacity t;
  Obs.Metrics.incr m_obs_branch_calls;
  match Circuit.kind t.circ sink with
  | Circuit.Po _ -> Array.make t.w (-1L) (* an output branch is always observed *)
  | Circuit.Cell (c, fs) ->
    let recompute_with_flipped_pin () =
      let ins =
        Array.mapi
          (fun i f ->
            if i = pin then Array.map Int64.lognot t.values.(f)
            else t.values.(f))
          fs
      in
      eval_cell_words c.Cell.func ins t.values.(sink) t.w
    in
    observability_core t ~first:sink ~perturb:recompute_with_flipped_pin
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Engine.branch_observability: sink has no pins"

let with_perturbation t ~first ~perturb ~measure =
  ensure_capacity t;
  let tfo = Circuit.tfo t.circ first in
  let order = Circuit.topo_order t.circ in
  let affected =
    first
    :: (Array.to_list order |> List.filter (fun id -> tfo.(id) && id <> first))
  in
  let affected =
    affected
    @ List.filter (fun po -> tfo.(po)) (Circuit.pos t.circ)
  in
  let saved = List.map (fun id -> (id, Array.copy t.values.(id))) affected in
  perturb t;
  List.iter (fun id -> if id <> first then eval_node t id) affected;
  let result = measure t in
  List.iter (fun (id, v) -> Array.blit v 0 t.values.(id) 0 t.w) saved;
  result

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

let recompute_with_pin_override t ~sink ~pin v =
  match Circuit.kind t.circ sink with
  | Circuit.Cell (c, fs) ->
    let ins =
      Array.mapi (fun i f -> if i = pin then v else t.values.(f)) fs
    in
    eval_cell_words c.Cell.func ins t.values.(sink) t.w
  | Circuit.Po _ ->
    if pin <> 0 then invalid_arg "Engine.recompute_with_pin_override";
    Array.blit v 0 t.values.(sink) 0 t.w
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Engine.recompute_with_pin_override: no pins"

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
