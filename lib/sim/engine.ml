module Circuit = Netlist.Circuit
module Tt = Logic.Tt
module Cell = Gatelib.Cell

module Bits = Logic.Bits
module A = Bigarray.Array1

(* ------------------------------------------------------------------ *)
(* Word programs                                                       *)
(* ------------------------------------------------------------------ *)

(* A cell function compiled for bit-parallel evaluation, by its
   support: a constant, one input (maybe negated), a two-input
   operator (4-bit table code, bit [x + 2y] the output on input values
   [(x, y)]), or a sum of products from an irredundant cover of the
   function, cube [c] being the literals [starts.(c) .. starts.(c + 1)
   - 1]: input [lits.(l)], xored with [flips.(l)] (0 or -1) for a
   negative one. *)
type prog =
  | Fill of int64
  | Copy of int
  | Not of int
  | Op2 of int * int * int
  | Sop of { starts : int array; lits : int array; flips : int array }

(* Minato-Morreale: an irredundant cover of some function between [l]
   and [u] ([l] implies [u]), as (positive, negative) literal masks per
   cube, with the covered function. *)
let rec isop n l u =
  if Tt.is_const_false l then ([], Tt.const_false n)
  else if Tt.is_const_true u then ([ (0, 0) ], Tt.const_true n)
  else begin
    let i = ref (n - 1) in
    while not (Tt.depends_on l !i || Tt.depends_on u !i) do
      decr i
    done;
    let i = !i in
    let l0 = Tt.cofactor i false l and l1 = Tt.cofactor i true l in
    let u0 = Tt.cofactor i false u and u1 = Tt.cofactor i true u in
    let c0, f0 = isop n (Tt.and_ l0 (Tt.not_ u1)) u0 in
    let c1, f1 = isop n (Tt.and_ l1 (Tt.not_ u0)) u1 in
    let rest = Tt.or_ (Tt.and_ l0 (Tt.not_ f0)) (Tt.and_ l1 (Tt.not_ f1)) in
    let cs, fs = isop n rest (Tt.and_ u0 u1) in
    let x = Tt.var n i in
    ( List.map (fun (p, q) -> (p, q lor (1 lsl i))) c0
      @ List.map (fun (p, q) -> (p lor (1 lsl i), q)) c1
      @ cs,
      Tt.or_ fs (Tt.or_ (Tt.and_ (Tt.not_ x) f0) (Tt.and_ x f1)) )
  end

let popcount_small m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

let compile func =
  let n = Tt.num_vars func in
  match Tt.support func with
  | [] -> Fill (if Tt.is_const_true func then -1L else 0L)
  | [ i ] -> if Tt.eval_int (Tt.project func [ i ]) 1 then Copy i else Not i
  | [ i; j ] -> Op2 (Int64.to_int (Tt.word (Tt.project func [ i; j ])), i, j)
  | _ ->
    let cubes = Array.of_list (fst (isop n func func)) in
    let starts = Array.make (Array.length cubes + 1) 0 in
    Array.iteri
      (fun c (p, q) -> starts.(c + 1) <- starts.(c) + popcount_small (p lor q))
      cubes;
    let nl = starts.(Array.length cubes) in
    let lits = Array.make nl 0 and flips = Array.make nl 0 in
    Array.iteri
      (fun c (p, q) ->
        let l = ref starts.(c) in
        for i = 0 to n - 1 do
          if (p lor q) land (1 lsl i) <> 0 then begin
            lits.(!l) <- i;
            flips.(!l) <- (if q land (1 lsl i) <> 0 then -1 else 0);
            incr l
          end
        done)
      cubes;
    Sop { starts; lits; flips }

(* Compiled programs by truth table, one table per domain (pool tasks
   evaluate cells too) *)
module Progs = Hashtbl.Make (struct
  type t = Tt.t

  let equal = Tt.equal
  let hash f = Int64.to_int (Tt.word f) lxor Tt.num_vars f
end)

let progs_key = Domain.DLS.new_key (fun () -> Progs.create 16)

let prog_of func =
  let tbl = Domain.DLS.get progs_key in
  match Progs.find tbl func with
  | p -> p
  | exception Not_found ->
    let p = compile func in
    Progs.add tbl func p;
    p

(* Run [p] over [w] words: input [i] reads [srcs.(i)] from [offs.(i)],
   the output goes to [dst] from [off].  The output row must not
   overlap an input row. *)
let run_prog p (srcs : Bits.words array) offs (dst : Bits.words) off w =
  match p with
  | Fill c ->
    for j = 0 to w - 1 do
      dst.{off + j} <- c
    done
  | Copy i ->
    let a = srcs.(i) and oa = offs.(i) in
    for j = 0 to w - 1 do
      dst.{off + j} <- a.{oa + j}
    done
  | Not i ->
    let a = srcs.(i) and oa = offs.(i) in
    for j = 0 to w - 1 do
      dst.{off + j} <- Int64.lognot a.{oa + j}
    done
  | Op2 (code, i, k) -> (
    let a = srcs.(i) and oa = offs.(i) and b = srcs.(k) and ob = offs.(k) in
    let ( &&& ) = Int64.logand and ( ||| ) = Int64.logor in
    let ( ^^^ ) = Int64.logxor and nt = Int64.lognot in
    match code with
    | 0x8 -> for j = 0 to w - 1 do dst.{off + j} <- a.{oa + j} &&& b.{ob + j} done
    | 0xE -> for j = 0 to w - 1 do dst.{off + j} <- a.{oa + j} ||| b.{ob + j} done
    | 0x6 -> for j = 0 to w - 1 do dst.{off + j} <- a.{oa + j} ^^^ b.{ob + j} done
    | 0x7 -> for j = 0 to w - 1 do dst.{off + j} <- nt (a.{oa + j} &&& b.{ob + j}) done
    | 0x1 -> for j = 0 to w - 1 do dst.{off + j} <- nt (a.{oa + j} ||| b.{ob + j}) done
    | 0x9 -> for j = 0 to w - 1 do dst.{off + j} <- nt (a.{oa + j} ^^^ b.{ob + j}) done
    | 0x2 -> for j = 0 to w - 1 do dst.{off + j} <- a.{oa + j} &&& nt b.{ob + j} done
    | 0x4 -> for j = 0 to w - 1 do dst.{off + j} <- nt a.{oa + j} &&& b.{ob + j} done
    | 0xB -> for j = 0 to w - 1 do dst.{off + j} <- a.{oa + j} ||| nt b.{ob + j} done
    | 0xD -> for j = 0 to w - 1 do dst.{off + j} <- nt a.{oa + j} ||| b.{ob + j} done
    | _ -> invalid_arg "Engine: degenerate two-input program")
  | Sop { starts; lits; flips } ->
    let nc = Array.length starts - 1 in
    for j = 0 to w - 1 do
      let acc = ref 0L in
      for c = 0 to nc - 1 do
        let conj = ref (-1L) in
        for l = starts.(c) to starts.(c + 1) - 1 do
          let i = lits.(l) in
          conj :=
            Int64.logand !conj
              (Int64.logxor srcs.(i).{offs.(i) + j} (Int64.of_int flips.(l)))
        done;
        acc := Int64.logor !acc !conj
      done;
      dst.{off + j} <- !acc
    done

let eval_cell_into func srcs offs dst off w = run_prog (prog_of func) srcs offs dst off w

(* Per-domain staging rows for the [int64 array] entry points: the
   inputs are copied in, evaluated, and the output copied out. *)
type stage = { mutable buf : Bits.words; srcs : Bits.words array; offs : int array }

let stage_key =
  Domain.DLS.new_key (fun () ->
      let buf = Bits.words_create 0 in
      { buf; srcs = Array.make Tt.max_vars buf; offs = Array.make Tt.max_vars 0 })

let staged rows =
  let st = Domain.DLS.get stage_key in
  if A.dim st.buf < rows then begin
    st.buf <- Bits.words_create (max rows (2 * A.dim st.buf));
    Array.fill st.srcs 0 Tt.max_vars st.buf
  end;
  st

let eval_cell_words func (ins : int64 array array) (out : int64 array) w =
  let k = Tt.num_vars func in
  let st = staged ((k + 1) * w) in
  for i = 0 to k - 1 do
    let r = ins.(i) in
    st.offs.(i) <- i * w;
    for j = 0 to w - 1 do
      st.buf.{(i * w) + j} <- r.(j)
    done
  done;
  eval_cell_into func st.srcs st.offs st.buf (k * w) w;
  for j = 0 to w - 1 do
    out.(j) <- st.buf.{(k * w) + j}
  done

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  circ : Circuit.t;
  w : int;
  (* every node's words side by side: node [id]'s word [j] is
     [vals.{id * w + j}], for the [cap] nodes the store holds *)
  mutable cap : int;
  mutable vals : Bits.words;
  (* the fanin rows of the cell being evaluated: [srcs.(i)] is [vals]
     except for an overridden pin, which reads [tmp] *)
  srcs : Bits.words array;
  offs : int array;
  tmp : Bits.words;
  (* Scratch of the fanout-propagation kernel, kept across calls and
     sized with [vals]: [rank] is each node's topological rank (-1:
     never re-evaluated), built from the memoized order [rank_key] and
     rebuilt when that order changes identity; [heap] is a binary
     min-heap of [hn] node ids keyed by rank; [mark] is every node's
     state in the current call (all [untouched] between calls);
     [saved] holds, in [vals]' layout, the words a touched node had
     before the call; [touched] stacks the [tn] nodes whose rows were
     saved; [busy] refuses a nested call. *)
  mutable rank : int array;
  mutable rank_key : Circuit.node_id array;
  mutable heap : int array;
  mutable hn : int;
  mutable mark : Bytes.t;
  mutable saved : Bits.words;
  mutable touched : int array;
  mutable tn : int;
  mutable busy : bool;
}

let create circ ~words =
  if words <= 0 then invalid_arg "Engine.create";
  let cap = Circuit.num_nodes circ in
  let vals = Bits.words_create (cap * words) in
  {
    circ;
    w = words;
    cap;
    vals;
    srcs = Array.make Tt.max_vars vals;
    offs = Array.make Tt.max_vars 0;
    tmp = Bits.words_create words;
    rank = [||];
    rank_key = [||];
    heap = [||];
    hn = 0;
    mark = Bytes.empty;
    saved = Bits.words_create 0;
    touched = [||];
    tn = 0;
    busy = false;
  }

let circuit t = t.circ
let words t = t.w
let num_patterns t = 64 * t.w
let buffer t = t.vals

(* Grow the store to the circuit's node count (new rows read 0). *)
let ensure_capacity t =
  let n = Circuit.num_nodes t.circ in
  if n > t.cap then begin
    let cap = max n (2 * t.cap) in
    let vals = Bits.words_create (cap * t.w) in
    A.blit t.vals (A.sub vals 0 (t.cap * t.w));
    t.vals <- vals;
    t.cap <- cap;
    Array.fill t.srcs 0 Tt.max_vars vals
  end

let value t id = Bits.words_to_array t.vals (id * t.w) t.w

let fill_row t id c =
  let o = id * t.w in
  for j = 0 to t.w - 1 do
    t.vals.{o + j} <- c
  done

let copy_row t ~src ~dst =
  let os = src * t.w and od = dst * t.w in
  for j = 0 to t.w - 1 do
    t.vals.{od + j} <- t.vals.{os + j}
  done

(* Evaluate cell [id] with fanins [fs] into its row, pin [pin] reading
   [tmp] instead of its driver's row (no pin overridden when [pin] is
   -1). *)
let eval_cell t id c fs ~pin =
  for i = 0 to Array.length fs - 1 do
    t.offs.(i) <- fs.(i) * t.w
  done;
  let p = prog_of c.Cell.func in
  if pin < 0 then run_prog p t.srcs t.offs t.vals (id * t.w) t.w
  else begin
    t.srcs.(pin) <- t.tmp;
    t.offs.(pin) <- 0;
    run_prog p t.srcs t.offs t.vals (id * t.w) t.w;
    t.srcs.(pin) <- t.vals
  end

let eval_node t id =
  match Circuit.kind t.circ id with
  | Circuit.Pi -> ()
  | Circuit.Const b -> fill_row t id (if b then -1L else 0L)
  | Circuit.Po d -> copy_row t ~src:d ~dst:id
  | Circuit.Cell (c, fs) -> eval_cell t id c fs ~pin:(-1)

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

(* Save [id]'s words into its row of [saved] and stack it as touched. *)
let save t id =
  let o = id * t.w in
  for j = 0 to t.w - 1 do
    t.saved.{o + j} <- t.vals.{o + j}
  done;
  Bytes.unsafe_set t.mark id visited;
  t.touched.(t.tn) <- id;
  t.tn <- t.tn + 1

(* Whether [id]'s words differ from its saved row; if so, mark it
   changed and queue its sinks. *)
let note_change t id =
  let o = id * t.w in
  let j = ref 0 in
  while
    !j < t.w
    && Int64.equal t.vals.{o + !j} t.saved.{o + !j}
  do
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

(* Start a call: size the scratch with [vals] and rank the nodes by
   the circuit's current topological order (the POs after it, in [pos]
   order).  Dead nodes keep rank -1 and are never queued. *)
let enter t =
  if t.busy then invalid_arg "Engine: nested fanout propagation";
  ensure_capacity t;
  let cap = t.cap in
  if Array.length t.heap < cap then begin
    t.saved <- Bits.words_create (cap * t.w);
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
    if restore then begin
      let o = id * t.w in
      for j = 0 to t.w - 1 do
        t.vals.{o + j} <- t.saved.{o + j}
      done
    end;
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

(* Trial measures.  Every row a trial writes is saved first, so the
   primary outputs whose words can differ from before the trial are
   exactly the touched POs, and their saved rows are their old words. *)

(* The patterns on which some primary output changed, written to [dst]
   from [off]. *)
let po_diff_into t (dst : Bits.words) off =
  for j = 0 to t.w - 1 do
    dst.{off + j} <- 0L
  done;
  for i = 0 to t.tn - 1 do
    let p = t.touched.(i) in
    if Circuit.is_po_node t.circ p then begin
      let o = p * t.w in
      for j = 0 to t.w - 1 do
        dst.{off + j} <-
          Int64.logor dst.{off + j}
            (Int64.logxor t.vals.{o + j} t.saved.{o + j})
      done
    end
  done

let po_diff t =
  po_diff_into t t.tmp 0;
  Bits.words_to_array t.tmp 0 t.w

let po_changed t =
  let rec row_differs o j =
    j < t.w
    && ((not (Int64.equal t.vals.{o + j} t.saved.{o + j}))
       || row_differs o (j + 1))
  in
  let rec from i =
    i < t.tn
    && ((let p = t.touched.(i) in
         Circuit.is_po_node t.circ p && row_differs (p * t.w) 0)
       || from (i + 1))
  in
  from 0

let flip_stem t s =
  let o = s * t.w in
  for j = 0 to t.w - 1 do
    t.vals.{o + j} <- Int64.lognot t.vals.{o + j}
  done

let stem_observability_into t s dst off =
  Obs.Metrics.incr m_obs_stem_calls;
  with_perturbation t ~first:s ~perturb:(fun t -> flip_stem t s) ~measure:(fun t ->
      po_diff_into t dst off)

(* The [int64 array] forms measure into [tmp], which nothing else uses
   while a trial's [measure] runs. *)
let stem_observability t s =
  stem_observability_into t s t.tmp 0;
  Bits.words_to_array t.tmp 0 t.w

let recompute_with_pin_override t ~sink ~pin v =
  if Array.length v < t.w then invalid_arg "Engine.recompute_with_pin_override";
  match Circuit.kind t.circ sink with
  | Circuit.Cell (c, fs) ->
    for j = 0 to t.w - 1 do
      t.tmp.{j} <- v.(j)
    done;
    eval_cell t sink c fs ~pin
  | Circuit.Po _ ->
    if pin <> 0 then invalid_arg "Engine.recompute_with_pin_override";
    let o = sink * t.w in
    for j = 0 to t.w - 1 do
      t.vals.{o + j} <- v.(j)
    done
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Engine.recompute_with_pin_override: no pins"

(* [func] over the rows of [ins], read in place, written to [dst] from
   [off] (called on the engine's own domain: it uses [srcs]/[offs]) *)
let eval_over t func ins dst off =
  for i = 0 to Array.length ins - 1 do
    t.offs.(i) <- ins.(i) * t.w
  done;
  run_prog (prog_of func) t.srcs t.offs dst off t.w

let set_cell_value t id func ins =
  ensure_capacity t;
  eval_over t func ins t.vals (id * t.w)

let recompute_with_pin_cell t ~sink ~pin func ins =
  match Circuit.kind t.circ sink with
  | Circuit.Cell (c, fs) ->
    eval_over t func ins t.tmp 0;
    eval_cell t sink c fs ~pin
  | Circuit.Po _ ->
    if pin <> 0 then invalid_arg "Engine.recompute_with_pin_cell";
    eval_over t func ins t.vals (sink * t.w)
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Engine.recompute_with_pin_cell: no pins"

let branch_observability t ~sink ~pin =
  ensure_capacity t;
  Obs.Metrics.incr m_obs_branch_calls;
  match Circuit.kind t.circ sink with
  | Circuit.Po _ -> Array.make t.w (-1L) (* an output branch is always observed *)
  | Circuit.Cell (c, fs) ->
    let flip t =
      let o = fs.(pin) * t.w in
      for j = 0 to t.w - 1 do
        t.tmp.{j} <- Int64.lognot t.vals.{o + j}
      done;
      eval_cell t sink c fs ~pin
    in
    with_perturbation t ~first:sink ~perturb:flip ~measure:po_diff
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
      for j = 0 to t.w - 1 do
        t.vals.{(pi * t.w) + j} <- Rng.bits_with_prob rng p
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
        (fun pi -> t.vals.{(pi * t.w) + j} <- Rng.bits_with_prob rng (prob pi))
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
      if i < 6 then fill_row t pi (Tt.word (Tt.var 6 i))
      else
        for j = 0 to t.w - 1 do
          t.vals.{(pi * t.w) + j} <- (if (j lsr (i - 6)) land 1 = 1 then -1L else 0L)
        done)
    pis;
  resim_all t

let count_ones t id = Bits.popcount_slice t.vals (id * t.w) t.w

let prob_one t id = float_of_int (count_ones t id) /. float_of_int (num_patterns t)

let set_value t id v =
  ensure_capacity t;
  if Array.length v <> t.w then invalid_arg "Engine.set_value";
  for j = 0 to t.w - 1 do
    t.vals.{(id * t.w) + j} <- v.(j)
  done

(* The cell function over the rows of [ins], evaluated into the
   domain's staging row (pool tasks call these). *)
let eval_rows t func ins =
  let st = staged t.w in
  let srcs = Array.make (Array.length ins) t.vals in
  let offs = Array.map (fun id -> id * t.w) ins in
  eval_cell_into func srcs offs st.buf 0 t.w;
  st.buf

let cell_ones t func ins = Bits.popcount_slice (eval_rows t func ins) 0 t.w

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
    (fun po -> (Circuit.name t.circ po, value t po))
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
