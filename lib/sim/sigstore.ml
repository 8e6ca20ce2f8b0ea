module Circuit = Netlist.Circuit
module Bits = Logic.Bits

(* A class groups the live signals whose signatures are equal up to
   complement.  [canon] is the polarity-canonical signature (lowest bit
   of word 0 forced to 0); a member whose signature is the complement
   of [canon] carries [compl = true]. *)
type cls = {
  canon : int64 array;
  icanon : int array; (* canon packed as 62-bit limbs (Bits.pack_words) *)
  mutable members : int list; (* positions, descending while building *)
  mutable member_arr : int array; (* ascending, frozen after build *)
}

type t = {
  base : Engine.t;
  cex : Engine.t option;
  mutable dirty : bool;
  (* per node id: the row changed since the last resync ([src] or its
     transitive fanout at some accepted edit); [||] when no edit is
     pending *)
  mutable stale : bool array;
  mutable signals : Circuit.node_id array;
  mutable pos_of : int array; (* node id -> position in [signals], -1 *)
  mutable rows : int64 array array; (* per position: base words @ cex words *)
  mutable irows : int array array; (* rows packed as 62-bit limbs *)
  mutable compl_ : bool array; (* per position: complemented wrt canon *)
  mutable cls_of : int array; (* per position -> class index *)
  mutable classes : cls array;
  (* all class canons side by side ([icanon_stride] limbs each): the
     per-target class sweep reads them contiguously instead of chasing
     one small array per class *)
  mutable icanon_flat : int array;
  mutable icanon_stride : int;
  index : (int, int list ref) Hashtbl.t; (* signature hash -> class ids *)
  (* observability table, per node id: the folded stem care row of every
     live cell ([||] elsewhere); [None] until [compute_care] and after
     any maintenance *)
  mutable care : int64 array array option;
  (* the class canons transposed into lanes; [None] until
     [compute_lanes] and after any maintenance *)
  mutable lanes : lanes option;
}

and lanes = {
  lane_words : int;
  positions : int;
  block : int;
  cols : int array;
  plus : int array;
  minus : int array;
}

let m_rebuilds = Obs.Metrics.counter "sig/store.rebuilds"
let m_refreshed = Obs.Metrics.counter "sig/store.refreshed_rows"

let base_words t = Engine.words t.base

let words t =
  base_words t + match t.cex with None -> 0 | Some e -> Engine.words e

let base_engine t = t.base
let cex_engine t = t.cex

let create ?cex ~base () =
  if
    match cex with
    | Some e -> Engine.circuit e != Engine.circuit base
    | None -> false
  then invalid_arg "Sigstore.create: engines simulate different circuits";
  {
    base;
    cex;
    dirty = true;
    stale = [||];
    signals = [||];
    pos_of = [||];
    rows = [||];
    irows = [||];
    compl_ = [||];
    cls_of = [||];
    classes = [||];
    icanon_flat = [||];
    icanon_stride = 0;
    index = Hashtbl.create 1024;
    care = None;
    lanes = None;
  }

let circuit t = Engine.circuit t.base

let is_signal_node circ id =
  Circuit.is_live circ id
  &&
  match Circuit.kind circ id with
  | Circuit.Pi | Circuit.Cell _ -> true
  | Circuit.Const _ | Circuit.Po _ -> false

(* signature row of a node: base engine words then cex engine words,
   copied out so later engine updates cannot mutate a frozen snapshot *)
let snapshot_row t id =
  let bw = base_words t in
  let row = Array.make (words t) 0L in
  Array.blit (Engine.value t.base id) 0 row 0 bw;
  (match t.cex with
  | None -> ()
  | Some e -> Array.blit (Engine.value e id) 0 row bw (Engine.words e));
  row

let hash_words (a : int64 array) =
  let h = ref 0x9E3779B97F4A7C15L in
  for j = 0 to Array.length a - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.add (Array.unsafe_get a j)
              (Int64.shift_left !h 6)))
        0xFF51AFD7ED558CCDL
  done;
  Int64.to_int !h land max_int

let complemented_canon (row : int64 array) =
  Int64.equal (Int64.logand row.(0) 1L) 1L

let canon_of row =
  if complemented_canon row then Array.map Int64.lognot row
  else Array.copy row

(* Find (or create) the class of [row]; returns (class id, complemented). *)
let intern t nclasses_ref row =
  let comp = complemented_canon row in
  let canon = if comp then Array.map Int64.lognot row else row in
  let h = hash_words canon in
  let bucket =
    match Hashtbl.find_opt t.index h with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.add t.index h b;
      b
  in
  let rec find = function
    | [] ->
      let id = !nclasses_ref in
      incr nclasses_ref;
      let c =
        { canon; icanon = Bits.pack_words canon; members = [];
          member_arr = [||] }
      in
      if id >= Array.length t.classes then begin
        let bigger =
          Array.make (max 64 (2 * Array.length t.classes)) c
        in
        Array.blit t.classes 0 bigger 0 id;
        t.classes <- bigger
      end;
      t.classes.(id) <- c;
      bucket := id :: !bucket;
      (id, comp)
    | id :: rest ->
      if Bits.equal_words t.classes.(id).canon canon then (id, comp)
      else find rest
  in
  find !bucket

(* Rebuild membership, rows and the class index from the engines.
   [refresh] decides, per node, whether its previous row snapshot can
   be reused (membership is recomputed either way — the circuit may
   have grown or swept nodes). *)
let resync t ~refresh =
  let circ = circuit t in
  let acc = ref [] in
  Circuit.iter_live circ (fun id ->
      if is_signal_node circ id then acc := id :: !acc);
  let signals = Array.of_list (List.rev !acc) in
  let n = Array.length signals in
  let old_pos_of = t.pos_of and old_rows = t.rows and old_irows = t.irows in
  let rows = Array.make n [||] in
  let irows = Array.make n [||] in
  let refreshed = ref 0 in
  Array.iteri
    (fun p id ->
      let old =
        if id < Array.length old_pos_of && old_pos_of.(id) >= 0 then
          Some (old_pos_of.(id))
        else None
      in
      match old with
      | Some op when not (refresh id) ->
        rows.(p) <- old_rows.(op);
        irows.(p) <- old_irows.(op)
      | _ ->
        rows.(p) <- snapshot_row t id;
        irows.(p) <- Bits.pack_words rows.(p);
        incr refreshed)
    signals;
  let pos_of = Array.make (Circuit.num_nodes circ) (-1) in
  Array.iteri (fun p id -> pos_of.(id) <- p) signals;
  Hashtbl.reset t.index;
  t.classes <- [||];
  let nclasses = ref 0 in
  let cls_of = Array.make n (-1) in
  let compl_ = Array.make n false in
  for p = 0 to n - 1 do
    let id, comp = intern t nclasses rows.(p) in
    cls_of.(p) <- id;
    compl_.(p) <- comp;
    let c = t.classes.(id) in
    c.members <- p :: c.members
  done;
  let classes = Array.sub t.classes 0 !nclasses in
  Array.iter
    (fun c -> c.member_arr <- Array.of_list (List.rev c.members))
    classes;
  let stride =
    if !nclasses = 0 then 0 else Array.length classes.(0).icanon
  in
  let flat = Array.make (!nclasses * stride) 0 in
  Array.iteri (fun c cl -> Array.blit cl.icanon 0 flat (c * stride) stride)
    classes;
  t.icanon_flat <- flat;
  t.icanon_stride <- stride;
  t.care <- None;
  t.lanes <- None;
  t.signals <- signals;
  t.pos_of <- pos_of;
  t.rows <- rows;
  t.irows <- irows;
  t.compl_ <- compl_;
  t.cls_of <- cls_of;
  t.classes <- classes;
  t.dirty <- false;
  t.stale <- [||];
  Obs.Metrics.add m_refreshed !refreshed

let rebuild t =
  Obs.Metrics.incr m_rebuilds;
  resync t ~refresh:(fun _ -> true)

let invalidate t =
  t.dirty <- true;
  t.care <- None;
  t.lanes <- None

(* An accepted substitution rooted at [src] changes the words of [src]
   and its transitive fanout only (both engines were already
   re-simulated by the caller).  Marking is all it does: the rows are
   re-snapshot by the next [sync], one resync for any number of edits.
   That equals a resync per edit because [resync] reads nothing but the
   engines' current state and the carried-over rows, and interns classes
   in position order; the fanout must be taken now, while the edited
   circuit still has it. *)
let update_after_edit t src =
  if not t.dirty then begin
    t.care <- None;
    t.lanes <- None;
    let tfo = Circuit.tfo (circuit t) src in
    tfo.(src) <- true;
    (* node ids only grow between syncs, so [tfo] covers every mark *)
    Array.iteri (fun id b -> if b then tfo.(id) <- true) t.stale;
    t.stale <- tfo
  end

let sync t =
  if t.dirty then rebuild t
  else if Array.length t.stale > 0 then begin
    let stale = t.stale in
    resync t ~refresh:(fun id ->
        (id < Array.length stale && stale.(id))
        || id >= Array.length t.pos_of
        || t.pos_of.(id) < 0)
  end

(* Reads of the class structure on a store with unsynced maintenance
   would silently see stale rows. *)
let synced name t =
  if t.dirty || Array.length t.stale > 0 then
    invalid_arg ("Sigstore." ^ name ^ ": store not synced")

let signals t =
  synced "signals" t;
  t.signals
let num_signals t = Array.length t.signals
let position t id = if id < Array.length t.pos_of then t.pos_of.(id) else -1
let row t p = t.rows.(p)
let irow t p = t.irows.(p)
let num_classes t =
  synced "num_classes" t;
  Array.length t.classes
let class_canon t c = t.classes.(c).canon
let class_icanon t c = t.classes.(c).icanon
let icanon_flat t = t.icanon_flat
let icanon_stride t = t.icanon_stride
let class_members t c = t.classes.(c).member_arr
let complemented t = t.compl_
let class_of t p = t.cls_of.(p)

let lookup t sig_ =
  if Array.length sig_ <> words t then invalid_arg "Sigstore.lookup";
  let comp = complemented_canon sig_ in
  let canon = canon_of sig_ in
  let h = hash_words canon in
  match Hashtbl.find_opt t.index h with
  | None -> None
  | Some bucket ->
    let rec find = function
      | [] -> None
      | id :: rest ->
        if Bits.equal_words t.classes.(id).canon canon then Some (id, comp)
        else find rest
    in
    find !bucket

(* ------------------------------------------------------------------ *)
(* Observability table                                                *)
(* ------------------------------------------------------------------ *)

let m_local_rows = Obs.Metrics.counter "sim.observability.local_rows"

(* Stem observability by flip-and-resimulate on each engine (each
   pattern column is independent), concatenated in row order.  Mutates
   and restores engine state, so it must run sequentially. *)
let stem_care t id =
  let base = Engine.stem_observability t.base id in
  match t.cex with
  | None -> base
  | Some e -> Array.append base (Engine.stem_observability e id)

(* Workspace of the local branch rule: the negated pin input, the
   re-evaluated cell output, the fanin words handed to the evaluator
   (only the first [arity] entries are read) and the folded row. *)
type branch_buf = {
  neg : int64 array;
  flipped : int64 array;
  ins : int64 array array;
  row : int64 array;
}

let branch_buf t =
  let w =
    max (base_words t) (match t.cex with None -> 0 | Some e -> Engine.words e)
  in
  { neg = Array.make w 0L; flipped = Array.make w 0L;
    ins = Array.make Logic.Tt.max_vars [||]; row = Array.make (words t) 0L }

(* Care of the branch into pin [pin] of [sink] by the local rule, given
   the table rows [care] of every cell after [sink] in topological
   order, written into [b.row]: all ones into a PO, otherwise the
   patterns on which flipping the pin flips [sink]'s output, restricted
   to those on which flipping [sink] is observed. *)
let local_branch t care b ~sink ~pin =
  let circ = circuit t in
  match Circuit.kind circ sink with
  | Circuit.Po _ -> Array.fill b.row 0 (words t) (-1L)
  | Circuit.Cell (c, fs) ->
    let obs = care.(sink) in
    let fill e off =
      let w = Engine.words e in
      for i = 0 to Array.length fs - 1 do
        b.ins.(i) <- Engine.value e fs.(i)
      done;
      let v = Engine.value e fs.(pin) in
      for j = 0 to w - 1 do
        b.neg.(j) <- Int64.lognot v.(j)
      done;
      b.ins.(pin) <- b.neg;
      Engine.eval_cell_words c.Gatelib.Cell.func b.ins b.flipped w;
      let v = Engine.value e sink in
      for j = 0 to w - 1 do
        b.row.(off + j) <-
          Int64.logand (Int64.logxor b.flipped.(j) v.(j)) obs.(off + j)
      done
    in
    fill t.base 0;
    Option.iter (fun e -> fill e (base_words t)) t.cex
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Sigstore.branch_obs: sink has no pins"

(* Reverse topological order puts every cell's fanout sinks before the
   cell itself, so a single-fanout stem reads its sink's finished row.
   A cell without live fanouts is observed nowhere; one with a single
   live fanout branch is observed exactly where that branch is; only
   cells with two or more live fanouts are flipped and re-simulated. *)
let compute_care t =
  synced "compute_care" t;
  let circ = circuit t in
  let care = Array.make (Circuit.num_nodes circ) [||] in
  let b = branch_buf t in
  let order = Circuit.topo_order circ in
  let local = ref 0 in
  for r = Array.length order - 1 downto 0 do
    let id = order.(r) in
    match Circuit.kind circ id with
    | Circuit.Cell _ ->
      let live =
        List.filter
          (fun p -> Circuit.is_live circ p.Circuit.sink)
          (Circuit.fanouts circ id)
      in
      care.(id) <-
        (match live with
        | [] ->
          incr local;
          Array.make (words t) 0L
        | [ p ] ->
          incr local;
          local_branch t care b ~sink:p.Circuit.sink ~pin:p.Circuit.pin_index;
          Array.copy b.row
        | _ :: _ :: _ -> stem_care t id)
    | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ()
  done;
  Obs.Metrics.add m_local_rows !local;
  t.care <- Some care

let table t =
  match t.care with
  | Some care -> care
  | None -> invalid_arg "Sigstore: observability table not computed"

let stem_obs t id =
  let care = table t in
  if id >= Array.length care || Array.length care.(id) = 0 then
    invalid_arg "Sigstore.stem_obs: not a live cell";
  care.(id)

let branch_obs_in t b ~sink ~pin =
  let care = table t in
  Obs.Metrics.incr m_local_rows;
  local_branch t care b ~sink ~pin;
  b.row

let branch_obs t ~sink ~pin = branch_obs_in t (branch_buf t) ~sink ~pin

let packed_branch_obs t b ~sink ~pin = Bits.pack_words (branch_obs_in t b ~sink ~pin)

(* ------------------------------------------------------------------ *)
(* Lane view                                                          *)
(* ------------------------------------------------------------------ *)

let lane_width = 62
let half = 31
let half_mask = (1 lsl half) - 1

(* In-place transpose of a 32 x 32 bit matrix held as 32 rows (bit [c]
   of [a.(r)] is entry (r, c)): swaps ever smaller off-diagonal blocks,
   5 word passes instead of 1024 bit moves. *)
let transpose32 a =
  let j = ref 16 and m = ref 0xFFFF in
  while !j <> 0 do
    let k = ref 0 in
    while !k < 32 do
      let t = ((a.(!k) lsr !j) lxor a.(!k + !j)) land !m in
      a.(!k) <- a.(!k) lxor (t lsl !j);
      a.(!k + !j) <- a.(!k + !j) lxor t;
      k := (!k + !j + 1) land lnot !j
    done;
    j := !j lsr 1;
    m := !m lxor (!m lsl !j)
  done

(* Each 62 x 62 tile (62 classes by one 62-bit limb) is four 31 x 31
   quadrants, each transposed as a zero-padded 32 x 32 matrix: lane
   half [lh] of column [b] collects bit [b] of the rows [31 lh ..]. *)
let compute_lanes t =
  synced "compute_lanes" t;
  let nc = Array.length t.classes and stride = t.icanon_stride in
  let lane_words = (nc + lane_width - 1) / lane_width in
  let positions = lane_width * stride in
  let block = (2 * positions) + 1 in
  let cols = Array.make (lane_words * block) 0 in
  let sq = Array.make 32 0 in
  for w = 0 to lane_words - 1 do
    for i = 0 to stride - 1 do
      for lh = 0 to 1 do
        for bh = 0 to 1 do
          for r = 0 to half - 1 do
            let c = (w * lane_width) + (lh * half) + r in
            sq.(r) <-
              (if c < nc then
                 (t.icanon_flat.((c * stride) + i) lsr (bh * half)) land half_mask
               else 0)
          done;
          sq.(half) <- 0;
          transpose32 sq;
          for b = 0 to half - 1 do
            let col = (w * block) + (lane_width * i) + (bh * half) + b in
            cols.(col) <- cols.(col) lor (sq.(b) lsl (lh * half))
          done
        done
      done
    done
  done;
  let lane_mask = (1 lsl lane_width) - 1 in
  for w = 0 to lane_words - 1 do
    let base = w * block in
    for pos = 0 to positions - 1 do
      cols.(base + positions + pos) <- cols.(base + pos) lxor lane_mask
    done
  done;
  let plus = Array.make lane_words 0 and minus = Array.make lane_words 0 in
  Array.iteri
    (fun p c ->
      let side = if t.compl_.(p) then minus else plus in
      let w = c / lane_width in
      side.(w) <- side.(w) lor (1 lsl (c mod lane_width)))
    t.cls_of;
  t.lanes <- Some { lane_words; positions; block; cols; plus; minus }

let lanes t =
  match t.lanes with
  | Some l -> l
  | None -> invalid_arg "Sigstore: lane view not computed"
