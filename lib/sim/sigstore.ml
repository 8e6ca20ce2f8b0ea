module Circuit = Netlist.Circuit
module Bits = Logic.Bits

(* A class groups the live signals whose signatures are equal up to
   complement.  [icanon] is the polarity-canonical signature (lowest
   bit of word 0 forced to 0), packed as 62-bit limbs
   ([Bits.pack_words]); a member whose signature is the complement of
   the canon carries [compl = true]. *)
type cls = {
  icanon : int array;
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
  (* per position: base words @ cex words, packed as 62-bit limbs
     straight from the engines' buffers *)
  mutable irows : int array array;
  mutable compl_ : bool array; (* per position: complemented wrt canon *)
  mutable cls_of : int array; (* per position -> class index *)
  mutable classes : cls array;
  (* all class canons side by side ([icanon_stride] limbs each): the
     per-target class sweep reads them contiguously instead of chasing
     one small array per class *)
  mutable icanon_flat : int array;
  mutable icanon_stride : int;
  index : (int, int list ref) Hashtbl.t; (* signature hash -> class ids *)
  (* observability table: node [id]'s folded stem care row is words
     [id * words .. ] of [care_rows], filled for every live cell
     ([has_care]); [care_ok] is false until [compute_care] and after any
     maintenance.  The buffer is kept across tables. *)
  mutable care_rows : Bits.words;
  mutable has_care : bool array;
  mutable care_ok : bool;
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
    irows = [||];
    compl_ = [||];
    cls_of = [||];
    classes = [||];
    icanon_flat = [||];
    icanon_stride = 0;
    index = Hashtbl.create 1024;
    care_rows = Bits.words_create 0;
    has_care = [||];
    care_ok = false;
    lanes = None;
  }

let circuit t = Engine.circuit t.base

let is_signal_node circ id =
  Circuit.is_live circ id
  &&
  match Circuit.kind circ id with
  | Circuit.Pi | Circuit.Cell _ -> true
  | Circuit.Const _ | Circuit.Po _ -> false

(* Packed signature row of a node: base engine words then cex engine
   words, packed out of the engines' buffers so later engine updates
   cannot mutate a frozen snapshot. *)
let snapshot_row t id =
  let row = Array.make (Bits.limbs_for_words (words t)) 0 in
  let bw = base_words t in
  Bits.pack_slice (Engine.buffer t.base) (id * bw) bw row 0;
  (match t.cex with
  | None -> ()
  | Some e ->
    let cw = Engine.words e in
    Bits.pack_slice (Engine.buffer e) (id * cw) cw row (64 * bw));
  row

let hash_limbs (a : int array) =
  let h = ref 0 in
  for j = 0 to Array.length a - 1 do
    h := (!h * 0x2545F4914F6CDD1D) lxor Array.unsafe_get a j
  done;
  !h land max_int

let equal_limbs (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go j = j >= n || (Array.unsafe_get a j = Array.unsafe_get b j && go (j + 1)) in
  n = Array.length b && go 0

(* Bit 0 of limb 0 is bit 0 of word 0 *)
let complemented_canon (row : int array) = row.(0) land 1 = 1

(* The packed complement of a packed row of [nwords] words: every
   position flipped, the unused top of the last limb left 0. *)
let complement_limbs nwords (row : int array) =
  let n = Array.length row in
  let last = (64 * nwords) - (62 * (n - 1)) in
  Array.mapi
    (fun j x ->
      x lxor if j < n - 1 then Bits.limb_mask else (1 lsl last) - 1)
    row

let canon_of t row =
  if complemented_canon row then complement_limbs (words t) row else row

(* Find (or create) the class of [row]; returns (class id, complemented). *)
let intern t nclasses_ref row =
  let comp = complemented_canon row in
  let canon = canon_of t row in
  let h = hash_limbs canon in
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
      let c = { icanon = canon; members = []; member_arr = [||] } in
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
      if equal_limbs t.classes.(id).icanon canon then (id, comp)
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
  let old_pos_of = t.pos_of and old_irows = t.irows in
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
      | Some op when not (refresh id) -> irows.(p) <- old_irows.(op)
      | _ ->
        irows.(p) <- snapshot_row t id;
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
    let id, comp = intern t nclasses irows.(p) in
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
  t.care_ok <- false;
  t.lanes <- None;
  t.signals <- signals;
  t.pos_of <- pos_of;
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
  t.care_ok <- false;
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
    t.care_ok <- false;
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
let row t p = Bits.unpack_words t.irows.(p) (words t)
let irow t p = t.irows.(p)
let num_classes t =
  synced "num_classes" t;
  Array.length t.classes
let class_canon t c = Bits.unpack_words t.classes.(c).icanon (words t)
let class_icanon t c = t.classes.(c).icanon
let icanon_flat t = t.icanon_flat
let icanon_stride t = t.icanon_stride
let class_members t c = t.classes.(c).member_arr
let complemented t = t.compl_
let class_of t p = t.cls_of.(p)

let lookup t sig_ =
  if Array.length sig_ <> words t then invalid_arg "Sigstore.lookup";
  let row = Bits.pack_words sig_ in
  let comp = complemented_canon row in
  let canon = canon_of t row in
  let h = hash_limbs canon in
  match Hashtbl.find_opt t.index h with
  | None -> None
  | Some bucket ->
    let rec find = function
      | [] -> None
      | id :: rest ->
        if equal_limbs t.classes.(id).icanon canon then Some (id, comp)
        else find rest
    in
    find !bucket

(* ------------------------------------------------------------------ *)
(* Observability table                                                *)
(* ------------------------------------------------------------------ *)

let m_local_rows = Obs.Metrics.counter "sim.observability.local_rows"

(* Stem observability by flip-and-resimulate on each engine (each
   pattern column is independent), concatenated in row order into
   [id]'s table row.  Mutates and restores engine state, so it must run
   sequentially. *)
let stem_care t id =
  let off = id * words t in
  Engine.stem_observability_into t.base id t.care_rows off;
  match t.cex with
  | None -> ()
  | Some e -> Engine.stem_observability_into e id t.care_rows (off + base_words t)

(* Workspace of the local branch rule: the negated pin input, the
   re-evaluated cell output, the fanin rows handed to the evaluator
   (only the first [arity] entries are read) and the folded row. *)
type branch_buf = {
  neg : Bits.words;
  flipped : Bits.words;
  srcs : Bits.words array;
  offs : int array;
  row : Bits.words;
}

let branch_buf t =
  let w =
    max (base_words t) (match t.cex with None -> 0 | Some e -> Engine.words e)
  in
  let neg = Bits.words_create w in
  { neg; flipped = Bits.words_create w; srcs = Array.make Logic.Tt.max_vars neg;
    offs = Array.make Logic.Tt.max_vars 0; row = Bits.words_create (words t) }

(* [local_branch]'s rule on engine [e], whose words sit at [off] in
   the folded row, reading the engine's buffer in place *)
let local_words t b e off c fs ~sink ~pin =
  let w = Engine.words e and vals = Engine.buffer e in
  for i = 0 to Array.length fs - 1 do
    b.srcs.(i) <- vals;
    b.offs.(i) <- fs.(i) * w
  done;
  let o = fs.(pin) * w in
  for j = 0 to w - 1 do
    b.neg.{j} <- Int64.lognot vals.{o + j}
  done;
  b.srcs.(pin) <- b.neg;
  b.offs.(pin) <- 0;
  Engine.eval_cell_into c.Gatelib.Cell.func b.srcs b.offs b.flipped 0 w;
  let o = sink * w and obs = (sink * words t) + off in
  for j = 0 to w - 1 do
    b.row.{off + j} <-
      Int64.logand (Int64.logxor b.flipped.{j} vals.{o + j}) t.care_rows.{obs + j}
  done

(* Care of the branch into pin [pin] of [sink] by the local rule, given
   the table rows of every cell after [sink] in topological order,
   written into [b.row]: all ones into a PO, otherwise the patterns on
   which flipping the pin flips [sink]'s output, restricted to those on
   which flipping [sink] is observed. *)
let local_branch t b ~sink ~pin =
  match Circuit.kind (circuit t) sink with
  | Circuit.Po _ -> Bigarray.Array1.fill b.row (-1L)
  | Circuit.Cell (c, fs) -> (
    local_words t b t.base 0 c fs ~sink ~pin;
    match t.cex with
    | None -> ()
    | Some e -> local_words t b e (base_words t) c fs ~sink ~pin)
  | Circuit.Pi | Circuit.Const _ ->
    invalid_arg "Sigstore.branch_obs: sink has no pins"

(* The fanout pins into live sinks; the list itself when all are
   live, as it nearly always is *)
let rec live_fanouts circ = function
  | [] -> []
  | p :: rest as l ->
    let rest' = live_fanouts circ rest in
    if not (Circuit.is_live circ p.Circuit.sink) then rest'
    else if rest' == rest then l
    else p :: rest'

(* Reverse topological order puts every cell's fanout sinks before the
   cell itself, so a single-fanout stem reads its sink's finished row.
   A cell without live fanouts is observed nowhere; one with a single
   live fanout branch is observed exactly where that branch is; only
   cells with two or more live fanouts are flipped and re-simulated. *)
let compute_care t =
  synced "compute_care" t;
  let circ = circuit t in
  let n = Circuit.num_nodes circ and nw = words t in
  if Bigarray.Array1.dim t.care_rows < n * nw then
    t.care_rows <- Bits.words_create (max (n * nw) (2 * Bigarray.Array1.dim t.care_rows));
  let care = t.care_rows in
  let has = Array.make n false in
  let b = branch_buf t in
  let order = Circuit.topo_order circ in
  let local = ref 0 in
  for r = Array.length order - 1 downto 0 do
    let id = order.(r) in
    match Circuit.kind circ id with
    | Circuit.Cell _ ->
      (match live_fanouts circ (Circuit.fanouts circ id) with
      | [] ->
        incr local;
        for j = 0 to nw - 1 do
          care.{(id * nw) + j} <- 0L
        done
      | [ p ] ->
        incr local;
        local_branch t b ~sink:p.Circuit.sink ~pin:p.Circuit.pin_index;
        for j = 0 to nw - 1 do
          care.{(id * nw) + j} <- b.row.{j}
        done
      | _ :: _ :: _ -> stem_care t id);
      has.(id) <- true
    | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ()
  done;
  Obs.Metrics.add m_local_rows !local;
  t.has_care <- has;
  t.care_ok <- true

let table t =
  if not t.care_ok then invalid_arg "Sigstore: observability table not computed"

let stem_row t id =
  table t;
  if id >= Array.length t.has_care || not t.has_care.(id) then
    invalid_arg "Sigstore.stem_obs: not a live cell";
  id * words t

let stem_obs t id = Bits.words_to_array t.care_rows (stem_row t id) (words t)

let pack_stem_obs t id dst =
  let off = stem_row t id in
  Array.fill dst 0 (Array.length dst) 0;
  Bits.pack_slice t.care_rows off (words t) dst 0

let branch_obs_in t b ~sink ~pin =
  table t;
  (match Circuit.kind (circuit t) sink with
  | Circuit.Cell _ when not (sink < Array.length t.has_care && t.has_care.(sink)) ->
    invalid_arg "Sigstore.branch_obs: sink is not a live cell"
  | Circuit.Cell _ | Circuit.Po _ | Circuit.Pi | Circuit.Const _ -> ());
  Obs.Metrics.incr m_local_rows;
  local_branch t b ~sink ~pin

let branch_obs t ~sink ~pin =
  let b = branch_buf t in
  branch_obs_in t b ~sink ~pin;
  Bits.words_to_array b.row 0 (words t)

let pack_branch_obs t b ~sink ~pin dst =
  branch_obs_in t b ~sink ~pin;
  Array.fill dst 0 (Array.length dst) 0;
  Bits.pack_slice b.row 0 (words t) dst 0

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
