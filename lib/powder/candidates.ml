module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Library = Gatelib.Library
module Engine = Sim.Engine
module Sigstore = Sim.Sigstore
module Estimator = Power.Estimator
module Bits = Logic.Bits

type index_mode = Hash | Scan

type config = {
  classes : Subst.klass list;
  per_target : int;
  pool_limit : int;
  require_positive : bool;
  index : index_mode;
}

let default_config =
  {
    classes = Subst.all_klasses;
    per_target = 4;
    pool_limit = 16;
    require_positive = true;
    index = Hash;
  }

(* [Bits.popcount62], copied so the pool kernel's popcounts are inlined:
   a call there spills the loop's state to the stack *)
let[@inline] popcount62 x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56 land 0x7F

(* Number of care positions the 3-signal pool ranks on (see
   [scan_target]); exact when a target's care set is smaller. *)
let pool_rank_bits = 128

type stats = { pairs_hit : int; pairs_filtered : int; is3_candidates : int }

let zero_stats = { pairs_hit = 0; pairs_filtered = 0; is3_candidates = 0 }

let add_stats a b =
  {
    pairs_hit = a.pairs_hit + b.pairs_hit;
    pairs_filtered = a.pairs_filtered + b.pairs_filtered;
    is3_candidates = a.is3_candidates + b.is3_candidates;
  }

(* registry mirrors, merged deterministically from pool tasks *)
let m_sig_hits = Obs.Metrics.counter "sig/hits"
let m_sig_filtered = Obs.Metrics.counter "sig/filtered"
let m_is3_candidates = Obs.Metrics.counter "is3/candidates"

type target_info = {
  target : Subst.target;
  a : Circuit.node_id;         (* substituted signal *)
  care : int array;            (* folded care row, packed (Bits.pack_words) *)
  root : Circuit.node_id option;
      (* cone root: sources in TFO(root) + root risk a cycle *)
}

let stem_targets circ store =
  List.filter_map
    (fun id ->
      if Circuit.num_fanouts circ id = 0 then None
      else
        Some
          { target = Subst.Stem id; a = id;
            care = Bits.pack_words (Sigstore.stem_obs store id); root = Some id })
    (Circuit.live_gates circ)

let is_signal_node circ id =
  Circuit.is_live circ id
  &&
  match Circuit.kind circ id with
  | Circuit.Pi | Circuit.Cell _ -> true
  | Circuit.Const _ | Circuit.Po _ -> false

let branch_targets circ store =
  let buf = Sigstore.branch_buf store in
  let out = ref [] in
  Circuit.iter_live circ (fun id ->
      if is_signal_node circ id && Circuit.num_fanouts circ id >= 2 then
        List.iter
          (fun p ->
            let sink = p.Circuit.sink and pin = p.Circuit.pin_index in
            let care = Sigstore.packed_branch_obs store buf ~sink ~pin in
            let root = if Circuit.is_po_node circ sink then None else Some sink in
            out := { target = Subst.Branch { sink; pin }; a = id; care; root } :: !out)
          (Circuit.fanouts circ id));
  List.rev !out

(* Total candidate order: gain descending, then purely structural keys.
   Both index modes and every chunking of the parallel fan-out emit the
   same candidate SET; this order makes the emitted LIST identical too,
   so reports and netlists stay byte-identical across index modes and
   [--jobs]. *)
let target_key = function
  | Subst.Stem a -> (0, a, 0)
  | Subst.Branch { sink; pin } -> (1, sink, pin)

let source_key = function
  | Subst.Signal b -> (0, b, -1, "")
  | Subst.Inverted b -> (1, b, -1, "")
  | Subst.Gate2 (c, x, y) -> (2, x, y, c.Cell.name)

let cand_compare (s1, g1) (s2, g2) =
  let c = Float.compare (Subst.total_gain g2) (Subst.total_gain g1) in
  if c <> 0 then c
  else
    let c = compare (target_key s1.Subst.target) (target_key s2.Subst.target) in
    if c <> 0 then c
    else compare (source_key s1.Subst.source) (source_key s2.Subst.source)

(* Sub-span names: the generate phase is the optimizer's dominant cost,
   so its interior is attributed to named spans a profile can diff —
   target/observability enumeration, the (possibly parallel) signature
   scans, and final selection.  The scan span wraps the whole fan-out
   on the main domain: spans opened inside pool tasks would merge at
   the root and make the profile tree depend on [--jobs]. *)
let span_targets = "generate/targets"
let span_targets_stem = "targets/stem-obs"
let span_targets_branch = "targets/branch-obs"
let span_scan = "generate/scan"
let span_select = "generate/select"

(* ------------------------------------------------------------------ *)
(* Per-target scans over a frozen store.  Pure reads of store/circuit/
   estimator, so safe to fan out across pool tasks.                    *)
(* ------------------------------------------------------------------ *)

(* Bounded min-[limit] pool of (disagreement, position), lexicographic.
   [limit] is small (default 16), so sorted-array insertion wins over
   anything clever. *)
type minpool = {
  ds : int array;
  ps : int array;
  limit : int;
  mutable n : int;
}

let minpool_create limit =
  { ds = Array.make limit max_int; ps = Array.make limit max_int; limit;
    n = 0 }

(* [minpool_insert] would place [(d, p)]: split out so a hot loop can
   test it inline before paying for the call. *)
let[@inline] minpool_enters mp d p =
  mp.n < mp.limit
  || d < mp.ds.(mp.limit - 1)
  || (d = mp.ds.(mp.limit - 1) && p < mp.ps.(mp.limit - 1))

let minpool_place mp d p =
  let i = ref (min mp.n (mp.limit - 1)) in
  while !i > 0 && (mp.ds.(!i - 1) > d || (mp.ds.(!i - 1) = d && mp.ps.(!i - 1) > p))
  do
    mp.ds.(!i) <- mp.ds.(!i - 1);
    mp.ps.(!i) <- mp.ps.(!i - 1);
    decr i
  done;
  mp.ds.(!i) <- d;
  mp.ps.(!i) <- p;
  if mp.n < mp.limit then mp.n <- mp.n + 1

let minpool_insert mp d p = if minpool_enters mp d p then minpool_place mp d p

(* Cycle-risk marks for one scan chunk: [stamp.(id) = epoch] iff [id]
   lies in the current target's TFO(root) + root, and [cone.(0 .. size)]
   lists those nodes.  One pair of arrays per chunk, reused across its
   targets by bumping the epoch, so the memory is O(circuit) per chunk
   instead of per target and no two pool tasks share one.  A walk
   enqueues each node at most once, so [cone] never outgrows the
   circuit. *)
type marks = {
  stamp : int array;
  cone : int array;
  mutable size : int;
  mutable epoch : int;
}

let marks_create circ =
  let n = Circuit.num_nodes circ in
  { stamp = Array.make n 0; cone = Array.make n 0; size = 0; epoch = 0 }

(* The store's arrays the per-target loops read, fetched once per
   generate and shared read-only by its scans.  The dev build passes
   [-opaque], so an accessor call in another module is never inlined:
   in a loop over classes or members the calls would cost more than
   the work. *)
type view = {
  signals : int array;          (* position -> node id *)
  pos : int array;              (* node id -> position, or -1 *)
  compl : bool array;           (* position -> complemented wrt its canon *)
  cls_of : int array;           (* position -> class *)
  members : int array array;    (* class -> positions, ascending *)
  tp : float array;             (* node id -> transition probability *)
}

let view_create circ store est =
  let signals = Sigstore.signals store in
  let pos = Array.make (Circuit.num_nodes circ) (-1) in
  let tp = Array.make (Circuit.num_nodes circ) 0.0 in
  Array.iteri
    (fun p id ->
      pos.(id) <- p;
      tp.(id) <- Estimator.transition_prob est id)
    signals;
  { signals; pos; tp; compl = Sigstore.complemented store;
    cls_of = Array.init (Array.length signals) (Sigstore.class_of store);
    members = Array.init (Sigstore.num_classes store) (Sigstore.class_members store) }

(* Enqueues the unmarked live sinks of [fanouts]; returns [cnt] plus
   the store signals among them. *)
let rec mark_sinks circ v mk e cnt = function
  | [] -> cnt
  | p :: rest ->
    let s = p.Circuit.sink in
    if mk.stamp.(s) <> e && Circuit.is_live circ s then begin
      mk.stamp.(s) <- e;
      mk.cone.(mk.size) <- s;
      mk.size <- mk.size + 1;
      let cnt = if v.pos.(s) >= 0 then cnt + 1 else cnt in
      mark_sinks circ v mk e cnt rest
    end
    else mark_sinks circ v mk e cnt rest

(* Stamps TFO(root) + root (nothing when [root] is [None]) and returns
   how many store signals it stamped. *)
let mark_cone circ v mk root =
  mk.epoch <- mk.epoch + 1;
  mk.size <- 0;
  match root with
  | None -> 0
  | Some r ->
    let e = mk.epoch in
    mk.stamp.(r) <- e;
    mk.cone.(0) <- r;
    mk.size <- 1;
    let head = ref 0 in
    let cnt = ref (if v.pos.(r) >= 0 then 1 else 0) in
    while !head < mk.size do
      cnt := mark_sinks circ v mk e !cnt (Circuit.fanouts circ mk.cone.(!head));
      incr head
    done;
    !cnt

(* A store position may stand in for the target's signal [p_a]: it is
   neither [p_a] nor marked in the target's cone. *)
let[@inline] eligible mk signals p_a p =
  p <> p_a && mk.stamp.(Array.unsafe_get signals p) <> mk.epoch

(* ------------------------------------------------------------------ *)
(* Bit-sliced 3-signal pool kernel over {!Sigstore.lanes}: one word    *)
(* operation advances 62 classes.                                      *)
(* ------------------------------------------------------------------ *)

(* Keys are below 190 (see [scan_target]), so 8 bit-planes hold them. *)
let planes = 8

(* Positions are consumed 16 at a time; a target has at most 189. *)
let max_positions = 192

(* Per-chunk scratch, reused across the chunk's targets like [marks]:
   the gathered prefix positions, the per-class disagreement planes and
   the selection masks.  Planes are plane-major: bit [k] of lane-word
   [w] lives at [k * lane_words + w]. *)
type lane_scratch = {
  pos : int array;  (* disagreement column within a lane-word block *)
  dpl : int array;  (* planes of d, the disagreement with the canon *)
  mpl : int array;  (* planes of covered - d: complemented members *)
  sel_p : int array; sel_m : int array;  (* lanes whose key ties T so far *)
  lt_p : int array; lt_m : int array;    (* lanes whose key is below T *)
  taint : int array;    (* lanes of classes with an ineligible member *)
  tainted : int array;  (* those classes, [ntainted] of them *)
  mutable ntainted : int;
}

let lane_scratch_create store =
  let nc = Sigstore.num_classes store in
  let w = (nc + 61) / 62 in
  let mk n = Array.make n 0 in
  { pos = mk max_positions; dpl = mk (planes * w);
    mpl = mk (planes * w); sel_p = mk w; sel_m = mk w; lt_p = mk w;
    lt_m = mk w; taint = mk w; tainted = mk nc; ntainted = 0 }

(* Marks the class of store position [p] tainted (once). *)
let taint_class ls v p =
  let c = v.cls_of.(p) in
  let w = c / 62 and bit = 1 lsl (c mod 62) in
  if ls.taint.(w) land bit = 0 then begin
    ls.taint.(w) <- ls.taint.(w) lor bit;
    ls.tainted.(ls.ntainted) <- c;
    ls.ntainted <- ls.ntainted + 1
  end

(* Index of the single set bit of [low] (a power of two below 2^62):
   the multiply shifts a de Bruijn-style constant whose 6-bit windows
   at shifts 0..61 are distinct, so the top 6 bits name the shift. *)
let debruijn62 = 0x10c51c9669eaedf

let ctz_table =
  let t = Array.make 64 0 in
  for k = 0 to 61 do
    t.(((1 lsl k) * debruijn62) lsr 57) <- k
  done;
  t

let[@inline] bit_index low = Array.unsafe_get ctz_table ((low * debruijn62) lsr 57)

let[@inline] csa_carry a b c = (a land b) lor ((a lxor b) land c)
let[@inline] csa_sum a b c = a lxor b lxor c

(* lane-wise disagreement of every class with the target at input [j] *)
let[@inline] lane_in (cols : int array) base ls j =
  Array.unsafe_get cols (base + Array.unsafe_get ls.pos j)

(* Harley–Seal carry-save count of the columns [ls.pos.(0 .. n)] ([n] a
   multiple of 16) of the lane-word block at [base]: each group of 16
   goes through a tree of full adders into ones/twos/fours/eights, and
   only the group's sixteens carry ripples into the high planes.
   Writes the 8 planes of [d] for lane-word [w]. *)
let count_lanes (cols : int array) base ls n nw w =
  let ones = ref 0 and twos = ref 0 and fours = ref 0 and eights = ref 0 in
  let h4 = ref 0 and h5 = ref 0 and h6 = ref 0 and h7 = ref 0 in
  let g = ref 0 in
  while !g < n do
    let j = !g in
    let a = lane_in cols base ls j and b = lane_in cols base ls (j + 1) in
    let twos_a = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let a = lane_in cols base ls (j + 2) and b = lane_in cols base ls (j + 3) in
    let twos_b = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let fours_a = csa_carry !twos twos_a twos_b in
    twos := csa_sum !twos twos_a twos_b;
    let a = lane_in cols base ls (j + 4) and b = lane_in cols base ls (j + 5) in
    let twos_a = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let a = lane_in cols base ls (j + 6) and b = lane_in cols base ls (j + 7) in
    let twos_b = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let fours_b = csa_carry !twos twos_a twos_b in
    twos := csa_sum !twos twos_a twos_b;
    let eights_a = csa_carry !fours fours_a fours_b in
    fours := csa_sum !fours fours_a fours_b;
    let a = lane_in cols base ls (j + 8) and b = lane_in cols base ls (j + 9) in
    let twos_a = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let a = lane_in cols base ls (j + 10) and b = lane_in cols base ls (j + 11) in
    let twos_b = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let fours_a = csa_carry !twos twos_a twos_b in
    twos := csa_sum !twos twos_a twos_b;
    let a = lane_in cols base ls (j + 12) and b = lane_in cols base ls (j + 13) in
    let twos_a = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let a = lane_in cols base ls (j + 14) and b = lane_in cols base ls (j + 15) in
    let twos_b = csa_carry !ones a b in
    ones := csa_sum !ones a b;
    let fours_b = csa_carry !twos twos_a twos_b in
    twos := csa_sum !twos twos_a twos_b;
    let eights_b = csa_carry !fours fours_a fours_b in
    fours := csa_sum !fours fours_a fours_b;
    let c = csa_carry !eights eights_a eights_b in
    eights := csa_sum !eights eights_a eights_b;
    let c5 = !h4 land c in
    h4 := !h4 lxor c;
    let c6 = !h5 land c5 in
    h5 := !h5 lxor c5;
    let c7 = !h6 land c6 in
    h6 := !h6 lxor c6;
    h7 := !h7 lxor c7;
    g := j + 16
  done;
  let dpl = ls.dpl in
  dpl.(w) <- !ones;
  dpl.(nw + w) <- !twos;
  dpl.((2 * nw) + w) <- !fours;
  dpl.((3 * nw) + w) <- !eights;
  dpl.((4 * nw) + w) <- !h4;
  dpl.((5 * nw) + w) <- !h5;
  dpl.((6 * nw) + w) <- !h6;
  dpl.((7 * nw) + w) <- !h7

(* [covered - d] lane-wise, as [covered + lnot d + 1] over 8 planes *)
let complement_lanes ls covered nw w =
  let carry = ref Bits.limb_mask in
  for k = 0 to planes - 1 do
    let a = Array.unsafe_get ls.dpl ((k * nw) + w) lxor Bits.limb_mask in
    let b = if (covered lsr k) land 1 = 1 then Bits.limb_mask else 0 in
    Array.unsafe_set ls.mpl ((k * nw) + w) (csa_sum a b !carry);
    carry := csa_carry a b !carry
  done

(* Radix select, most significant plane first, over the [sides] sides
   in [sel_p]/[sel_m]: finds [T], their [rank]-th smallest key, and
   leaves in [lt_*] the sides whose key is below [T] and in [sel_*]
   those whose key is [T], and returns [T] — or leaves every side in
   [sel_*] and returns [-1] when [sides <= rank].  Keys are below
   [2^nb]. *)
let select_lanes ls nw nb rank sides =
  Array.fill ls.lt_p 0 nw 0;
  Array.fill ls.lt_m 0 nw 0;
  if sides <= rank then -1
  else begin
    let need = ref rank and t = ref 0 in
    for k = nb - 1 downto 0 do
      let o = k * nw in
      let zeros = ref 0 in
      for w = 0 to nw - 1 do
        zeros :=
          !zeros
          + popcount62
              (Array.unsafe_get ls.sel_p w land lnot (Array.unsafe_get ls.dpl (o + w)))
          + popcount62
              (Array.unsafe_get ls.sel_m w land lnot (Array.unsafe_get ls.mpl (o + w)))
      done;
      if !zeros >= !need then
        (* T's bit k is 0: the sides with a 1 there are above T *)
        for w = 0 to nw - 1 do
          Array.unsafe_set ls.sel_p w
            (Array.unsafe_get ls.sel_p w land lnot (Array.unsafe_get ls.dpl (o + w)));
          Array.unsafe_set ls.sel_m w
            (Array.unsafe_get ls.sel_m w land lnot (Array.unsafe_get ls.mpl (o + w)))
        done
      else begin
        (* T's bit k is 1: the sides with a 0 there are below T *)
        need := !need - !zeros;
        t := !t lor (1 lsl k);
        for w = 0 to nw - 1 do
          let sp = Array.unsafe_get ls.sel_p w and dp = Array.unsafe_get ls.dpl (o + w) in
          let sm = Array.unsafe_get ls.sel_m w and dm = Array.unsafe_get ls.mpl (o + w) in
          Array.unsafe_set ls.lt_p w (Array.unsafe_get ls.lt_p w lor (sp land lnot dp));
          Array.unsafe_set ls.sel_p w (sp land dp);
          Array.unsafe_set ls.lt_m w (Array.unsafe_get ls.lt_m w lor (sm land lnot dm));
          Array.unsafe_set ls.sel_m w (sm land dm)
        done
      end
    done;
    !t
  end

(* d of lane [l] in lane-word [w], read back from its planes *)
let lane_key ls nw nb w l =
  let d = ref 0 in
  for k = 0 to nb - 1 do
    d := !d lor (((Array.unsafe_get ls.dpl ((k * nw) + w) lsr l) land 1) lsl k)
  done;
  !d

let m_pool_word_adds = Obs.Metrics.counter "sig/pool.word_adds"
let m_pool_collected = Obs.Metrics.counter "sig/pool.collected"
let m_pool_tainted = Obs.Metrics.counter "sig/pool.tainted"

(* The lane count of one target, shared by both scan stages: gathers
   the [covered] care positions of its prefix ([lp] limbs in [nzh]
   order of its packed care [icare]) and counts, one carry-save pass
   per lane-word, every class's disagreement [d] with the target's
   packed row [isig] there.  Leaves the planes of [d] in [ls.dpl] and,
   for lane-words with a complemented member, those of [covered - d]
   (a complemented member's key) in [ls.mpl].  Returns [nb], the
   planes a key can occupy: [d <= covered < 2^nb]. *)
let lane_count ~store ls ~isig ~icare ~nzh ~lp ~covered =
  let lv = Sigstore.lanes store in
  let nw = lv.Sigstore.lane_words in
  (* gather the prefix's care positions, set bit by set bit, as the
     column that reads the disagreement with the target's bit there
     (the canon's, or its complement's where the target has a 1), and
     pad them to a multiple of 16 with the all-zero column *)
  let np = ref 0 in
  for k = 0 to lp - 1 do
    let i = nzh.(k) in
    let x = ref icare.(i) in
    while !x <> 0 do
      let low = !x land (- !x) in
      ls.pos.(!np) <-
        (62 * i) + bit_index low
        + if isig.(i) land low <> 0 then lv.Sigstore.positions else 0;
      incr np;
      x := !x lxor low
    done
  done;
  let n16 = (covered + 15) land lnot 15 in
  Array.fill ls.pos covered (n16 - covered) (lv.Sigstore.block - 1);
  for w = 0 to nw - 1 do
    count_lanes lv.Sigstore.cols (w * lv.Sigstore.block) ls n16 nw w;
    if lv.Sigstore.minus.(w) <> 0 then complement_lanes ls covered nw w
  done;
  Obs.Metrics.add m_pool_word_adds (covered * nw);
  let b = ref 0 in
  while covered lsr !b <> 0 do incr b done;
  !b

(* Offers [mp] the members of class [c], whose canon's key is [d] (a
   complemented member's is [covered - d]): every member of a [clean]
   class, the eligible ones of a tainted class.  A class none of whose
   members can enter a full pool (its smaller side key exceeds the
   worst entry's, or ties it from higher positions) is skipped. *)
let feed_class v mk mp ~p_a ~covered ~clean c d =
  let members = v.members.(c) in
  let low = min d (covered - d) in
  if
    mp.n < mp.limit
    || low < mp.ds.(mp.limit - 1)
    || (low = mp.ds.(mp.limit - 1) && members.(0) < mp.ps.(mp.limit - 1))
  then begin
    for j = 0 to Array.length members - 1 do
      let p = Array.unsafe_get members j in
      if clean || eligible mk v.signals p_a p then begin
        let key = if Array.unsafe_get v.compl p then covered - d else d in
        if minpool_enters mp key p then minpool_place mp key p
      end
    done
  end

(* Feeds [mp] the 3-signal pool of one target from its lane count (see
   [lane_count]), given [a]'s position [p_a] and its cone in [mk].  A
   complemented member's key is [covered - d].  A class is tainted when
   some member is ineligible ([a] itself or in the cone); every member
   of an untainted class is eligible.  A radix select over the
   untainted class sides finds [T], their [pool_limit]-th smallest key,
   so at least [pool_limit] eligible members have a key <= [T].  The
   pool is then fed every untainted class with a side key <= [T] and
   every tainted class: a superset of the members with a key <= [T].
   The pool keeps the lexicographic minimum of whatever it is fed, so
   it ends up exactly the global one, in a single pass. *)
let lane_pool ~store v ls mk mp ~p_a ~nb ~covered =
  let lv = Sigstore.lanes store in
  let nw = lv.Sigstore.lane_words in
  ls.ntainted <- 0;
  taint_class ls v p_a;
  for j = 0 to mk.size - 1 do
    let p = v.pos.(mk.cone.(j)) in
    if p >= 0 then taint_class ls v p
  done;
  Obs.Metrics.add m_pool_tainted ls.ntainted;
  let sides = ref 0 in
  for w = 0 to nw - 1 do
    let clean = lnot ls.taint.(w) in
    ls.sel_p.(w) <- lv.Sigstore.plus.(w) land clean;
    ls.sel_m.(w) <- lv.Sigstore.minus.(w) land clean;
    sides := !sides + popcount62 ls.sel_p.(w) + popcount62 ls.sel_m.(w)
  done;
  let t = select_lanes ls nw nb mp.limit !sides in
  (* The classes with a side below [T] first, then those whose nearer
     side ties it, with [d] read off [T]: once the pool's worst key is
     below [T], no tie can enter and the rest are only counted. *)
  let collected = ref 0 in
  for w = 0 to nw - 1 do
    let m = ref (ls.lt_p.(w) lor ls.lt_m.(w)) in
    collected := !collected + popcount62 !m;
    while !m <> 0 do
      let low = !m land (- !m) in
      let l = bit_index low in
      feed_class v mk mp ~p_a ~covered ~clean:true ((62 * w) + l)
        (lane_key ls nw nb w l);
      m := !m lxor low
    done
  done;
  for w = 0 to nw - 1 do
    let lt = ls.lt_p.(w) lor ls.lt_m.(w) in
    let m = ref ((ls.sel_p.(w) lor ls.sel_m.(w)) land lnot lt) in
    collected := !collected + popcount62 !m;
    while !m <> 0 && not (t >= 0 && mp.n = mp.limit && mp.ds.(mp.limit - 1) < t) do
      let low = !m land (- !m) in
      let l = bit_index low in
      let d =
        if t < 0 then lane_key ls nw nb w l
        else if ls.sel_p.(w) land low <> 0 then t
        else covered - t
      in
      feed_class v mk mp ~p_a ~covered ~clean:true ((62 * w) + l) d;
      m := !m lxor low
    done
  done;
  (* a tainted class whose side keys both exceed the pool's worst entry
     cannot place a member *)
  for j = 0 to ls.ntainted - 1 do
    let c = ls.tainted.(j) in
    ls.taint.(c / 62) <- 0;
    let d = lane_key ls nw nb (c / 62) (c mod 62) in
    if mp.n < mp.limit || min d (covered - d) <= mp.ds.(mp.limit - 1) then begin
      feed_class v mk mp ~p_a ~covered ~clean:false c d;
      incr collected
    end
  done;
  Obs.Metrics.add m_pool_collected !collected

(* Swaps input classes 1 and 2 (bits 1 and 2) of a pair's seen set:
   the classes of [(y, x)] are those of [(x, y)] with the inputs
   exchanged, [k = x + 2y] becoming [y + 2x]. *)
let[@inline] swap_inputs s = s land 9 lor ((s land 2) lsl 1) lor ((s land 4) lsr 1)

let m_gain_ab = Obs.Metrics.counter "sig/gain_ab"

(* Everything one target's scan writes besides its candidates, reused
   across the targets of a scan chunk like [marks] and never shared
   between pool tasks.  Each target overwrites what it reads:
   [prepare_care] points [icare] at its care row and sets
   [nzh.(0 .. nh)] and [pcnt.(0 .. nh)]; the pool sets
   [rows.(0 .. npool * nh)], [self2.(0 .. npool)] and [f1]/[f0.(0 .. nh)];
   no read goes past those bounds, so nothing an earlier target left
   behind is ever seen. *)
type scratch = {
  mk : marks;
  ls : lane_scratch;
  mp : minpool;
  mutable icare : int array; (* the target's packed care row *)
  nzh : int array;    (* limbs with nonzero care, densest first *)
  pcnt : int array;   (* [pcnt.(k)]: care positions in limb [nzh.(k)] *)
  mutable nh : int;   (* how many limbs [nzh] lists *)
  rows : int array;   (* pool member [i]'s row over [nzh], at [i * nh] *)
  self2 : bool array; (* pool member [i] agrees with [a] on all the care *)
  f1 : int array;     (* over [nzh]: the care positions where [a] is 1 *)
  f0 : int array;     (*   and those where it is 0 *)
}

let scratch_create ~config ~limbs circ store =
  let pl = max 0 config.pool_limit in
  let ints n = Array.make n 0 in
  { mk = marks_create circ; ls = lane_scratch_create store;
    mp = minpool_create pl; icare = [||]; nzh = ints limbs;
    pcnt = ints limbs; nh = 0; rows = ints (pl * limbs);
    self2 = Array.make pl false; f1 = ints limbs; f0 = ints limbs }

(* Points [sc] at [ti]'s care row and lists its nonzero limbs in [nzh],
   densest first, index ascending on ties (insertion sort: a row has
   about 20 limbs).  Returns the care population. *)
let prepare_care sc ti =
  sc.icare <- ti.care;
  let nh = ref 0 and pop = ref 0 in
  for h = 0 to Array.length ti.care - 1 do
    let x = sc.icare.(h) in
    if x <> 0 then begin
      let w = popcount62 x in
      pop := !pop + w;
      let j = ref !nh in
      while !j > 0 && sc.pcnt.(!j - 1) < w do
        sc.nzh.(!j) <- sc.nzh.(!j - 1);
        sc.pcnt.(!j) <- sc.pcnt.(!j - 1);
        decr j
      done;
      sc.nzh.(!j) <- h;
      sc.pcnt.(!j) <- w;
      incr nh
    end
  done;
  sc.nh <- !nh;
  !pop

(* Single pass deciding both polarities of the row [irow] (at [off]
   within its array) against the target's [isig] over the limbs
   [nzh.(from ..)]: bit [eq_bit] iff they agree on every care position
   there, bit [cq_bit] iff they disagree on every one; only the bits of
   [r0] are decided.  An int, not a pair, so it allocates nothing. *)
let eq_bit = 1
let cq_bit = 2

let eq_and_compl sc isig r0 from irow off =
  let nzh = sc.nzh and icare = sc.icare and nh = sc.nh in
  let r = ref r0 and k = ref from in
  while !r <> 0 && !k < nh do
    let i = Array.unsafe_get nzh !k in
    let m = Array.unsafe_get icare i in
    let x = (Array.unsafe_get isig i lxor Array.unsafe_get irow (off + i)) land m in
    if x <> 0 then r := !r land lnot eq_bit;
    if x <> m then r := !r land lnot cq_bit;
    incr k
  done;
  !r

(* disagreements of [irow] with [isig] on the care prefix [nzh.(0 .. lp)] *)
let hamming_prefix sc isig lp irow =
  let d = ref 0 in
  for k = 0 to lp - 1 do
    let i = Array.unsafe_get sc.nzh k in
    d :=
      !d
      + popcount62
          ((Array.unsafe_get isig i lxor Array.unsafe_get irow i)
          land Array.unsafe_get sc.icare i)
  done;
  !d

(* Compresses the pool's rows to the care limbs [nzh] into [sc.rows],
   deciding [self2] on the way, and the target's required outputs into
   [f1]/[f0]. *)
let load_pool store sc isig =
  let mp = sc.mp and nh = sc.nh and nzh = sc.nzh and icare = sc.icare in
  for i = 0 to mp.n - 1 do
    let row = Sigstore.irow store mp.ps.(i) and base = i * nh in
    let miss = ref 0 in
    for k = 0 to nh - 1 do
      let h = Array.unsafe_get nzh k in
      let x = Array.unsafe_get row h in
      Array.unsafe_set sc.rows (base + k) x;
      miss := !miss lor ((Array.unsafe_get isig h lxor x) land Array.unsafe_get icare h)
    done;
    sc.self2.(i) <- !miss = 0
  done;
  for k = 0 to nh - 1 do
    let h = nzh.(k) in
    sc.f1.(k) <- isig.(h) land icare.(h);
    sc.f0.(k) <- (isig.(h) lxor Bits.limb_mask) land icare.(h)
  done

let scan_target ~config ~store ~est ~cells ~by_density v sc ti =
  let signals = v.signals in
  let nsig = Array.length signals in
  let compl = v.compl in
  let p_a = v.pos.(ti.a) in
  assert (p_a >= 0);
  (* All hot loops below run on the store's packed rows ([Sigstore.irow]
     / [class_icanon]): 62-bit limbs in native ints, so xor / and /
     popcount never box.  They walk [nzh] — the limb indices whose care
     limb is nonzero, densest care first.  Zero-care limbs cannot
     affect masked equality or Hamming distance, and visiting the
     densest limbs first makes the partial distances (and with them
     the pool's abort bounds) grow as fast as possible.  Any fixed
     order yields the same results, so this is pure speed. *)
  let isig = Sigstore.irow store p_a in
  let care_pop = prepare_care sc ti in
  (* The care prefix both Hash stages read off one lane count, and the
     pool ranks on: the densest care limbs covering at least
     [pool_rank_bits] care positions (all of them when the care set is
     smaller).  [lp] limbs hold [covered] positions, and [covered < 190]:
     it stays below [pool_rank_bits] before the last limb, which adds at
     most 62. *)
  let lp, covered =
    let lp = ref 0 and covered = ref 0 in
    while !covered < min pool_rank_bits care_pop do
      covered := !covered + sc.pcnt.(!lp);
      incr lp
    done;
    (!lp, !covered)
  in
  let mk = sc.mk and ls = sc.ls in
  let circ = Estimator.circuit est in
  let forbidden_signals = mark_cone circ v mk ti.root in
  (* Every substitution against the same stem shares Dom(a); compute it
     at most once per target; [gain_ab] mutates the mask in place and
     restores it before returning. *)
  let dom =
    match ti.target with
    | Subst.Stem _ ->
      Some
        (lazy
          (Circuit.dominated_region_members circ ti.a))
    | Subst.Branch _ -> None
  in
  let margin = 1e-12 in
  (* Upper bound on PG_A against this target, used to skip the full
     [gain_ab] region walk for sources that positive-gain filtering
     would discard anyway.  PG_A for a stem is the power of Dom(a)
     minus the kept source cones plus the boundary relief; every
     subtracted term is non-negative, so full-region power plus a
     relief over-count (every fanin edge into the region, whatever
     drives it) bounds PG_A from above, for any source, since
     [keep_cone] only removes region nodes.  For a branch PG_A is
     exactly [moved * E(old fanin)], source-independent.  PG_B is at
     most [-moved * E(b)] for a [Signal]/[Inverted] source over [b]
     (a new inverter only adds pin and output load; an existing one
     has the same transition density as [b] up to rounding, absorbed
     by the relative slack below), and at most [-(C0 * E(b) + C1 *
     E(d))] for a new gate over [(b, d)] (its output load only
     subtracts more).  So a source can clear the positive-gain margin
     only when that cost stays below the bound — one multiply-compare
     instead of a region walk, and for a new gate no source words.
     The fast path is off when [require_positive] is, since only the
     final filter makes the skip sound. *)
  let pos_bound =
    lazy
      (let dummy = { Subst.target = ti.target; source = Subst.Signal ti.a } in
       let moved = Subst.moved_load circ dummy in
       let pa =
         match ti.target with
         | Subst.Branch _ ->
           moved
           *. Estimator.transition_prob est
                (Subst.substituted_signal circ dummy)
         | Subst.Stem _ ->
           let d, m =
             match dom with Some l -> Lazy.force l | None -> assert false
           in
           let relief_over = ref 0.0 in
           Array.iter
             (fun v ->
               Array.iteri
                 (fun j f ->
                   relief_over :=
                     !relief_over
                     +. Circuit.pin_cap circ
                          { Circuit.sink = v; pin_index = j }
                        *. Estimator.transition_prob est f)
                 (Circuit.fanins circ v))
             m;
           Estimator.region_power_members est d m +. !relief_over
       in
       (moved, (pa *. (1.0 +. 1e-9)) +. 1e-9))
  in
  (* The best [per_target] candidates so far, worst first: the head is
     the one a better candidate evicts, and its gain is the bar every
     further candidate must clear.  Insertion keeps [cand_compare] order
     with a newcomer placed before its equals, as a stable sort of the
     newest-first candidate list would, so the kept set is exactly the
     first [per_target] of that sort. *)
  let k = config.per_target in
  let kept = ref [] and nkept = ref 0 in
  let keep c =
    let rec ins = function
      | x :: rest when cand_compare x c >= 0 -> x :: ins rest
      | l -> c :: l
    in
    if !nkept < k then begin
      kept := ins !kept;
      incr nkept
    end
    else
      match !kept with
      | worst :: _ when cand_compare c worst <= 0 -> kept := List.tl (ins !kept)
      | _ -> ()
  in
  (* total gain of the k-th best candidate, [neg_infinity] until [k] are
     kept *)
  let bar () =
    match !kept with
    | (_, g) :: _ when !nkept >= k -> Subst.total_gain g
    | _ -> Float.neg_infinity
  in
  (* [total_gain <= bound - cost] for a source's PG_B cost [eb] (see
     [pos_bound]): the source is skipped when that bound cannot clear
     the positive-gain margin, or cannot reach the bar and so could only
     land behind [per_target] better candidates.  Monotone in the cost,
     and [bar ()] only rises.  Decided before the substitution is built,
     so a skipped source allocates nothing. *)
  let signal_skipped b =
    config.require_positive
    &&
    let moved, bound = Lazy.force pos_bound in
    let eb = moved *. v.tp.(b) in
    eb >= bound || bound -. eb < bar ()
  in
  let gate_skipped (c : Cell.t) b d =
    config.require_positive
    &&
    let _, bound = Lazy.force pos_bound in
    let eb =
      (c.Cell.pin_caps.(0) *. v.tp.(b)) +. (c.Cell.pin_caps.(1) *. v.tp.(d))
    in
    eb >= bound || bound -. eb < bar ()
  in
  let gain_abs = ref 0 in
  let admit source =
    incr gain_abs;
    let subst = { Subst.target = ti.target; source } in
    let g = Subst.gain_ab ?dom:(Option.map Lazy.force dom) est subst in
    if (not config.require_positive) || Subst.total_gain g > margin then
      keep (subst, g)
  in
  let two_signal_wanted =
    match ti.target with
    | Subst.Stem _ -> List.mem Subst.Os2 config.classes
    | Subst.Branch _ -> List.mem Subst.Is2 config.classes
  in
  let pool_wanted =
    (match ti.target with
    | Subst.Stem _ -> List.mem Subst.Os3 config.classes
    | Subst.Branch _ -> List.mem Subst.Is3 config.classes)
    && Array.length cells > 0 && config.pool_limit > 0
  in
  (* #{p <> p_a : not forbidden}: every store signal, minus the ones in
     the forbidden set, minus [a] itself when it is not already there
     (stems mark themselves forbidden; branch drivers never are). *)
  let n_eligible =
    nsig - forbidden_signals - (if mk.stamp.(ti.a) = mk.epoch then 0 else 1)
  in
  (* Full care: masked equality is exact row equality, so the only
     class that can match (either polarity — classes unify complements)
     is the target's own.  Empty care with [require_positive]: every
     eligible signal matches in both polarities (a flood). *)
  let full_care = care_pop = 64 * Sigstore.words store in
  let flood = care_pop = 0 && config.require_positive in
  let hash = config.index = Hash in
  let nb =
    if hash && ((two_signal_wanted && not (full_care || flood)) || pool_wanted)
    then lane_count ~store ls ~isig ~icare:sc.icare ~nzh:sc.nzh ~lp ~covered
    else 0
  in
  let ti_is3 = ref 0 in
  let hits2 = ref 0 in
  (* The stages below run inline, without spans: [scan_target] may
     execute in a pool task, where an opened span would surface at the
     root of the merged profile tree and make it depend on [--jobs]. *)
  if two_signal_wanted then begin
    let emit p ~direct ~inv =
      let b = Array.unsafe_get signals p in
      if direct then begin
        incr hits2;
        if k > 0 && not (signal_skipped b) then admit (Subst.Signal b)
      end;
      if inv then begin
        incr hits2;
        if k > 0 && not (signal_skipped b) then admit (Subst.Inverted b)
      end
    in
    if not hash then
      (* reference path: test every signal row individually *)
      for p = 0 to nsig - 1 do
        if eligible mk signals p_a p then begin
          let r = eq_and_compl sc isig (eq_bit lor cq_bit) 0 (Sigstore.irow store p) 0 in
          emit p ~direct:(r land eq_bit <> 0) ~inv:(r land cq_bit <> 0)
        end
      done
    else if full_care then begin
      (* every other class is decided without a row test, which is
         what keeps fully observable targets O(|class|) *)
      let tf = compl.(p_a) in
      let members = v.members.(v.cls_of.(p_a)) in
      for j = 0 to Array.length members - 1 do
        let p = members.(j) in
        if eligible mk signals p_a p then begin
          let f = compl.(p) in
          emit p ~direct:(f = tf) ~inv:(f <> tf)
        end
      done
    end
    else if flood then begin
      (* Every hit counts, but a source is only worth a [gain_ab]
         while it clears the skip test, which is monotone in E(b): walk
         the eligible signals by ascending density and stop at the
         first skipped source — every later one is skipped too. *)
      hits2 := 2 * n_eligible;
      let stopped = ref (k <= 0) and i = ref 0 in
      while (not !stopped) && !i < nsig do
        let p = Array.unsafe_get by_density !i in
        if eligible mk signals p_a p then begin
          let b = Array.unsafe_get signals p in
          if signal_skipped b then stopped := true
          else begin
            admit (Subst.Signal b);
            if signal_skipped b then stopped := true else admit (Subst.Inverted b)
          end
        end;
        incr i
      done
    end
    else begin
      (* class path: a class can only match where the lane count
         reads [d = 0] on the prefix (canon agrees everywhere) or
         [d = covered] (canon disagrees everywhere); only those get
         a row test, on the limbs past the prefix *)
      let lv = Sigstore.lanes store in
      let nw = lv.Sigstore.lane_words in
      let flat = Sigstore.icanon_flat store in
      let stride = Sigstore.icanon_stride store in
      for w = 0 to nw - 1 do
        let some = ref 0 and off = ref 0 in
        for j = 0 to nb - 1 do
          let pl = Array.unsafe_get ls.dpl ((j * nw) + w) in
          some := !some lor pl;
          off :=
            !off
            lor if (covered lsr j) land 1 = 1 then pl lxor Bits.limb_mask else pl
        done;
        let valid = lv.Sigstore.plus.(w) lor lv.Sigstore.minus.(w) in
        let zero = valid land lnot !some and full = valid land lnot !off in
        let m = ref (zero lor full) in
        while !m <> 0 do
          let low = !m land (- !m) in
          let c = (62 * w) + bit_index low in
          let r0 =
            (if zero land low <> 0 then eq_bit else 0)
            lor if full land low <> 0 then cq_bit else 0
          in
          let r = eq_and_compl sc isig r0 lp flat (c * stride) in
          if r <> 0 then begin
            let eq = r land eq_bit <> 0 and cq = r land cq_bit <> 0 in
            let members = v.members.(c) in
            for j = 0 to Array.length members - 1 do
              let p = members.(j) in
              if eligible mk signals p_a p then begin
                let f = compl.(p) in
                emit p ~direct:(if f then cq else eq) ~inv:(if f then eq else cq)
              end
            done
          end;
          m := !m lxor low
        done
      done
    end
  end;
  if pool_wanted then begin
    (* pool: the signals closest to [a], by (masked disagreement on
       the care prefix, position).  Preselection is heuristic —
       exact compatibility is still decided on the full care set by
       the pair conflict scan and the ATPG check — and the prefix is
       a pure function of the target, so both index modes and every
       chunking rank identically. *)
    let mp = sc.mp in
    mp.n <- 0;
    if hash then lane_pool ~store v ls mk mp ~p_a ~nb ~covered
    else
      for p = 0 to nsig - 1 do
        if eligible mk signals p_a p then
          minpool_insert mp (hamming_prefix sc isig lp (Sigstore.irow store p)) p
      done;
    load_pool store sc isig;
    let is_branch =
      match ti.target with Subst.Branch _ -> true | Subst.Stem _ -> false
    in
    let is3 = ref 0 in
    (* cell [code] fits a pair whose seen-1 classes are [s1] and
       whose classes holding any care position are [pinned] *)
    let emit_cells x y s1 pinned =
      for c = 0 to Array.length cells - 1 do
        let cell, code = Array.unsafe_get cells c in
        if code land pinned = s1 then begin
          if is_branch then incr is3;
          if k > 0 && not (gate_skipped cell x y) then admit (Subst.Gate2 (cell, x, y))
        end
      done
    in
    (* Conflict scan: a pair (x, y) partitions the care positions
       into the four input classes k = x + 2y.  [seen1]/[seen0]
       record which classes contain a care position where [a] is
       1/0.  A class present on both sides rules out EVERY cell at
       once (no single output bit fits), so the word loop aborts on
       the first conflict; otherwise cell [code] matches exactly
       when it outputs 1 on the seen-1 classes and 0 on the seen-0
       ones: [code land (seen1 lor seen0) = seen1].  This decides
       all cells in one pass over the pair's words.  Each unordered
       pair is scanned once: (y, x) sees the classes of (x, y) with
       inputs exchanged ([swap_inputs]) and conflicts exactly when
       (x, y) does. *)
    let npool = mp.n and nh = sc.nh in
    let rows = sc.rows and f1 = sc.f1 and f0 = sc.f0 in
    let ones = Bits.limb_mask in
    for i = 0 to npool - 2 do
      if not sc.self2.(i) then
        for j = i + 1 to npool - 1 do
          if not sc.self2.(j) then begin
            let bi = i * nh and bj = j * nh in
            let seen1 = ref 0 and seen0 = ref 0 in
            let k = ref 0 in
            while !seen1 land !seen0 = 0 && !k < nh do
              let x = Array.unsafe_get rows (bi + !k)
              and y = Array.unsafe_get rows (bj + !k) in
              let f1w = Array.unsafe_get f1 !k
              and f0w = Array.unsafe_get f0 !k in
              let nx = x lxor ones and ny = y lxor ones in
              let c0 = nx land ny
              and c1 = x land ny
              and c2 = nx land y
              and c3 = x land y in
              let nonz m = if m = 0 then 0 else 1 in
              seen1 :=
                !seen1
                lor nonz (c0 land f1w)
                lor (nonz (c1 land f1w) lsl 1)
                lor (nonz (c2 land f1w) lsl 2)
                lor (nonz (c3 land f1w) lsl 3);
              seen0 :=
                !seen0
                lor nonz (c0 land f0w)
                lor (nonz (c1 land f0w) lsl 1)
                lor (nonz (c2 land f0w) lsl 2)
                lor (nonz (c3 land f0w) lsl 3);
              incr k
            done;
            let s1 = !seen1 and s0 = !seen0 in
            if s1 land s0 = 0 then begin
              let x = signals.(mp.ps.(i)) and y = signals.(mp.ps.(j)) in
              emit_cells x y s1 (s1 lor s0);
              emit_cells y x (swap_inputs s1) (swap_inputs (s1 lor s0))
            end
          end
        done
    done;
    Obs.Metrics.add m_is3_candidates !is3;
    ti_is3 := !is3
  end;
  let best = List.rev !kept in
  let filtered =
    if two_signal_wanted then max 0 ((2 * n_eligible) - !hits2) else 0
  in
  Obs.Metrics.add m_sig_hits !hits2;
  Obs.Metrics.add m_sig_filtered filtered;
  Obs.Metrics.add m_gain_ab !gain_abs;
  ( best,
    { pairs_hit = !hits2; pairs_filtered = filtered; is3_candidates = !ti_is3 } )

(* Test-only: every generate also rescans its targets in reverse order
   through one scratch, and each through a fresh one, and fails unless
   every target's list and stats are the ones the run computed.  A read
   of something an earlier target left in the scratch shows up as a
   difference. *)
let scratch_isolation_check = Atomic.make false
let check_scratch_isolation b = Atomic.set scratch_isolation_check b

let check_isolation ~scan ~fresh targets results =
  let n = Array.length targets in
  let reversed = Array.make n ([], zero_stats) in
  let sc = fresh () in
  for i = n - 1 downto 0 do
    reversed.(i) <- scan sc targets.(i)
  done;
  Array.iteri
    (fun i t ->
      let differs how = function
        | r when r = results.(i) -> ()
        | _ ->
          let kind, x, y = target_key t.target in
          failwith
            (Printf.sprintf
               "Candidates: target (%d, %d, %d) scans differently with %s" kind x y how)
      in
      differs "reversed scratch reuse" reversed.(i);
      differs "fresh scratch" (scan (fresh ()) t))
    targets

let generate_stats ?(config = default_config) ?pool ?store
    ?(deadline = Obs.Deadline.never) est =
  let circ = Estimator.circuit est in
  let eng = Estimator.engine est in
  let store =
    match store with
    | Some s ->
      Sigstore.sync s;
      s
    | None ->
      (* transient store over the estimator's engine only: same scan
         semantics, no counterexample folding *)
      let s = Sigstore.create ~base:eng () in
      Sigstore.rebuild s;
      s
  in
  let want k = List.mem k config.classes in
  (* every 2-input cell with its truth table as a 4-bit code, bit
     [x + 2y] the output on inputs [(x, y)] *)
  let cells =
    Array.of_list
      (List.map
         (fun (cell : Cell.t) ->
           (cell, Int64.to_int (Logic.Tt.word cell.Cell.func) land 0xF))
         (Library.two_input_cells (Circuit.library circ)))
  in
  let stems = want Subst.Os2 || want Subst.Os3 in
  let branches = want Subst.Is2 || want Subst.Is3 in
  let targets =
    Obs.Trace.with_span span_targets (fun () ->
        (* the observability table holds every stem row and feeds every
           branch row, so it is built under the stem span either way *)
        let stem_ts =
          Obs.Trace.with_span span_targets_stem (fun () ->
              if stems || branches then Sigstore.compute_care store;
              if stems then stem_targets circ store else [])
        in
        stem_ts
        @
        if branches then
          Obs.Trace.with_span span_targets_branch (fun () ->
              branch_targets circ store)
        else [])
  in
  let targets = Array.of_list targets in
  (* store positions by ascending transition density, ties by position:
     the order flood targets walk (see [scan_target]) *)
  let v = view_create circ store est in
  let by_density =
    if config.index = Hash && config.require_positive then begin
      let e = Array.map (fun id -> v.tp.(id)) v.signals in
      let order = Array.init (Array.length e) Fun.id in
      Array.stable_sort (fun p q -> Float.compare e.(p) e.(q)) order;
      order
    end
    else [||]
  in
  (* the deadline is polled once per target: an expired budget skips
     the rest of the scan, so it overshoots by at most one target *)
  let scan sc t = scan_target ~config ~store ~est ~cells ~by_density v sc t in
  (* every care row is a packed row of the store's width *)
  let limbs = if Array.length targets = 0 then 0 else Array.length targets.(0).care in
  let fresh_scratch () = scratch_create ~config ~limbs circ store in
  let scan_chunk c =
    let sc = fresh_scratch () in
    Array.map
      (fun t ->
        if Obs.Deadline.expired deadline then ([], zero_stats) else scan sc t)
      c
  in
  let results =
    Obs.Trace.with_span span_scan (fun () ->
    (* the lane view is built here, on the caller's domain, and only
       read by the scans *)
    if config.index = Hash then Sigstore.compute_lanes store;
    match pool with
    | Some p
      when Par.Pool.jobs p > 1
           && Array.length targets > 1
           && not (Par.Pool.in_task ()) ->
      (* pre-warm the lazily memoized traversal order: worker tasks
         read the circuit concurrently and must not race on the cache *)
      ignore (Circuit.topo_order circ);
      let jobs = Par.Pool.jobs p in
      let chunk = max 1 (Array.length targets / (4 * jobs)) in
      let nchunks = (Array.length targets + chunk - 1) / chunk in
      let chunks =
        Array.init nchunks (fun k ->
            let lo = k * chunk in
            Array.sub targets lo (min chunk (Array.length targets - lo)))
      in
      let per_chunk =
        Par.Pool.map p ~f:scan_chunk chunks
      in
      Array.concat
        (Array.to_list
           (Array.map (function Some r -> r | None -> [||]) per_chunk))
    | _ -> scan_chunk targets)
  in
  if Atomic.get scratch_isolation_check && not (Obs.Deadline.expired deadline)
  then check_isolation ~scan ~fresh:fresh_scratch targets results;
  let stats =
    Array.fold_left (fun s (_, st) -> add_stats s st) zero_stats results
  in
  let all =
    Array.fold_left (fun l (best, _) -> List.rev_append best l) [] results
  in
  let sorted =
    Obs.Trace.with_span span_select (fun () -> List.sort cand_compare all)
  in
  (sorted, stats)

let generate ?config ?pool ?store est = fst (generate_stats ?config ?pool ?store est)
