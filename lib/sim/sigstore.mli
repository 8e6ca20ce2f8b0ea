(** Signature store: per-node simulation signatures with a hash index
    of complement-canonical compatibility classes.

    The store snapshots, for every live signal node, a row of
    signature words: the base engine's Monte-Carlo pattern words
    followed by the counterexample engine's words — so every
    counterexample the exact checker ever produced is folded into the
    signature a candidate must match on, and a refuted pair can never
    re-enter the funnel (its distinguishing pattern now splits the
    signatures).  Rows are grouped into {e classes} of signals whose
    signatures are equal up to complement, via a hash index keyed on
    the polarity-canonical signature: class lookup is O(1) amortized,
    and a candidate scan that decides per class instead of per signal
    skips every duplicate/inverter-image signal for free.

    {b Maintenance.} The store is a snapshot: engine updates do not
    flow in automatically.  After an accepted substitution (both
    engines already re-simulated) call {!update_after_edit}: it only
    marks the edit's transitive fanout stale.  After a counterexample
    injection (which rewrites pattern columns globally) call
    {!invalidate}.  Then call {!sync} before the next read: after
    edits alone it re-copies the marked rows and re-interns the class
    index once, however many edits there were; after an invalidation
    it rebuilds every row.  {!sync} is a no-op when clean.  Until then
    the class structure is stale, and {!signals}, {!num_classes},
    {!compute_care} and {!compute_lanes} raise [Invalid_argument]
    rather than read it.

    {b Determinism.} All orders are structural: signals ascend by node
    id, class members ascend by position, and class identity is a pure
    function of signature content — so any two stores built over equal
    engine states are observably identical, independent of job count. *)

type t

val create : ?cex:Engine.t -> base:Engine.t -> unit -> t
(** A new (dirty) store over the given engines; call {!sync} before
    reading.  Both engines must simulate the same circuit.
    @raise Invalid_argument otherwise. *)

val base_engine : t -> Engine.t
val cex_engine : t -> Engine.t option
val circuit : t -> Netlist.Circuit.t

val words : t -> int
(** Row width: base words + counterexample words. *)

val rebuild : t -> unit
(** Re-snapshot every row and re-intern all classes. *)

val invalidate : t -> unit
(** Mark stale (e.g. after counterexample injection); the next {!sync}
    rebuilds. *)

val sync : t -> unit
(** Rebuild after {!invalidate} (or on a new store); else re-snapshot
    the rows marked by pending {!update_after_edit}s, in one resync;
    no-op otherwise.  Only full rebuilds count on
    [sig/store.rebuilds]. *)

val update_after_edit : t -> Netlist.Circuit.node_id -> unit
(** Record an accepted substitution rooted at the given node, after
    both engines were re-simulated: the node and its transitive fanout
    in the edited circuit are marked stale, and the observability
    table and lane view are dropped.  Nothing is re-snapshot until
    {!sync}, which recomputes membership and re-snapshots only the
    marked rows plus any new nodes — exactly what one resync per edit
    would give, since a resync reads only the engines' current state
    and interns classes in position order.  A no-op on an invalidated
    store, whose {!sync} rebuilds everything anyway. *)

(** {2 Read side} — valid only after {!sync}, until the next
    maintenance call. *)

val signals : t -> Netlist.Circuit.node_id array
(** Live signal nodes (PIs and cells), ascending by id.  Positions
    into this array index {!row}, {!class_of}, {!complemented}.
    @raise Invalid_argument on a store with maintenance not yet
    {!sync}ed (so does {!num_classes}). *)

val num_signals : t -> int

val position : t -> Netlist.Circuit.node_id -> int
(** Position of a node in {!signals}, or -1. *)

val row : t -> int -> int64 array
(** Signature row by position (shared array; do not mutate). *)

val irow : t -> int -> int array
(** {!row} packed into 62-bit limbs ({!Logic.Bits.pack_words}):
    unboxed-int mirror for the scan hot loops. *)

val num_classes : t -> int

val class_canon : t -> int -> int64 array
(** Polarity-canonical signature of a class (bit 0 of word 0 is 0). *)

val class_icanon : t -> int -> int array
(** {!class_canon} packed into 62-bit limbs. *)

val icanon_flat : t -> int array
(** Every class's packed canon side by side, {!icanon_stride} limbs
    per class: class [c]'s limbs live at [c * stride .. ] — contiguous
    reads for the per-target class sweeps. *)

val icanon_stride : t -> int

val class_members : t -> int -> int array
(** Member positions, ascending. *)

val complemented : t -> bool array
(** Per position: whether the signal is the complement of its class
    canon.  Shared array; do not mutate. *)

val class_of : t -> int -> int

val lookup : t -> int64 array -> (int * bool) option
(** O(1) amortized compatibility-class lookup of an arbitrary
    signature: [(class id, complemented wrt canon)] if some live
    signal carries this signature up to complement.
    @raise Invalid_argument on a width mismatch. *)

(** {2 Observability table}

    One care row per live cell, folded like {!row}: the patterns of the
    base engine, then those of the counterexample engine, on which
    flipping the cell's output flips some primary output.  Every pattern
    is simulated independently, so most rows follow exactly from a local
    rule instead of a re-simulation: a branch into pin [i] of cell [g]
    is observed where flipping pin [i] flips [g] and [g]'s stem is
    observed (everywhere, into a primary output), and a cell with a
    single live fanout branch is observed exactly where that branch is.
    Only cells with two or more live fanouts are flipped and
    re-simulated on the engines. *)

val compute_care : t -> unit
(** Build the table from the engines' current state, in reverse
    topological order.  Perturbs and restores engine state, so call
    it sequentially, never from a pool task.  Every maintenance call
    ({!rebuild}, {!invalidate}, {!update_after_edit}) drops the table.
    @raise Invalid_argument on a store not {!sync}ed since its last
    maintenance call. *)

val stem_obs : t -> Netlist.Circuit.node_id -> int64 array
(** Care row of a live cell's stem (shared array; do not mutate).
    @raise Invalid_argument if the table is not computed or the node
    is not a live cell. *)

val branch_obs : t -> sink:Netlist.Circuit.node_id -> pin:int -> int64 array
(** Care row of the branch into pin [pin] of [sink] (all ones when
    [sink] is a primary output), by the local rule over the table.
    A pure read of the engines and the table: safe from pool tasks.
    @raise Invalid_argument if the table is not computed or [sink] has
    no pins. *)

type branch_buf
(** Workspace of {!packed_branch_obs}; not to be shared between
    domains. *)

val branch_buf : t -> branch_buf

val packed_branch_obs :
  t -> branch_buf -> sink:Netlist.Circuit.node_id -> pin:int -> int array
(** {!branch_obs} packed ({!Logic.Bits.pack_words}), computed in the
    workspace instead of fresh fanin copies. *)

(** {2 Lane view}

    The class canons transposed for bit-sliced scoring: one bit per
    class ({e lane}), 62 lanes per int ({e lane-word}), so a single
    word operation compares a pattern position across 62 classes. *)

type lanes = private {
  lane_words : int;  (** [ceil (num_classes / 62)] *)
  positions : int;  (** packed pattern positions: [62 * icanon_stride] *)
  block : int;  (** ints per lane-word: [2 * positions + 1] *)
  cols : int array;
      (** Lane-word [w]'s block starts at [w * block].  Entry [pos] of
          it has bit [l] set iff the canon of class [62 * w + l] has a
          1 at packed position [pos] (bit [pos mod 62] of limb
          [pos / 62] of {!class_icanon}); entry [positions + pos] is
          its complement over the 62 lanes, so a kernel reads the
          disagreement with a known bit directly; the last entry is 0,
          a padding column for kernels that consume positions in
          fixed-size groups.  Lanes past the last class read 0 in the
          direct half. *)
  plus : int array;
      (** per lane-word: the classes with a member in canon polarity *)
  minus : int array;
      (** per lane-word: the classes with a complemented member.  Every
          class has a member, so [plus lor minus] is exactly the valid
          lanes. *)
}

val compute_lanes : t -> unit
(** Build the view from the current classes, on word operations (32 x 32
    bit-matrix transposes).  A pure function of the store: read-only
    afterwards, so pool tasks may share it.  Every maintenance call
    ({!rebuild}, {!invalidate}, {!update_after_edit}) drops it.
    @raise Invalid_argument on a store not {!sync}ed since its last
    maintenance call. *)

val lanes : t -> lanes
(** @raise Invalid_argument if the view is not computed. *)
