(** Mapped combinational netlists.

    A circuit is a DAG of nodes: primary inputs, constant drivers,
    library-cell instances, and primary outputs.  Every non-PO node
    drives a {e stem} signal named after the node; each connection of
    that stem to a sink pin is a {e branch} (identified by the sink node
    and its pin index — a PO counts as a 1-pin sink).

    The structure is mutable: the POWDER optimizer edits it in place
    ([set_fanin], [replace_stem], [add_cell], [sweep]).  Node ids are
    stable; deleted nodes stay allocated but [is_live] turns false. *)

type t
type node_id = int

type kind =
  | Pi
  | Const of bool
  | Cell of Gatelib.Cell.t * node_id array  (** fanins, by pin index *)
  | Po of node_id                           (** driver *)

type pin = { sink : node_id; pin_index : int }

(** {1 Construction} *)

val create : Gatelib.Library.t -> t
val library : t -> Gatelib.Library.t

val add_pi : t -> name:string -> node_id
val add_const : t -> ?name:string -> bool -> node_id
val add_cell : t -> ?name:string -> Gatelib.Cell.t -> node_id array -> node_id
val add_po : t -> name:string -> node_id -> node_id

val clone : t -> t
(** Deep copy sharing only the library and cells. *)

(** {1 Access} *)

val num_nodes : t -> int
(** Allocated node count (live and dead); valid ids are [0 .. num_nodes-1]. *)

val pis : t -> node_id list
val pos : t -> node_id list
val kind : t -> node_id -> kind
val name : t -> node_id -> string
val find_by_name : t -> string -> node_id option
val is_live : t -> node_id -> bool
val fanins : t -> node_id -> node_id array
(** Fanins of a cell ([[||]] for PI/Const, singleton for PO). *)

val fanouts : t -> node_id -> pin list
val num_fanouts : t -> node_id -> int
val cell_of : t -> node_id -> Gatelib.Cell.t
(** @raise Invalid_argument if the node is not a cell. *)

val po_driver : t -> node_id -> node_id
(** @raise Invalid_argument if the node is not a PO. *)

val is_po_node : t -> node_id -> bool
val drives_po : t -> node_id -> bool

val iter_live : t -> (node_id -> unit) -> unit
val live_gates : t -> node_id list
(** Live cell nodes only. *)

(** {1 Structure} *)

val topo_order : t -> node_id array
(** Live non-PO nodes in topological order (fanins first), PIs and
    constants included; POs excluded. *)

val tfo : t -> node_id -> bool array
(** [tfo c s] marks every live node in the transitive fanout of [s]
    (excluding [s] itself, including PO nodes). *)

val tfi : t -> node_id -> bool array
(** Transitive fanin of [s], excluding [s]. *)

val reaches : t -> node_id -> node_id -> bool
(** [reaches c a b]: is there a directed path from [a] to [b]? (true if
    [a = b]).  Costs O(cone) with a current {!topo_order} memo (nodes
    ordered after [b] are never expanded) and never computes the memo
    itself, so it is safe from pool tasks; callers that issue many
    queries warm the memo once with {!topo_order}. *)

val dominated_region : t -> node_id -> bool array
(** [Dom(s)]: nodes all of whose paths to any PO pass through [s];
    includes [s].  Per the paper's Section 2.  A fresh O(circuit) copy
    of the mask {!with_dominated_region} walks (so it raises where that
    does); per-stem callers use {!with_dominated_region}. *)

val with_dominated_region :
  t -> node_id -> ((unit -> bool array * node_id array) -> 'a) -> 'a
(** [with_dominated_region t s f] runs [f region].  The first
    [region ()] walks [Dom(s)] (ascending ids) and sets the
    members' entries of a mask kept per domain, all false between
    calls; every call returns that mask and the members, ascending.
    When [f] returns or raises, the members' entries are cleared again,
    so a stem costs O(|Dom(s)|), never an O(circuit) mask.  The mask is
    valid only inside [f]; [f] may clear and restore member entries
    ([Subst.gain_ab] does) but must set no other entry.  Do not
    edit the circuit inside [f].
    @raise Invalid_argument on a nested call on the same domain. *)

(** {1 Edits} *)

val set_fanin : t -> node_id -> int -> node_id -> unit
(** [set_fanin c sink pin b] reconnects pin [pin] of [sink] to driver
    [b], updating fanout lists.  This is the IS2 edit.
    @raise Invalid_argument on arity violation or if it would create a
    cycle; a rejected edit leaves the circuit, its edit log and its
    {!topo_order} memo untouched. *)

val replace_stem : t -> node_id -> node_id -> unit
(** [replace_stem c a b] moves every fanout of [a] to [b] (the OS2
    edit).  [a] keeps its fanins but loses all fanouts.
    @raise Invalid_argument if a cycle would result or [a = b]; as with
    {!set_fanin}, a rejected edit changes nothing. *)

val set_cell : t -> node_id -> Gatelib.Cell.t -> unit
(** Swap the library cell of a gate for another of the same arity
    (fanins and fanouts are preserved) — the gate-resizing edit.
    @raise Invalid_argument on arity mismatch or non-cell nodes. *)

val sweep : t -> node_id list
(** Kill every non-PO-driving node with no fanouts, transitively;
    returns the list of killed node ids. *)

(** {1 Transactions}

    An undo journal turns a group of edits into a transaction: open it
    with {!journal_begin}, apply any sequence of [set_fanin] /
    [replace_stem] / [set_cell] / [add_cell] / [sweep] edits, then
    either {!journal_commit} (keep them, drop the journal) or
    {!journal_rollback} (replay inverse edits in reverse order).
    Rollback also restores the fresh-name counter, so a rolled-back
    transaction leaves no trace in future generated names.  One caveat:
    positions inside fanout pin lists are restored up to membership, not
    byte-identical order (order there is not semantically meaningful).
    Journals do not nest. *)

val journal_begin : t -> unit
(** @raise Invalid_argument if a journal is already open. *)

val journal_active : t -> bool

val journal_commit : t -> unit
(** Accept all edits since {!journal_begin} and close the journal.
    @raise Invalid_argument if no journal is open. *)

val journal_rollback : t -> unit
(** Undo all edits since {!journal_begin} and close the journal.
    @raise Invalid_argument if no journal is open. *)

val overwrite : t -> t -> unit
(** [overwrite dst src] makes [dst] structurally identical to [src] by
    blitting [src]'s state into [dst] in place, so existing handles on
    [dst] observe the new contents.  [src] must not be used afterwards
    (the two would share mutable state).  Both circuits must share the
    same library value.
    @raise Invalid_argument if [dst] has an open journal or the
    libraries differ. *)

(** {1 Edit log}

    Every structural mutation ([set_fanin], [replace_stem], [set_cell],
    [add_cell], [add_po], [sweep], journal rollback, …) appends to a
    per-circuit edit log the ids of the nodes whose {e local} derived
    quantities — fanins, fanout load, cell parameters, liveness — may
    have changed.  Incremental consumers (STA, the power estimator) hold
    a cursor and pull the suffix after each edit burst instead of
    rescanning the netlist.  The log is a conservative superset: an id
    may appear more than once, and a logged node whose values turn out
    unchanged is harmless. *)

type edit_cursor

val edit_cursor : t -> edit_cursor
(** Position at the current end of the edit log. *)

val edits_since : t -> edit_cursor -> node_id list option
(** Node ids logged since the cursor was taken (oldest first, possibly
    with duplicates; ids may be dead or — after a rolled-back alloc —
    out of range).  [None] means the log was invalidated by a wholesale
    {!overwrite}: the consumer must recompute from scratch and take a
    fresh cursor. *)

val would_cycle_stem : t -> node_id -> node_id -> bool
(** Would [replace_stem a b] create a cycle? *)

val would_cycle_pin : t -> node_id -> int -> node_id -> bool
(** Would [set_fanin sink pin b] create a cycle? *)

(** {1 Metrics and checks} *)

val area : t -> float
(** Total area of live cells. *)

val gate_count : t -> int

val load_of : t -> node_id -> float
(** Capacitive load on the stem of [s]: sum of sink pin capacitances,
    plus {!Gatelib.Library.default_po_load} per PO sink, plus the
    driver's own output capacitance. *)

val pin_cap : t -> pin -> float
(** Capacitance of one branch. *)

val validate : t -> (unit, string) result
(** Structural invariants: fanin/fanout consistency, acyclicity,
    arities, liveness of referenced nodes. *)

val pp : Format.formatter -> t -> unit
val pp_stats : Format.formatter -> t -> unit
