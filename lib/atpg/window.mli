(** Cut-based local verification windows.

    A window is a small region of the netlist around a candidate edit:
    the truncated transitive fanout of the edit's entry points plus a
    greedily grown slice of shared fanin logic, bounded by a {e cut} of
    at most [max_cut]-ish signals that become free inputs.  This module
    only selects the region; [Powder.Check.windowed] builds the miter
    over it and proves it.  Proving inside the window that every
    {e escape} — a changed signal with a fanout leaving the window —
    keeps its value under all cut assignments is sound for global
    equivalence: the cut inputs are free (a superset of their reachable
    behaviour) and any real difference would have to cross a silent
    escape.  A window counterexample is {e not} a sound refutation (the
    cut assignment may be unreachable, the boundary difference
    unobservable), so callers must escalate it to a global check. *)

type t = {
  internal : (Netlist.Circuit.node_id, unit) Hashtbl.t;
      (** window membership *)
  changed : (Netlist.Circuit.node_id, unit) Hashtbl.t;
      (** internal nodes downstream of the edit (to be duplicated) *)
  order : Netlist.Circuit.node_id array;
      (** internal nodes, fanins first *)
  cut : Netlist.Circuit.node_id array;
      (** window inputs, ascending ids; every internal fanin is
          internal or in the cut *)
  escapes : Netlist.Circuit.node_id array;
      (** changed nodes with a fanout outside the window (POs count),
          ascending ids *)
}

val is_internal : t -> Netlist.Circuit.node_id -> bool
val is_changed : t -> Netlist.Circuit.node_id -> bool
val cut_size : t -> int

val extract :
  Netlist.Circuit.t ->
  roots:Netlist.Circuit.node_id list ->
  support:Netlist.Circuit.node_id list ->
  max_cut:int ->
  max_volume:int ->
  t option
(** [extract circ ~roots ~support ~max_cut ~max_volume] builds the
    window: truncated TFO of [roots] (live cells; roots are always
    admitted), then greedy lowest-id-first fanin growth while the cut
    stays within [max_cut] and the volume within [max_volume].
    [support] signals (the substitution's source operands and target)
    are guaranteed an image in the window (cut or internal).  Returns
    [None] — escalate to a global check — when the final cut exceeds
    [2 * max_cut].  Deterministic for a given circuit state. *)
