(** Tseitin encoding of mapped netlists into CNF, and SAT-backed
    justification — the engine behind the permissibility check for
    circuits too wide for exhaustive simulation. *)

type outcome =
  | Justified of (Netlist.Circuit.node_id * bool) list
      (** PI assignment setting the target to 1 *)
  | Impossible  (** the target is constant 0 *)
  | Gave_up of Sat.give_up  (** which SAT limit fired *)

type view = {
  num_ids : int;  (** every id the view can name is below this *)
  kind : Netlist.Circuit.node_id -> Netlist.Circuit.kind;
}
(** A netlist as the encoder reads it: a node's kind by id.  A circuit
    is one ({!view_of}); so is a circuit with extra nodes overlaid on
    ids past its end, which is how the permissibility check builds its
    miter without copying the circuit. *)

val view_of : Netlist.Circuit.t -> view

val cone : view -> Netlist.Circuit.node_id -> Netlist.Circuit.node_id array
(** The node and its transitive fanin, in ascending id order. *)

val clauses :
  view ->
  Netlist.Circuit.node_id array ->
  int array list * (Netlist.Circuit.node_id -> int) * int
(** [clauses v cone]: the Tseitin clauses of a fanin-closed cone given
    in ascending id order, the variable of each node (-1 outside the
    cone) and the variable count.  Variables follow the cone order and
    the clause list runs from the last node back to the first; the
    solver's search is a function of both, so they are fixed. *)

val justify :
  ?conflict_limit:int ->
  ?deadline:Obs.Deadline.t ->
  ?on_stall:(unit -> bool) ->
  view ->
  cone:Netlist.Circuit.node_id array ->
  pis:Netlist.Circuit.node_id list ->
  Netlist.Circuit.node_id ->
  outcome
(** Justify [target] to 1 over its [cone] (from {!cone}).  The model is
    reported over those of [pis] in the cone; [on_stall] is passed to
    {!Sat.solve}. *)

val justify_one :
  ?conflict_limit:int ->
  ?deadline:Obs.Deadline.t ->
  Netlist.Circuit.t ->
  Netlist.Circuit.node_id ->
  outcome
