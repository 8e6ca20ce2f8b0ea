(** Static timing analysis with the paper's linear delay model:
    [D(s) = tau(s) + C(s) * R(s)] per gate, arrival/required times per
    signal, circuit delay = latest primary-output arrival.

    An analysis is a snapshot; re-run {!analyze} after structural
    edits.  The POWDER delay-legality check for a candidate
    substitution uses the snapshot plus the incremental load rules of
    Section 3.4 (see {!Powder}). *)

type t

val gate_delay : Netlist.Circuit.t -> Netlist.Circuit.node_id -> float
(** Delay through a node with its current load (0 for PI/Const/PO). *)

val delay_with_load : Netlist.Circuit.t -> Netlist.Circuit.node_id -> float -> float
(** Delay through a node if its load were the given value. *)

val analyze : ?required_time:float -> Netlist.Circuit.t -> t
(** Compute arrival times; [required_time] (default: the computed
    circuit delay) is imposed on every primary output and propagated
    backwards. *)

val update :
  ?required_time:float -> t -> dirty:Netlist.Circuit.node_id list -> t
(** [update ?required_time t ~dirty] re-analyzes incrementally after
    structural edits: [dirty] must cover every node id the circuit's
    edit log recorded since [t] was produced
    (see {!Netlist.Circuit.edits_since}), and [required_time] must be
    the same constraint option passed to the original {!analyze}.  Only
    the affected cone is recomputed (change-pruned forward and backward
    sweeps); the result is bit-equal over live nodes to a from-scratch
    [analyze ?required_time] on the edited circuit.  In unconstrained
    mode a bitwise change of the circuit delay moves the implicit PO
    deadline, forcing one full (but cheap) backward pass.  Dead nodes
    retain stale entries. *)

val circuit : t -> Netlist.Circuit.t
val arrival : t -> Netlist.Circuit.node_id -> float
val required : t -> Netlist.Circuit.node_id -> float
(** [infinity] for nodes with no path to a PO. *)

val slack : t -> Netlist.Circuit.node_id -> float
val circuit_delay : t -> float
val required_time : t -> float

val critical_path : t -> Netlist.Circuit.node_id list
(** One latest-arrival path, inputs first, ending at a PO driver. *)
