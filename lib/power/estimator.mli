(** Zero-delay power estimation (Section 2 of the paper).

    The cost is the switched capacitance [sum_i C(i) * E(i)] over all
    stem signals [i], with [E(i) = 2 p(i) (1 - p(i))] under temporal
    independence of the primary inputs.  Signal probabilities come from
    the attached simulation engine's current pattern set (Monte-Carlo
    with a deterministic seed, or exhaustive patterns for exactness).
    The physical constant [1/2 Vdd^2 f] is a fixed scale factor and is
    exposed separately. *)

type t

val create : Sim.Engine.t -> t
(** Snapshot transition probabilities from the engine's current values.
    The engine must have been simulated. *)

val engine : t -> Sim.Engine.t
val circuit : t -> Netlist.Circuit.t

val transition_prob : t -> Netlist.Circuit.node_id -> float

val node_power : t -> Netlist.Circuit.node_id -> float
(** [C(i) * E(i)] of one stem; 0 for PO nodes and dead nodes. *)

val total : t -> float
(** Circuit switched capacitance (the paper's "power" column).

    Maintained incrementally: the per-node terms are summed by a
    fixed-association pairwise tree, and each call first folds the
    circuit's edit-log suffix (see {!Netlist.Circuit.edits_since}) into
    the affected leaves, so the cost is O(edits since the last call),
    not O(netlist).  The fixed association makes the result bit-equal
    to a from-scratch estimator on the same engine state, regardless of
    the edit history. *)

val watts : ?vdd:float -> ?freq:float -> t -> float
(** [1/2 Vdd^2 f * total]; defaults Vdd = 3.3, f = 20 MHz. *)

val refresh_all : t -> unit
(** Recompute all probabilities from current engine values. *)

val update_after_edit : t -> Netlist.Circuit.node_id -> int
(** After a structural edit whose functional effect starts at node [s]:
    incrementally re-simulate from [s] (levelized, change-pruned — see
    {!Sim.Engine.resim_after_edit}) and refresh the probabilities of
    the nodes whose words changed (the paper's
    [power_estimate_update]).  Returns the number of nodes the engine
    re-evaluated. *)

val transition_of_ones : int -> total_patterns:int -> float
(** Transition probability a signature with that many set bits (of
    [total_patterns]) implies. *)

val region_power : t -> bool array -> int array -> float
(** [region_power t region members]: summed [C * E] of the stems of a
    node mask, the first term of [PG_A] (Equation 3).  [members] lists
    every node of the mask in ascending id order (as
    {!Netlist.Circuit.with_dominated_region} hands them out); entries
    the mask has cleared are skipped.  The sum runs in ascending id
    order, so it is bit-equal to a whole-circuit scan of the mask. *)

val region_input_relief : t -> bool array -> int array -> float
(** Second term of [PG_A]: [sum_{i in inputs(Dom)} C'(i) * E(i)], where
    [C'(i)] is the part of [i]'s load presented by pins inside the
    region.  The inputs are the members' fanins outside the mask,
    summed in ascending id order, and each [C'(i)] over [i]'s fanout
    pins in {!Netlist.Circuit.fanouts} order: the floats of a
    whole-circuit scan.  Same [members] contract as {!region_power}.
    The inputs are gathered in a per-domain buffer, not a list. *)
