(** Permissible-substitution descriptions (Definitions 1 and 2 of the
    paper), their power-gain analysis (Section 3.3), their delay
    legality (Section 3.4) and their application to the netlist.

    A substitution replaces a {e target} — a stem (all fanouts of a
    signal, OS-class) or a single branch (one fanout pin, IS-class) —
    by a {e source}: an existing signal (2-signal classes), an existing
    signal inverted through a new/reused inverter (still 2-signal per
    Definition 1), or the output of a new two-input library gate
    (3-signal classes, Definition 2). *)

type target =
  | Stem of Netlist.Circuit.node_id
  | Branch of { sink : Netlist.Circuit.node_id; pin : int }

type source =
  | Signal of Netlist.Circuit.node_id
  | Inverted of Netlist.Circuit.node_id
  | Gate2 of Gatelib.Cell.t * Netlist.Circuit.node_id * Netlist.Circuit.node_id

type t = { target : target; source : source }

type klass = Os2 | Is2 | Os3 | Is3

val klass : t -> klass
val klass_name : klass -> string
val all_klasses : klass list

val klass_of_name : string -> klass option
(** Inverse of {!klass_name}, case-insensitive: ["os2"] and ["OS2"]
    both name [Os2]. *)

val substituted_signal : Netlist.Circuit.t -> t -> Netlist.Circuit.node_id
(** The signal being replaced: the stem itself, or the driver of the
    branch pin. *)

val moved_load : Netlist.Circuit.t -> t -> float
(** Capacitance that changes driver: full stem fanout load (without the
    driver's own output capacitance) for OS, one pin for IS. *)

val describe : Netlist.Circuit.t -> t -> string

(** {1 Source realization}

    How the source side will actually be built: an existing signal
    (including a reused inverter already hanging off the signal), a new
    inverter, or a new two-input gate. *)

type plan =
  | P_existing of Netlist.Circuit.node_id
  | P_new_inv of Netlist.Circuit.node_id
  | P_new_gate of Gatelib.Cell.t * Netlist.Circuit.node_id * Netlist.Circuit.node_id

val plan_of : Netlist.Circuit.t -> t -> plan

val trial : t -> Netlist.Circuit.node_id * (Sim.Engine.t -> unit)
(** For {!Sim.Engine.with_perturbation}: the row to save first and the
    perturbation that makes the target carry the source's values under
    the engine's current patterns, evaluated from the engine's rows in
    place. *)

(** {1 Power gain (Section 3.3)} *)

type gain = {
  pg_a : float;  (** removal of the dominated region; always >= 0 *)
  pg_b : float;  (** new fanout load on the source; always <= 0 *)
  pg_c : float;  (** transition-probability change in the TFO *)
}

val total_gain : gain -> float

val gain_ab :
  ?dom:bool array * int array ->
  Power.Estimator.t ->
  t ->
  gain
(** The cheap part: [pg_a] and [pg_b] only ([pg_c = 0]); no
    re-estimation (the paper's pre-selection metric).  [?dom], when
    given for a stem target, must be [Circuit.dominated_region] of the
    target stem together with its member ids in ascending order (the
    pair {!Netlist.Circuit.with_dominated_region} hands out) — callers
    scoring many substitutions against the same stem compute both once
    and pass them here.  The function clears the surviving source
    cones' entries in place and sets every member's entry again before
    it returns, so the members must be exactly the mask's set entries.
    Without [?dom] a stem's region is walked under
    {!Netlist.Circuit.with_dominated_region}, so a caller holding that
    region must pass it. *)

val gain_full : Power.Estimator.t -> t -> gain
(** Adds [pg_c] by re-simulating the target's transitive fanout under
    the substituted values (engine state is restored). *)

(** {1 Delay legality (Section 3.4)} *)

val delay_ok : Sta.Timing.t -> t -> bool
(** True when the substitution provably cannot push any path beyond the
    analysis' required time: source arrival (including a new gate's
    delay and the extra load placed on its inputs) must meet the
    target's required time, and every loaded signal must have enough
    slack for its load increase. *)

(** {1 Structure} *)

val creates_cycle : Netlist.Circuit.t -> t -> bool

val apply : Netlist.Circuit.t -> t -> Netlist.Circuit.node_id
(** Perform the substitution (inserting inverter/gate as needed), sweep
    the dead logic, and return the node from which simulation values
    must be refreshed (the source signal's node).
    @raise Invalid_argument if the edit would create a cycle. *)

val apply_to_clone : Netlist.Circuit.t -> t -> Netlist.Circuit.t
(** Clone the circuit and apply there — used for the ATPG check. *)
