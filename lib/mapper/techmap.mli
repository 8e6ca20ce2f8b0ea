(** Technology mapping: AIG to mapped netlist over a gate library.

    Cut-based covering: enumerate k-feasible cuts per AND node, match
    each cut function (and its complement) against library cells under
    input permutation, then select covers by dynamic programming over
    both output phases with inverter conversion.  A structural fallback
    (AND2/NAND2 + inverters) guarantees totality for any library that
    contains an inverter and a 2-input AND or NAND.

    Objectives:
    - [Area]: classic area flow (leaf costs shared by fanout count);
    - [Power]: switched-capacitance flow — each cell pin costs
      [pin_cap * E(leaf)] with signal probabilities propagated through
      the AIG under the input-independence approximation, mirroring the
      power-oriented mapping the paper's initial circuits came from. *)

type objective = Area | Power

val map :
  ?objective:objective ->
  ?cut_size:int ->
  ?cuts_per_node:int ->
  ?input_prob:(string -> float) ->
  Gatelib.Library.t ->
  Aig.Graph.t ->
  Netlist.Circuit.t
(** Defaults: [objective = Power], [cut_size = 4], [cuts_per_node = 8],
    [input_prob _ = 0.5].  PI and PO names carry over from the AIG.
    Every call bumps the {!Obs.Metrics} counter [mapper.maps].
    @raise Invalid_argument if the library lacks an inverter or any
    2-input AND/NAND cell. *)
