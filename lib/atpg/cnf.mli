(** Tseitin encoding of mapped netlists into CNF, and SAT-backed
    justification — the engine behind the permissibility check for
    circuits too wide for exhaustive simulation. *)

type outcome =
  | Justified of (Netlist.Circuit.node_id * bool) list
      (** PI assignment setting the target to 1 *)
  | Impossible  (** the target is constant 0 *)
  | Gave_up of Sat.give_up  (** which SAT limit fired *)

val justify_one :
  ?conflict_limit:int ->
  ?deadline:Obs.Deadline.t ->
  Netlist.Circuit.t ->
  Netlist.Circuit.node_id ->
  outcome

