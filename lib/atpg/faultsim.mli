(** Bit-parallel single-stuck-at fault simulation over the pattern set
    held by a {!Sim.Engine.t}.  The candidate-generation machinery of
    POWDER reuses the same flip-and-resimulate core (via the engine's
    observability masks); this module exposes classic fault-grading on
    top of it. *)

val detects : Sim.Engine.t -> Fault.t -> bool

type coverage = {
  total : int;
  detected : int;
  undetected : Fault.t list;
}

val grade : Sim.Engine.t -> Fault.t list -> coverage

val random_coverage :
  Netlist.Circuit.t -> patterns:int -> seed:int64 -> coverage
(** Convenience: simulate [patterns] random vectors and grade the full
    fault list of the circuit. *)
