(** Seeded random mapped-netlist generation for the fuzz harness.

    A case starts from a {!Circuits.Generators.multilevel} AIG mapped
    through {!Mapper.Techmap}, then applies a seeded sequence of
    {e function-preserving} structural mutations that push the netlist
    into shapes the benchmark suite never produces: split fanouts,
    double-inverter chains, constant cones merged through identity
    gates, and artificial high-fanout stems.  Because every mutation
    preserves the I/O function, [generate spec] must stay equivalent to
    [base spec] — itself a checked property of the harness. *)

type mutation =
  | Fanout_split      (** duplicate a gate and move half its fanout pins *)
  | Inverter_chain    (** reroute one branch through [inv (inv s)] *)
  | Constant_cone     (** grow a cone over constants, merge via an
                          identity gate ([or2(s,0)] / [and2(s,1)]) *)
  | High_fanout_stem  (** AND a tautology [or2(s, inv s)] into several
                          branches, manufacturing a wide stem *)

val all_mutations : mutation list
val mutation_name : mutation -> string

type family =
  | Multilevel   (** random multi-level SOP network *)
  | Two_level    (** random PLA (shared cube pool) *)
  | Symmetric    (** rd-style weight counters — heavily aliasing-prone
                     under short signatures, which is what flushes out
                     wrong permissibility verdicts *)
  | Arithmetic   (** comparator / multiplier *)

type spec = {
  seed : int64;       (** the case seed every other field derives from *)
  family : family;
  ins : int;
  outs : int;
  layers : int;
  per_layer : int;
  fanin : int;
  objective : Mapper.Techmap.objective;
  mutations : mutation list;  (** applied in order *)
}

val spec_of_seed : ?max_ins:int -> int64 -> spec
(** Derive a full case description from one seed (via domain-separated
    {!Sim.Rng.derive} streams).  [max_ins] (default 10) bounds the PI
    count so exhaustive equivalence stays affordable; the floor is 4. *)

val base : spec -> Netlist.Circuit.t
(** The mapped circuit before any mutation.  Deterministic. *)

val mutate : Sim.Rng.t -> Netlist.Circuit.t -> mutation -> bool
(** Apply one mutation in place, drawing choices from the generator.
    Returns [false] when the circuit offers no applicable site (the
    circuit is then unchanged). *)

val generate : spec -> Netlist.Circuit.t
(** [base spec] plus the spec's mutation sequence and a final sweep.
    Deterministic: equal specs give structurally identical circuits. *)
