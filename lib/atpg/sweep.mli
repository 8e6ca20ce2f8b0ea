(** SAT sweeping: simulate, prove, merge.

    A sweep graph holds one combinational netlist (or the union of
    several over shared inputs) as gates over their function's truth
    table.  Nodes are added bottom-up; every gate is structurally
    hashed, folded when its fanins make it constant or a plain wire
    (an XOR of a node with itself, an OR with 0), and simulated at once
    on fixed random patterns.  A node whose words agree with an older
    node's is merged into it when a small-budget SAT proof shows the
    two equal; a counterexample from a failed proof becomes a new
    pattern, so the candidates are refined as the sweep goes.  Merging
    only redirects references made later, so it can never close a
    cycle.

    The permissibility check sweeps its miter's duplicated cone into
    the original ([Powder.Check]); equivalence checking sweeps one
    netlist into the other ({!Equiv.check}).  Every merge is proved, so
    a miter output that folds to constant 0 is a proof of UNSAT. *)

type metrics = {
  escalations : Obs.Metrics.counter;  (** sweeps run *)
  proved : Obs.Metrics.counter;  (** sweeps that proved the miter UNSAT *)
  pair_proofs : Obs.Metrics.counter;  (** small SAT proofs attempted *)
  seconds : Obs.Metrics.histogram;  (** time per sweep *)
}

val metrics : string -> metrics
(** [metrics p] registers [p.sweep.escalations], [p.sweep.proved],
    [p.sweep.pair_proofs] and the [p.sweep_seconds] histogram; call it
    once per prefix.  The caller counts escalations, proofs and time;
    the graph counts its pair proofs. *)

type t

val create :
  ?deadline:Obs.Deadline.t -> ?pair_budget:int -> npis:int -> metrics -> t
(** An empty graph over [npis] inputs, simulated on 512 fixed random
    patterns plus the counterexamples of failed pair proofs.  Each pair
    proof may spend [pair_budget] conflicts (default 2,500); none
    starts after [deadline]. *)

val num_nodes : t -> int

val input : t -> int -> int
(** The node of input [k] (0 <= k < npis); call once per input. *)

val const : t -> bool -> int

val gate : t -> Gatelib.Cell.t -> int array -> int
(** The node computing the function over the given fanin nodes:
    an existing node when hashing or folding finds one, else a new,
    simulated one. *)

val is_const : t -> int -> bool -> bool

val sim_words : t -> int -> int64 array
(** A node's simulation words (shared; do not mutate). *)

val try_merge : t -> fresh:int -> old:int -> int
(** [old] when [fresh] agrees with it on every pattern and a pair proof
    shows them equal ([fresh] is then retired: later hashing yields
    [old]); [fresh] otherwise. *)

val sweep_node : t -> int -> int
(** {!try_merge} against the oldest live node before [id] whose words
    equal [id]'s, if any: the node to use for [id]. *)

val first_one : t -> int -> bool array option
(** An input pattern (a value per input) on which the node's words
    read 1, if any. *)

val justify :
  ?conflict_limit:int -> t -> int -> [ `Unsat | `Sat of bool array | `Unknown ]
(** Solve for the node being 1 on its fanin cone: [`Sat] gives a value
    per input. *)
