(** Bit-parallel (64 patterns per word) logic simulation on mapped
    netlists.

    An engine holds one word-vector per circuit node.  Pattern sources:
    weighted random vectors (Monte-Carlo power estimation, candidate
    signatures) or exhaustive enumeration (exact equivalence and
    probabilities on small circuits).  After the circuit is edited, call
    {!resim_tfo} (cheap, the POWDER inner loop) or {!resim_all}. *)

type t

val create : Netlist.Circuit.t -> words:int -> t
(** [words] 64-bit words per signal, i.e. [64 * words] patterns. *)

val circuit : t -> Netlist.Circuit.t
val words : t -> int
val num_patterns : t -> int

val randomize : t -> ?input_probs:(Netlist.Circuit.node_id -> float) -> Rng.t -> unit
(** Draw fresh PI patterns (default probability 0.5 per input) and
    simulate the whole circuit. *)

val randomize_sharded :
  ?input_probs:(Netlist.Circuit.node_id -> float) -> seed:int64 -> t -> unit
(** Like {!randomize}, but PI words are drawn in shards of two words,
    shard [k] (words [2k] and [2k+1]) from its own stream
    [Rng.stream seed "sim/words-<k>"], word-major: for each word, one
    [Rng.bits_with_prob] draw per PI in [pis] order.  Then the whole
    circuit is simulated.  The optimizer's signatures are pinned to
    these streams.  Note the patterns differ from
    [randomize t (Rng.create seed)] — pick one scheme per call site and
    stay with it. *)

val exhaustive : t -> unit
(** Assign all [2^n] input combinations (requires
    [words * 64 >= 2^n] where [n] is the PI count; excess patterns
    repeat the enumeration) and simulate.
    @raise Invalid_argument if the pattern set cannot hold [2^n]. *)

val resim_all : t -> unit
(** Recompute every node in topological order. *)

val resim_tfo : t -> Netlist.Circuit.node_id -> unit
(** Recompute only the transitive fanout of a node (the node itself is
    re-evaluated too). *)

val resim_after_edit :
  ?on_change:(Netlist.Circuit.node_id -> unit) -> t -> Netlist.Circuit.node_id -> int
(** Incremental re-simulation after a structural edit at the given
    node: a levelized update queue seeded with the node and its direct
    fanout sinks, draining in topological order and propagating only
    through nodes whose words actually changed.  Produces exactly the
    values of {!resim_tfo} (and hence of a full {!resim_all}) but
    touches only the changed cone.  [on_change] fires once per
    changed node, in topological order.  Returns the number of nodes
    re-evaluated (counted on the ["sig/resim_nodes"] metric). *)

val value : t -> Netlist.Circuit.node_id -> int64 array
(** Current signature of a node (shared array; do not mutate). *)

val count_ones : t -> Netlist.Circuit.node_id -> int
val prob_one : t -> Netlist.Circuit.node_id -> float

val equal_signature : t -> Netlist.Circuit.node_id -> Netlist.Circuit.node_id -> bool
val complement_signature : t -> Netlist.Circuit.node_id -> Netlist.Circuit.node_id -> bool

val stem_observability : t -> Netlist.Circuit.node_id -> int64 array
(** Mask of patterns on which complementing the stem changes at least
    one primary output.  Leaves the engine state unchanged. *)

val branch_observability : t -> sink:Netlist.Circuit.node_id -> pin:int -> int64 array
(** Same for a single branch (one fanout pin). *)

val with_perturbation :
  t ->
  first:Netlist.Circuit.node_id ->
  perturb:(t -> unit) ->
  measure:(t -> 'a) ->
  'a
(** Save the values of [first] and its transitive fanout, run [perturb]
    (which may overwrite node values), re-simulate the fanout, run
    [measure], then restore all saved values.  The circuit structure
    must not be modified by the callbacks. *)

val set_value : t -> Netlist.Circuit.node_id -> int64 array -> unit
(** Overwrite a node's words (copied). *)

val apply_gate_words : Logic.Tt.t -> int64 array array -> int64 array
(** Bit-parallel evaluation of a cell function over signature words. *)

val recompute_with_pin_override :
  t -> sink:Netlist.Circuit.node_id -> pin:int -> int64 array -> unit
(** Recompute [sink]'s words as if pin [pin] carried the given words
    instead of its driver's. *)

val po_signatures : t -> (string * int64 array) list
(** Signatures of all primary outputs, by PO name. *)

val equivalent_on_patterns : t -> t -> bool
(** Compare PO signatures of two engines over the same PO names (both
    must have equal [words]); true when every PO matches on every
    pattern. *)

val eval_single : Netlist.Circuit.t -> bool list -> (string * bool) list
(** Convenience single-pattern evaluation: PI values in [pis] order;
    returns PO name/value pairs. *)
