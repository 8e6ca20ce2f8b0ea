(** Bit-parallel (64 patterns per word) logic simulation on mapped
    netlists.

    An engine holds one word-vector per circuit node.  Pattern sources:
    weighted random vectors (Monte-Carlo power estimation, candidate
    signatures) or exhaustive enumeration (exact equivalence and
    probabilities on small circuits).  After the circuit is edited, call
    {!resim_after_edit} (cheap, the POWDER inner loop) or {!resim_all}.

    {!resim_after_edit}, {!with_perturbation} and the observability
    masks share one event-driven fanout-propagation kernel: a node is
    re-evaluated only when a fanin's words changed, in topological
    order, so the values it leaves (or shows [measure]) equal a full
    {!resim_all}.  The kernel keeps its scratch in the engine, so a
    call from inside another (from [perturb], [measure] or
    [on_change]) raises [Invalid_argument].

    {b Storage.} Every node's words live in one flat unboxed buffer
    ({!buffer}), so the kernel writes no [Int64] box per word.  Each
    cell function is compiled once per truth table into a word program
    (a constant, a copy, a two-input operator, or a sum of products
    from an irredundant cover of the function), cached per domain. *)

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

val resim_after_edit :
  ?on_change:(Netlist.Circuit.node_id -> unit) -> t -> Netlist.Circuit.node_id -> int
(** Incremental re-simulation after a structural edit at the given
    node: the kernel seeded with the node and its direct fanout sinks,
    keeping the new words.  Produces exactly the values of a full
    {!resim_all} but touches only the changed cone.  [on_change] fires
    once per changed node, in topological order.  Returns the number
    of nodes re-evaluated (counted on the ["sig/resim_nodes"]
    metric). *)

val value : t -> Netlist.Circuit.node_id -> int64 array
(** Current signature of a node: a fresh copy of its words.  Hot
    readers index {!buffer} instead. *)

val buffer : t -> Logic.Bits.words
(** The node-by-word store: node [id]'s word [j] is at
    [id * words t + j].  Read-only for callers.  A call that grows the
    engine to a larger circuit (any re-simulation or perturbation after
    nodes were added) replaces the buffer, so fetch it again after
    every such call. *)

val count_ones : t -> Netlist.Circuit.node_id -> int
val prob_one : t -> Netlist.Circuit.node_id -> float

val stem_observability : t -> Netlist.Circuit.node_id -> int64 array
(** Mask of patterns on which complementing the stem changes at least
    one primary output.  Leaves the engine state unchanged. *)

val stem_observability_into :
  t -> Netlist.Circuit.node_id -> Logic.Bits.words -> int -> unit
(** {!stem_observability} written to the given words from the given
    offset, without allocating. *)

val branch_observability : t -> sink:Netlist.Circuit.node_id -> pin:int -> int64 array
(** Same for a single branch (one fanout pin). *)

val with_perturbation :
  t ->
  first:Netlist.Circuit.node_id ->
  perturb:(t -> unit) ->
  measure:(t -> 'a) ->
  'a
(** Save [first]'s words, run [perturb] (which writes [first]'s words
    and no other row), re-simulate what the change reaches, run
    [measure], then restore every row the call wrote (also when a
    callback raises).  The circuit structure must not be modified by
    the callbacks. *)

val po_diff : t -> int64 array
(** Inside [measure] of {!with_perturbation}: the patterns on which
    some primary output differs from its words before the call. *)

val po_changed : t -> bool
(** Inside [measure] of {!with_perturbation}: whether some primary
    output differs from its words before the call, on some pattern. *)

val set_value : t -> Netlist.Circuit.node_id -> int64 array -> unit
(** Overwrite a node's words (copied). *)

val apply_gate_words : Logic.Tt.t -> int64 array array -> int64 array
(** Bit-parallel evaluation of a cell function over signature words. *)

val eval_cell_words : Logic.Tt.t -> int64 array array -> int64 array -> int -> unit
(** [eval_cell_words f ins out w]: {!apply_gate_words} into [out], over
    the first [w] words only. *)

val eval_cell_into :
  Logic.Tt.t -> Logic.Bits.words array -> int array -> Logic.Bits.words -> int -> int -> unit
(** [eval_cell_into f srcs offs dst off w]: the cell function over [w]
    words, input [i] read from [srcs.(i)] at offset [offs.(i)], the
    output written to [dst] from [off] (not overlapping an input). *)

val cell_ones : t -> Logic.Tt.t -> Netlist.Circuit.node_id array -> int
(** Set bits of {!apply_gate_words} over the given nodes' rows, read
    in place, without allocating a row.  Safe from pool tasks. *)

val recompute_with_pin_override :
  t -> sink:Netlist.Circuit.node_id -> pin:int -> int64 array -> unit
(** Recompute [sink]'s words as if pin [pin] carried the given words
    instead of its driver's. *)

val set_cell_value :
  t -> Netlist.Circuit.node_id -> Logic.Tt.t -> Netlist.Circuit.node_id array -> unit
(** [set_cell_value t id f ins]: overwrite [id]'s words with [f] over
    the rows of [ins], read in place (no row copied). *)

val recompute_with_pin_cell :
  t ->
  sink:Netlist.Circuit.node_id ->
  pin:int ->
  Logic.Tt.t ->
  Netlist.Circuit.node_id array ->
  unit
(** {!recompute_with_pin_override} with the pin carrying [f] over the
    rows of [ins], evaluated in place. *)

val po_signatures : t -> (string * int64 array) list
(** Signatures of all primary outputs, by PO name. *)

val equivalent_on_patterns : t -> t -> bool
(** Compare PO signatures of two engines over the same PO names (both
    must have equal [words]); true when every PO matches on every
    pattern. *)

val eval_single : Netlist.Circuit.t -> bool list -> (string * bool) list
(** Convenience single-pattern evaluation: PI values in [pis] order;
    returns PO name/value pairs. *)
