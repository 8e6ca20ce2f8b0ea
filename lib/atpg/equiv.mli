(** Combinational equivalence checking: two circuits are compared on
    shared primary-input names.

    Small circuits (PI count at most [exhaustive_limit]) are compared by
    exhaustive bit-parallel simulation — exact and fast.  Larger ones
    are SAT-swept ({!Sweep}): both are hashed into one graph, the
    second's nodes are merged into equal nodes of the first by small
    proofs, and what is left of the miter output is solved.  A search
    that runs out of budget returns [Unknown], which callers must treat
    as "not proven equivalent". *)

type verdict =
  | Equivalent
  | Different of (string * bool) list
      (** counterexample: PI name/value assignment (missing = any) *)
  | Unknown

val xor_cell : Gatelib.Cell.t
(** Zero-cost virtual XOR2 used to compare outputs inside miters. *)

val or_cell : Gatelib.Cell.t
(** Zero-cost virtual OR2 for the miter's disjunction tree. *)

val check :
  ?backtrack_limit:int ->
  ?exhaustive_limit:int ->
  ?engine:[ `Sat | `Podem ] ->
  Netlist.Circuit.t ->
  Netlist.Circuit.t ->
  verdict
(** [exhaustive_limit] defaults to 14 PIs.  Above it, the two netlists
    are swept and the reduced miter output is solved with the CDCL
    solver ([`Sat], default; [backtrack_limit] scales its conflict
    budget), or a monolithic miter is justified with classic PODEM
    ([`Podem], kept for the ablation benchmark — it aborts far more
    often on equivalence-style UNSAT proofs).  The sweep's counters and
    time are under [equiv.sweep.*] and [equiv.sweep_seconds]. *)
