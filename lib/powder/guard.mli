(** Resilience layer around the POWDER optimizer.

    The optimizer mutates the one live netlist in place and trusts every
    accepted substitution forever; a single wrong apply (or a forged
    permissibility verdict) silently corrupts the circuit and every
    later result.  The guard wraps each apply in a transaction: the
    substitution is applied under a {!Netlist.Circuit} undo journal,
    independently re-verified by a guard-private bit-parallel simulation
    engine (fresh seed, so its patterns are uncorrelated with the
    optimizer's) plus [Circuit.validate], and rolled back on any
    mismatch instead of poisoning the run.

    The error taxonomy below also covers the deadline and budget
    machinery threaded through {!Check}, [Atpg.Sat] and [Atpg.Podem];
    each error increments a [powder.guard.*] counter in
    {!Obs.Metrics}. *)

type error =
  | Check_timeout       (** an exact check's wall-clock deadline expired *)
  | Apply_mismatch      (** post-apply PO signatures differ from pre-apply *)
  | Validation_failure  (** [Circuit.validate] failed after an apply *)
  | Budget_exhausted    (** a round- or run-scope time budget ran out *)

val error_name : error -> string
(** Stable snake_case name, used as metric suffix and in reports. *)

val count_error : error -> unit
(** Increment the matching [powder.guard.errors.*] counter. *)

(** {1 Fault injection (test-only)}

    A one-shot hook: {!inject} arms a fault, and the first code path
    that reaches the matching {!take_fault} consumes it.  [Forge_verdict]
    is taken by the optimizer's check wrapper (a refuted candidate is
    reported permissible, so the guard must catch the bad apply);
    [Corrupt_apply] is taken inside {!transactional_apply} (the first
    PO's driver is inverted after the apply); [Expire_deadline] is taken
    where the optimizer mints a per-check deadline (it gets one that is
    already expired). *)

type fault = Forge_verdict | Corrupt_apply | Expire_deadline

val inject : fault -> unit
val clear_injection : unit -> unit
val take_fault : fault -> bool
(** True iff this exact fault is armed; consumes it. *)

(** {1 Transactional apply} *)

type verifier
(** A guard-private simulation engine over the optimizer's circuit,
    holding the PO signatures expected before the next apply. *)

val make_verifier :
  seed:int64 ->
  input_probs:(Netlist.Circuit.node_id -> float) ->
  Netlist.Circuit.t ->
  verifier
(** Draws 8 words (512 patterns) per signal from [seed]. *)

type apply_outcome =
  | Applied of Netlist.Circuit.node_id
      (** committed; the payload is the substitution's source node,
          exactly as [Subst.apply] returns it *)
  | Rolled_back of error

val transactional_apply :
  verifier -> Netlist.Circuit.t -> Subst.t -> apply_outcome
(** Apply [s] under a journal, re-verify, and commit or roll back.
    Verification compares PO signatures on the verifier's pattern set —
    exact on those patterns (a permissible substitution can never
    change them), probabilistic against an adversarially wrong verdict
    whose distinguishing vectors lie outside the pattern set.  On
    rollback the circuit passes [Circuit.validate] and is
    PO-equivalent to its pre-apply state, and the verifier is
    re-synchronized. *)
