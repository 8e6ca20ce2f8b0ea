(** Exact permissibility check for one substitution (the paper's
    [check_candidate]).

    Instead of comparing two full circuit copies, an {e incremental
    miter} duplicates only the cone the substitution actually changes —
    the target's transitive fanout — and XORs the affected primary
    outputs against their originals; every untouched gate is shared
    between the two sides.  The miter is an overlay on the live circuit
    (its new nodes take ids past the circuit's end), so a check costs
    the miter's cone, never a copy of the circuit.  The miter output is
    then proved constant 0 (permissible) by exhaustive simulation of
    that cone when the circuit is narrow, or by the CDCL SAT solver (or
    classic PODEM, for ablation).  A SAT search pauses at its first
    conflict ({!Atpg.Sat.stall_conflicts}) for a SAT sweep
    ({!Atpg.Sweep}) of the duplicated cone into the original: when
    that folds the output to 0 the check is proved, otherwise the
    search resumes untouched, so verdicts and counterexamples are those
    of the search alone wherever it decides within its budget.  The
    windowed check ({!windowed}) builds the same miter over a window
    and decides it with the same prover. *)

type verdict =
  | Permissible
  | Not_permissible of (string * bool) list
      (** a distinguishing input vector, as PI-name/value pairs
          (missing PIs are don't-care) — fed back into the optimizer's
          counterexample pattern set *)
  | Gave_up of { engine : string; limit : string }
      (** no answer: [engine] ("sat", "podem", "bdd", or "check" when
          the deadline was already expired on entry) and [limit]
          ("conflicts", "backtracks", "nodes", "deadline") say exactly
          which budget fired *)

val permissible :
  ?backtrack_limit:int ->
  ?exhaustive_limit:int ->
  ?engine:[ `Sat | `Podem | `Bdd ] ->
  ?deadline:Obs.Deadline.t ->
  ?sweep:bool ->
  Netlist.Circuit.t ->
  Subst.t ->
  verdict
(** Engine state and circuit are left untouched.  An already-expired
    [deadline] rejects immediately with [Gave_up] before building the
    miter; otherwise it is threaded into the SAT/PODEM search.  A SAT
    search pauses at its first conflict for a sweep of the miter
    ({!swept}); [~sweep:false] (for tests comparing the two searches)
    skips it.  Either way the verdict and counterexample
    are those of the search alone. *)

val miter_clauses : Netlist.Circuit.t -> Subst.t -> (int array list * int) option
(** The clauses and variable count of the miter the SAT engine solves
    for the substitution (without the unit clause asserting its
    output), or [None] when no primary output is affected.  Exposed so
    tests can pin the encoding. *)

val swept : Netlist.Circuit.t -> Subst.t -> bool
(** Run the sweep a paused SAT check runs, at once and whatever the
    circuit's width: [true] iff it folds the miter output to constant
    0, which proves the substitution permissible. *)

type window_verdict =
  | W_proved
      (** proved inside the window — globally sound, no global check
          needed *)
  | W_escalated of [ `Overflow | `Cex | `Gave_up ]
      (** inconclusive: the window overflowed its bounds, found a
          window-local counterexample (possibly spurious), or its
          engine gave up — re-check with {!permissible} *)

val escalation_name : [ `Overflow | `Cex | `Gave_up ] -> string

val windowed :
  ?exhaustive_limit:int ->
  ?deadline:Obs.Deadline.t ->
  max_cut:int ->
  Netlist.Circuit.t ->
  Subst.t ->
  window_verdict
(** Windowed permissibility check: the same miter as {!permissible}'s,
    built over a window around the substitution (see {!Atpg.Window})
    whose cut signals are free inputs and whose escapes are compared,
    and decided by the same prover: exhaustive simulation up to
    [exhaustive_limit] (default 12) free inputs, above that the SAT
    solver with a 2,000-conflict cap and no sweep.  [max_cut] is the
    --window K knob: the window's free-input budget.  [W_proved]
    implies the substitution is globally permissible; any
    [W_escalated] verdict says nothing either way. *)

val inject_window_forge : unit -> unit
(** Arm the fault-injection hook: the next {!windowed} check whose
    honest answer is a window counterexample returns a forged
    [W_proved] instead (one-shot).  Exists so the windowed-vs-global
    differential fuzz leg can assert it catches a lying window check. *)

val window_forge_armed : unit -> bool
(** True while an {!inject_window_forge} fault is armed but not yet
    consumed. *)

val clear_window_forge : unit -> unit
(** Disarm any pending {!inject_window_forge} fault. *)

val refuted_on_patterns : Sim.Engine.t -> Subst.t -> bool
(** Cheap exact refutation on an engine's current pattern set: true iff
    applying the substitution would flip some primary output on at
    least one simulated pattern.  Used to screen candidates against
    accumulated counterexamples before paying for a full proof. *)
