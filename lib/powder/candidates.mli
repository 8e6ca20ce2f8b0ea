(** Candidate-substitution generation (the paper's
    [get_candidate_substitutions], built on fault-simulation machinery).

    A substitution can only be permissible if the source agrees with the
    substituted signal on every simulated pattern where that signal is
    observable at some primary output.  We therefore compare bit-parallel
    signatures under the target's observability mask: survivors are
    {e potentially} permissible and are later proven or rejected by the
    exact ATPG check.

    Signatures come from a {!Sim.Sigstore}: per-node rows that fold the
    Monte-Carlo words together with every counterexample the exact
    checker has produced, grouped into complement-canonical
    compatibility classes.  With [index = Hash] the scans decide once
    per class (duplicates and inverter images ride along for free), and
    the 3-signal pool is scored 62 classes per word operation over the
    store's lane view ({!Sim.Sigstore.lanes}); with [index = Scan]
    every signal row is tested individually.  Both modes
    emit the identical candidate list — [Scan] is the auditable
    reference the tests and the fuzz harness compare against.

    2-signal candidates ([Hash]): one bit-sliced count of every class's
    disagreement with the target on its care prefix, shared with the
    3-signal pool, leaves only the classes that agree (or disagree)
    everywhere there for a row test on the rest of the care set.  A
    target with an empty care row matches every signal: its hits are
    counted, and sources are visited by ascending transition density
    only until the gain bound rules one out.  3-signal candidates (new
    2-input gate) scan each unordered pair from a bounded pool of the
    closest signatures once, deciding both input orders and every
    2-input cell of the library.  A [pool_limit] of 0 or less is an
    empty pool: no 3-signal candidates.

    With [require_positive], a source whose gain upper bound cannot
    clear the positive margin or the target's [per_target]-th best
    gain is skipped before its [Subst.gain_ab]; every skip is exact.
    [--metrics] counts the estimates made as [sig/gain_ab]. *)

type index_mode =
  | Hash  (** class-indexed scans over the signature store (fast path) *)
  | Scan  (** per-signal reference scans over the same store *)

type config = {
  classes : Subst.klass list;  (** which substitution classes to emit *)
  per_target : int;            (** keep the best k per target (by PG_A+PG_B) *)
  pool_limit : int;            (** pool size for 3-signal pair enumeration *)
  require_positive : bool;     (** drop candidates with PG_A+PG_B+margin <= 0 *)
  index : index_mode;          (** how signatures are matched *)
}

val default_config : config

type stats = {
  pairs_hit : int;
      (** 2-signal (target, source, polarity) signature matches, before
          gain filtering — the [sig/hits] funnel counter *)
  pairs_filtered : int;
      (** 2-signal pairs ruled out by signature comparison —
          [sig/filtered]; identical across index modes by construction *)
  is3_candidates : int;
      (** 3-signal matches emitted on branch targets — [is3/candidates] *)
}

val generate :
  ?config:config ->
  ?pool:Par.Pool.t ->
  ?store:Sim.Sigstore.t ->
  Power.Estimator.t ->
  (Subst.t * Subst.gain) list
(** Candidates in a total order — decreasing [PG_A + PG_B], ties broken
    on structural keys — so the list is byte-reproducible across index
    modes and job counts; gains are the cheap [Subst.gain_ab] estimates.
    The estimator's engine state is left unchanged (observability masks
    perturb and restore it).

    [store] supplies the signature rows; when omitted a transient store
    is built over the estimator's engine (no counterexample folding).
    When given, it is {!Sim.Sigstore.sync}ed first and must be built
    over the estimator's engine.  [pool] shards the per-target scans
    across domains; target enumeration (which mutates engine state for
    observability) always stays sequential. *)

val generate_stats :
  ?config:config ->
  ?pool:Par.Pool.t ->
  ?store:Sim.Sigstore.t ->
  ?deadline:Obs.Deadline.t ->
  Power.Estimator.t ->
  (Subst.t * Subst.gain) list * stats
(** Like {!generate}, returning the funnel stats of this scan.  The
    scan polls [deadline] once per target and skips the targets left
    once it has expired, so the list is then partial; the caller stops
    instead of using it.  Stats
    are also mirrored into the metrics registry ([sig/hits],
    [sig/filtered], [is3/candidates]); the explicit return is what the
    optimizer folds into its report, so concurrent registry writers
    (e.g. parallel fuzz cases) cannot skew it. *)

val check_scratch_isolation : bool -> unit
(** Test-only: while set, every generate also rescans its targets in
    reverse order through one reused scratch, and each target through
    a fresh one, and raises [Failure] naming the first target whose
    candidate list or stats differ from the run's.  The rescans also
    count in the [sig/*] metrics. *)
