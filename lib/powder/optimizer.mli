(** The POWDER optimization loop (Figure 5 of the paper).

    Repeatedly: generate candidate substitutions by signature matching,
    pre-select by [PG_A + PG_B], re-estimate [PG_C] for the pre-selected
    few, and try them best-first — discarding any that would violate the
    delay constraint (Section 3.4) or that the exact ATPG/equivalence
    check cannot prove permissible.  Every accepted substitution is
    applied in place, the transition probabilities of the affected
    transitive fanout are updated incrementally, and timing is
    re-analyzed.  The inner loop performs up to [repeat] substitutions
    per candidate-set generation. *)

type delay_mode =
  | Unconstrained
  | Keep_initial                (** constraint = the initial circuit delay *)
  | Ratio of float              (** constraint = initial delay * (1 + r) *)
  | Absolute of float
      (** an absolute required time; if tighter than the initial delay,
          every substitution that touches negative-slack paths is
          rejected — POWDER reduces power under a constraint, it does
          not repair timing *)

type cost_model =
  | Zero_delay
      (** the paper's model: rank candidates by raw zero-delay
          switched-capacitance gain *)
  | Glitch of { pairs : int }
      (** glitch-aware ranking: per-node hazard multipliers from
          {!Power.Glitch.node_factors} (sampled over [pairs] random
          vector pairs on a derived seed stream) weight the PG_A / PG_B
          terms, steering the loop toward nodes whose activity the
          zero-delay model under-counts.  Factors are resampled at
          every canonicalization barrier; nodes created between
          barriers score with factor 1.0.  The report additionally
          carries timed power measured before and after the run. *)

val cost_model_name : cost_model -> string
(** ["zero-delay"] / ["glitch"] — the [cost_model] field of reports and
    the values accepted by [powder_cli --cost]. *)

type config = {
  words : int;                  (** simulation words; patterns = 64 * words *)
  seed : int64;
  input_prob : string -> float; (** PI signal probabilities, by name *)
  repeat : int;                 (** inner-loop batch size (Figure 5) *)
  preselect : int;              (** candidates re-estimated with PG_C per pick *)
  delay : delay_mode;
  classes : Subst.klass list;
      (** substitution classes generate may propose; the generator's
          other knobs are {!Candidates.default_config}'s *)
  backtrack_limit : int;        (** PODEM/SAT abort threshold *)
  exhaustive_limit : int;       (** max PI count for exhaustive equivalence *)
  max_substitutions : int;
  max_rounds : int;             (** outer-loop safety bound *)
  check_seconds : float option;
      (** wall-clock budget per exact permissibility check *)
  round_seconds : float option;
      (** wall-clock budget per outer-loop round; expiry escalates the
          degradation ladder *)
  run_seconds : float option;
      (** wall-clock budget for the whole run; expiry stops cleanly *)
  verify_applies : bool;
      (** wrap every apply in a {!Guard} transaction (journal +
          independent re-simulation + [Circuit.validate]); [false]
          builds no verifier *)
  checkpoint_every : int;
      (** canonicalize and (if a sink is set) checkpoint every N
          rounds; 0 disables both *)
  checkpoint_sink : (Checkpoint.t -> unit) option;
      (** receives each checkpoint, and must make it durable before it
          returns: [Checkpoint.save file] for one file, a
          {!Checkpoint.store}'s [save key] for a keyed store *)
  jobs : int;
      (** parallel executors for candidate generation's scan (a
          {!Par.Pool} of [jobs - 1] worker domains plus the main
          domain).  1 (the default) runs fully sequentially
          and spawns nothing.  Any value produces byte-identical
          reports, substitutions and final BLIF — see the determinism
          contract in [Par.Pool]. *)
  window : int option;
      (** [Some k]: try a windowed permissibility check (cut budget [k],
          see {!Check.windowed}) before the global miter; window proofs
          are globally sound, anything inconclusive escalates to the
          global check, so final verdicts stay exact.  [None] (default)
          always uses the global miter.  NOTE: unlike [jobs], windowing
          can change results — a window can
          prove a candidate the global engine gives up on — so the
          window size belongs in a run's manifest. *)
  cost : cost_model;
      (** acceptance/ranking cost model (default [Zero_delay]).  NOTE:
          like [window], the cost model changes which substitutions are
          accepted, so it belongs in a run's manifest. *)
}

val default_config : config

type class_stats = {
  accepted : int;
  power_gain : float;   (** measured switched-capacitance reduction *)
  area_gain : float;    (** measured area reduction (negative = growth) *)
}

(** The candidate funnel: every counter the loop keeps, in one record
    that checkpoints save and restore and the report carries.  Counts
    are cumulative over the whole run, resumed slices included. *)
type funnel = {
  mutable rounds : int;
  mutable substitutions : int;
  mutable candidates_generated : int;
  mutable checks_run : int;
  mutable rejected_by_delay : int;
  mutable rejected_by_atpg : int;
      (** proven wrong: the exact check found a distinguishing vector *)
  mutable rejected_by_giveup : int;
      (** inconclusive: the proof engine hit its conflict/backtrack/node
          budget; the candidate may well have been permissible *)
  mutable rejected_by_timeout : int;
      (** inconclusive: the per-check wall-clock deadline expired
          (disjoint from [rejected_by_giveup]) *)
  mutable rejected_by_cex : int;
      (** screened out by accumulated counterexample patterns before
          any exact proof was attempted *)
  mutable sig_hits : int;
      (** 2-signal signature matches emitted by the store scans
          (pre-gain-filter), summed over rounds *)
  mutable sig_filtered : int;
      (** 2-signal pairs the signature comparison ruled out — the work
          the funnel's downstream never sees *)
  mutable sig_resim_nodes : int;
      (** nodes re-evaluated by incremental (levelized, change-pruned)
          re-simulation on the accept path, both engines *)
  mutable is3_candidates : int;
      (** 3-signal candidates generated on branch targets, before gain
          filtering — diagnoses the IS3 leg of Table 2 *)
  mutable rolled_back : int;
      (** applies reverted by the {!Guard} transaction (verification
          mismatch or validation failure) *)
  mutable verified_applies : int;
      (** applies that passed independent re-verification *)
  mutable window_checks : int;
      (** candidates that went through the windowed check ([--window K]);
          0 with windowing off *)
  mutable window_proved : int;
      (** proved permissible inside the window — the global miter was
          skipped entirely *)
  mutable window_escalated : int;
      (** windowed checks that escalated to the global miter
          ([window_checks = window_proved + window_escalated]); the
          reasons are in the report's [giveup_breakdown] under
          [window/overflow], [window/cex] and [window/giveup], and do
          NOT count toward [rejected_by_giveup] — the escalated
          candidate got a full global verdict *)
}

type report = {
  initial_power : float;
  final_power : float;
  initial_area : float;
  final_area : float;
  initial_delay : float;
  final_delay : float;
  delay_constraint : float option;
  cost_model : string;  (** {!cost_model_name} of the run's cost model *)
  initial_glitch_power : float option;
      (** timed switched capacitance ({!Power.Glitch.estimate}) before
          the run; [None] under [Zero_delay] cost *)
  final_glitch_power : float option;
      (** same measurement after the run, on the same derived seed *)
  by_class : (Subst.klass * class_stats) list;
  funnel : funnel;
  giveup_breakdown : (string * int) list;
      (** give-up counts keyed ["engine/limit"], e.g. ["sat/conflicts"],
          ["podem/deadline"]; covers both giveup and timeout buckets,
          plus the [window/*] escalation reasons (which are not
          rejections) *)
  degradation_level : int;
      (** final ladder level: 0 full effort, 1 shrunk proof budgets,
          2 also OS3/IS3 skipped, 3 stopped *)
  stopped_by : string;
      (** ["converged"], ["max_rounds"], ["max_substitutions"],
          ["run_budget"] or ["degradation"] *)
  jobs : int;
      (** executors actually used (1 when nested inside a pool task) *)
  phase_seconds : (string * float) list;
      (** cumulative wall-clock per phase, keyed by {!phase_names} *)
  cpu_seconds : float;
      (** wall-clock of the whole run, same clock as [phase_seconds] *)
}

val phase_names : string list
(** The instrumented phases of the loop, in execution order:
    [generate], [rank], [refine-pgc], [exact-check], [apply], [sta]. *)

val power_reduction_percent : report -> float
val area_reduction_percent : report -> float

val optimize : ?config:config -> ?resume:Checkpoint.t -> Netlist.Circuit.t -> report
(** Optimizes the circuit in place.

    Guard semantics: with [verify_applies] on, every accepted
    substitution runs inside a {!Netlist.Circuit} journal and is
    re-verified by a guard-private simulation engine; mismatches are
    rolled back and counted in [rolled_back] instead of corrupting the
    run.  Wall-clock budgets ([check_seconds] / [round_seconds] /
    [run_seconds]) are threaded as cooperative deadlines into the
    SAT/PODEM engines; repeated per-check expiry or a blown round
    budget escalates the degradation ladder (shrink proof budgets →
    skip OS3/IS3 → stop), and a blown run budget stops cleanly with
    [stopped_by = "run_budget"].

    Checkpointing: with [checkpoint_every = n > 0] the optimizer
    canonicalizes its state every [n] rounds (BLIF round-trip, then
    the simulation state is rebuilt from the circuit, the seed and the
    counterexample log) and, when [checkpoint_sink] is set, hands it a
    {!Checkpoint.t}.  Passing [?resume] continues such a run through
    the same barrier: the caller's circuit is overwritten in place
    from the checkpointed BLIF, the state is built from the
    checkpoint's counterexample log, counters are restored, the seed
    is taken from the checkpoint (the config's [seed] is ignored), and
    the run proceeds exactly as the uninterrupted checkpointing run
    would have.

    @raise Invalid_argument when the checkpointed BLIF does not parse.

    Parallelism: with [jobs > 1] only candidate generation's scan runs
    on a [Par.Pool] (see {!Candidates.generate_stats}).  Exact checks
    always run one at a time, in rank order, stopping at the first
    permissible candidate, as the paper's best-first pick does; a
    parallel walk over them was measured to cost more than it saved.
    Signature patterns come from {!Sim.Engine.randomize_sharded},
    which does not depend on the job count.  The resulting report
    (modulo timing fields), trace, accepted substitutions and final
    netlist are byte-identical to a [jobs = 1] run.

    Telemetry: the run is wrapped in {!Obs.Trace} spans (one per entry
    of {!phase_names}); when a trace sink is installed it emits a
    [round] event per candidate-pool generation (fields [round],
    [pool]), a [reject] event per discarded candidate (fields [reason]
    in [delay]/[cex]/[atpg]/[giveup], [rank], [cand]) and an [accept]
    event per applied substitution (fields [class], [rank],
    [est_gain], [realized_gain], [area_delta], [cand]). *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Obs.Json.t
(** Machine-readable report: every field of {!report} plus the derived
    reduction percentages, with [by_class] and [phase_seconds] as
    nested objects. *)

val strip_volatile : Obs.Json.t -> Obs.Json.t
(** Drop what a clock or the job count decides from a report object:
    the top-level [cpu_seconds], [phase_seconds] and [jobs] fields,
    and the volatile fields of an embedded [run] manifest
    ({!Obs.Runinfo.strip_volatile}).  What remains is identical across
    [jobs] values and across a kill and resume.  Anything but an
    object is returned unchanged. *)
