(** The fuzz campaign driver.

    Each case derives a private seed from the campaign seed
    ([Sim.Rng.derive seed "case-<i>"]), generates a mutated mapped
    netlist ({!Gen}), and checks four property groups:

    - {b generator}: the netlist validates and is I/O-equivalent to its
      unmutated base (mutations are function-preserving by
      construction);
    - {b oracle}: the three proof backends agree on every candidate
      substitution's verdict ({!Oracle}), and no proven-permissible
      candidate is refuted by the simulated pattern set;
    - {b window}: a windowed permissibility proof ({!Powder.Check.windowed})
      never contradicts a decided global refutation — window proofs
      claim global soundness, so the comparison is a hard equality on
      the [Proved] side (escalations carry no claim);
    - {b optimizer}: a bounded POWDER run preserves PO signatures and
      [Circuit.validate], and the per-class measured power gains sum to
      the estimator's total delta (the [PG_A+PG_B+PG_C] telescoping
      identity);
    - {b resilience} (when a {!Powder.Guard} fault is injected): the
      corruption is detected, shrunk ({!Shrink}) and dumped as a
      replayable bundle ({!Bundle}).

    Failures are shrunk and, when [out_dir] is set, saved.  Counters:
    [fuzz/cases], [fuzz/failures], [fuzz/oracle_*], [fuzz/shrink_steps]. *)

type config = {
  seed : int64;
  cases : int;  (** max cases; [0] means run until the budget expires *)
  budget_seconds : float option;
  max_ins : int;
  candidates_per_case : int;  (** substitutions cross-checked per case *)
  words : int;                (** simulation words for equivalence runs *)
  out_dir : string option;
  inject : Powder.Guard.fault option;
      (** arm this fault during one case's optimizer run (retrying on
          later cases until it is actually consumed), with the guard
          disabled, so the end-to-end properties must catch it *)
  forge_window : bool;
      (** arm {!Powder.Check.inject_window_forge} so the window check lies
          once (a forged [W_proved] on a real window counterexample); the
          windowed-vs-global differential must catch the lie.  A forge
          consumed on a spurious window counterexample is harmless by
          luck, so it re-arms every case until caught. *)
  shrink_max_steps : int;
  jobs : int;
      (** run cases on a [Par.Pool], one case per domain, consumed in
          case order — reports are identical at any job count.  Forced
          to 1 when [inject] is set (the one-shot fault is
          process-global) or when nested inside a pool task. *)
}

val default_config : config
(** seed 1, unbounded cases, 20 s budget, [max_ins] 10, 6 candidates,
    4 words, no out dir, no injection, 400 shrink steps, 1 job. *)

type failure = {
  case : int;
  kind : string;
  detail : string;
  gates : int;            (** gate count after shrinking *)
  shrink_steps : int;
  bundle_path : string option;
}

type report = {
  cases_run : int;
  checks : int;           (** oracle cross-checks performed *)
  oracle_splits : int;
  window_checks : int;    (** windowed-vs-global differential checks *)
  accepts : int;          (** substitutions applied across optimizer runs *)
  failures : failure list;
  shrink_steps : int;
  injected_caught : bool; (** the armed fault was consumed and detected *)
  jobs : int;             (** executors actually used *)
  elapsed_seconds : float;
}

val run : config -> report

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Obs.Json.t

val inject_identity_fault : unit -> unit
(** Test-only: until {!clear_identity_fault}, the harness drops one
    candidate from the class-indexed list before comparing it with the
    reference scan, so every case trips that metamorphic identity and
    must report a classified, shrunk [candidates_identity] failure. *)

val clear_identity_fault : unit -> unit

val replay : string -> (string, string) result
(** Re-execute a saved bundle's failure predicate on its embedded
    circuit.  [Ok msg] when the failure reproduces; [Error msg] when it
    does not (or the bundle cannot be read). *)
