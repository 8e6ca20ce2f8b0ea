(** Fault injection for the serve harness.

    Styled after [Powder.Guard]'s one-shot injection: a chaos handle
    carries one fault class and fires each hook at most once per job
    id, on the earliest opportunity — so a chaotic run is exactly as
    deterministic as a clean one, and the acceptance bar ("all
    well-formed jobs complete with byte-identical outputs under every
    fault") is a reproducible test, not a flake lottery.

    - [Worker_crash]: the worker raises [Failure.Crashed] mid-slice on
      the job's first attempt.  The supervisor must classify it
      transient, retry with backoff, and resume from the checkpoint.
    - [Malformed_job]: hostile protocol lines (the [Fuzz.Proto]
      corpus, supplied by the caller) are spliced between real
      submissions.  Every one must draw a typed error event.
    - [Deadline_storm]: the job's first attempt runs under an
      already-expired deadline.  The supervisor must recognize the
      spurious timeout (the job's own budget is untouched) and retry.
    - [Checkpoint_corrupt]: after the job's first completed slice, a
      checkpoint record holding the first half of its checkpoint is
      appended to the journal (an intact frame, a garbled payload).
      The supervisor must surface
      the typed [Powder.Checkpoint] error, roll back, and restart the
      job from scratch. *)

type fault = Worker_crash | Malformed_job | Deadline_storm | Checkpoint_corrupt

val fault_name : fault -> string
val fault_of_name : string -> fault option
val all_faults : fault list

type t

val create : ?malformed:string array -> fault -> t
(** [malformed] supplies the hostile lines for [Malformed_job]
    (typically [Fuzz.Proto.corpus] lines); ignored for other faults. *)

val fault : t -> fault

val crash_now : t -> id:string -> bool
(** [Worker_crash] only: fires once per job id. *)

val storm_now : t -> id:string -> bool
(** [Deadline_storm] only: fires once per job id. *)

val corrupt_now : t -> id:string -> bool
(** [Checkpoint_corrupt] only: fires once per job id (call it after a
    non-final slice has saved a checkpoint). *)

val malformed_lines : t -> string list
(** [Malformed_job] only: the lines to splice into the input, once. *)
