(** The batch-optimization supervisor: a single-threaded event loop
    that accepts JSONL requests, schedules jobs by priority, runs
    optimizer {e slices} on a [Par.Pool], and survives worker crashes,
    malformed input, spurious deadlines, corrupt checkpoints and
    process kills without losing a well-formed job.

    {2 Slicing and determinism}

    A job is never run to completion in one go.  Each scheduling turn
    advances it by [slice_rounds] optimizer rounds with a per-job
    checkpoint sink — so every round is a canonicalization barrier and the job can be preempted,
    retried, or killed at any slice boundary and resumed
    {e bit-identically} (the [Powder.Checkpoint] resume contract).
    Because {b every} run is sliced this way, a run disturbed by chaos
    injection converges to byte-identical result files.

    Each slice runs under its own wall-clock deadline: the job's
    remaining [budget_seconds] threaded as the optimizer's
    [run_seconds] cooperative deadline.

    {2 Failure handling}

    A slice that raises is contained by [Par.Pool.commit_result] and
    classified by {!Failure.classify_exn}: transient failures are
    retried with {!Retry} backoff (resuming from the last checkpoint),
    fatal ones fail the job, and the fleet keeps serving either way.
    A [run_budget] stop is a real [timeout] only when the job's own
    budget is actually exhausted; a spurious expiry (deadline storm)
    is retried as transient.  A corrupt checkpoint is surfaced as a
    typed event, rolled back, and the job restarts from scratch —
    landing on the same final answer.

    {2 State directory}

    {v
    state/journal           queue snapshots and per-job checkpoints
    state/results/<id>.json final report (with embedded run manifest)
    state/results/<id>.blif optimized netlist
    v}

    Every durable write is one fsync'd append to the {!Journal}: a
    queue snapshot, a checkpoint put (an optimize job's under its id, a
    pareto job's per frontier point), a checkpoint drop, or a finished
    job's result record, which holds its result files and drops its
    checkpoints.  The result files themselves are written without an
    fsync and put back from their records on the next start if a kill
    lost them.  Nothing in the state directory is renamed over or
    unlinked while jobs run, except by the journal's compaction.

    The queue is snapshotted once per run of submits within a burst of
    input lines (up to 64 read at once), before those submits are
    acked, so an acked job is always in a durable snapshot.  Any other
    event (a [status] reply, a rejection, ...) first emits the pending
    acks, so events keep the order of the lines that caused them.

    On startup the supervisor recovers the journal's last queue
    snapshot: jobs with a result record are skipped, the rest re-enter
    the queue (resuming from their checkpoints when
    present). *)

type config = {
  state_dir : string;
  jobs : int;            (** parallel worker slots ([Par.Pool] size) *)
  slice_rounds : int;    (** optimizer rounds per scheduling turn *)
  retry : Retry.policy;
  seed : int64;          (** server seed (retry jitter streams) *)
  chaos : Chaos.t option;
  poll_seconds : float;  (** input poll / idle sleep granularity *)
}

val default_config : state_dir:string -> config
(** jobs 1, slice_rounds 2, default retry, seed 0xC0FFEE, no chaos,
    50ms poll. *)

(** One input-source read: a complete line, nothing available yet, or
    end of input (which starts a drain, like an explicit [drain]
    request). *)
type pull = Line of string | Waiting | Eof

val file_source : string -> unit -> pull
(** Non-blocking line reader over a file, FIFO, or ["-"] (stdin). *)

type outcome = {
  completed : int;
  failed : int;
  rejected : int;   (** protocol lines answered with a typed error *)
  recovered : int;  (** jobs re-queued from a previous run's state *)
  status : Obs.Json.t;  (** final {!Obs.Fleet} snapshot *)
  clean_exit : bool;
      (** [true]: drained (explicit request or input EOF) with an
          empty queue; [false]: stopped early, queue persisted *)
}

val run :
  config ->
  source:(unit -> pull) ->
  emit:(Obs.Json.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  unit ->
  outcome
(** Run the event loop until drained or [should_stop] fires.  [emit]
    receives the JSONL event stream; the first event is always a
    [run_start] header.  Events: [run_start], [recovered], [ack],
    [rejected], [status], [draining], [input_eof], [retry],
    [preempted], [checkpoint_corrupt], [job_done], [job_failed],
    [drained], [shutdown]. *)
