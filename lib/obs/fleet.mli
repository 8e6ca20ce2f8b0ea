(** Fleet-level job telemetry for long-running services.

    A {!t} tracks a population of keyed jobs through a small state
    machine (queued → running → retrying/preempted → done/failed),
    a set of named event counters (retries, preemptions, rollbacks,
    ...), and the exact distribution of per-job latencies.  Unlike
    {!Metrics} — a process-global registry of hot-path instruments —
    a fleet is a plain value owned by one supervisor, sized for
    hundreds-to-thousands of jobs, and reports {e exact} latency
    quantiles (it keeps every observation) rather than log-bucket
    estimates.

    {!to_json} is the service's [status] report: queue depth, per-state
    job counts, every counter, and p50/p90/p99/max latency. *)

type state = Queued | Running | Retrying | Preempted | Done | Failed

val state_name : state -> string
(** Stable snake_case name ([queued], [running], ...). *)

val all_states : state list
(** In lifecycle order; [to_json] reports every state, zero or not. *)

type t

val create : unit -> t

val transition : t -> id:string -> state -> unit
(** Move job [id] to [state] (first transition registers the job). *)

val state_of : t -> id:string -> state option

val state_count : t -> state -> int

val queue_depth : t -> int
(** Jobs still owed work: [Queued + Retrying + Preempted]. *)

val jobs_total : t -> int

val count : t -> string -> unit
(** Increment the named event counter (created on first use). *)

val observe_latency : t -> float -> unit
(** Record one completed job's submit-to-done latency, in seconds. *)

val latency_count : t -> int

val latency_quantile : t -> float -> float
(** Exact [q]-quantile (q in [0,1]) of the observed latencies by
    nearest-rank; 0 when none were observed. *)

val to_json : t -> Json.t
(** [{ "jobs": {total, queue_depth, per-state counts},
       "counters": {name: n, ...},
       "latency": {count, mean_s, p50_s, p90_s, p99_s, max_s} }] —
    counters name-sorted, so two identically-driven fleets serialize
    byte-identically. *)
