(** A fixed-size domain pool with {b deterministic} fan-out.

    For the same inputs, a run at any [jobs] produces byte-identical
    observable state — return values, metric counters and sums, trace
    events, and therefore report JSON and emitted BLIF — as
    [jobs = 1].  Every task body runs in a worker domain under a
    private [Obs.Collector], so no global observability state is
    touched concurrently; the caller merges the collectors back in
    index order.

    Two entry points serve the callers:

    - {!map} for data-parallel fan-outs whose every element is used:
      the optimizer's candidate scan, fuzz cases, pareto points, the
      bench tables.
    - {!speculate} + {!commit_result} for the serve supervisor, which
      runs one barrier of job slices and must survive a slice that
      raises.

    [jobs = 1] spawns no domains and runs everything inline; it is the
    reference semantics. *)

type t

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] executors: [jobs - 1] worker domains plus
    the submitting domain, which helps drain the queue during a
    barrier.  [jobs] defaults to {!default_jobs} and is clamped to at
    least 1. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [min 8 (Domain.recommended_domain_count ())]. *)

val shutdown : t -> unit
(** Stop and join all worker domains.  Idempotent.  Submitting to a
    shut-down pool raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception safe. *)

val in_task : unit -> bool
(** True while executing inside a pool task (in any domain).  Code
    that may run both standalone and inside a task — the optimizer
    invoked by a fuzz case, say — uses this to force [jobs = 1] and
    avoid nested submission. *)

(** {2 Speculation} *)

type 'b speculation

val speculate :
  t -> ?deadline:Obs.Deadline.t -> (unit -> 'b) array -> 'b speculation array
(** Run every closure, in parallel, to completion (a barrier), each
    under a private [Obs.Collector].  A task not yet started when
    [deadline] expires is cancelled and never runs; running tasks are
    not interrupted (cancellation is cooperative — poll the deadline
    in the body).  @raise Invalid_argument from inside a pool task
    (nested submission) or after {!shutdown}. *)

val commit_result :
  'b speculation -> ('b, exn * Printexc.raw_backtrace) result option
(** Consume one outcome on the calling domain: merge its collector
    into the global metrics/trace state, then return [Some (Ok v)], or
    [Some (Error (exn, backtrace))] for a task that raised — the
    containment primitive for supervisors that must keep running when
    one task fails.  The raising task's collector is still merged
    (sequential parity: the work up to the raise happened and is
    observable).  [None] marks a cancelled task.  Call in index order
    for determinism.  Each speculation is consumed exactly once: a
    second call raises [Invalid_argument]. *)

(** {2 Deterministic map} *)

val map : t -> ?deadline:Obs.Deadline.t -> f:('a -> 'b) -> 'a array -> 'b option array
(** Parallel map; outcomes committed left-to-right.  [None] marks a
    cancelled element.  If a task raised, the exception surfaces at
    its index position and the later elements' collectors are
    discarded (never stranded half-merged). *)
