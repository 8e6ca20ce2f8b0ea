(** The pending-job queue: priority order, FIFO within a priority,
    backoff-aware, persistable.

    Entries carry their scheduling state (attempt/retry/preemption
    counters, consumed budget, earliest-runnable instant, whether a
    checkpoint exists to resume from).  [pop_runnable] removes the
    highest-priority entry whose backoff has elapsed; ties break by
    submission order, so scheduling is deterministic given the same
    submissions and clock readings.

    [to_json]/[of_json] round-trip the whole queue so a drained or
    killed server can persist pending work and a restart can recover
    it.  Backoff instants are deliberately {e not} persisted — after a
    restart every pending job is immediately runnable. *)

type entry = {
  job : Protocol.job;
  mutable attempts : int;     (** run attempts started *)
  mutable retries : int;      (** transient failures retried *)
  mutable preemptions : int;  (** times preempted by a higher priority *)
  mutable consumed : float;   (** wall-clock seconds of completed slices *)
  mutable not_before : float; (** runnable once [now >= not_before] *)
  mutable resumable : bool;   (** a checkpoint exists; resume, don't restart *)
  seq : int;                  (** submission order, the FIFO tiebreak *)
}

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val mem : t -> string -> bool
(** Is a job with this id currently queued? *)

val submit : t -> Protocol.job -> entry
(** Append a fresh entry (immediately runnable). *)

val pop_runnable : t -> now:float -> entry option
(** Remove and return the best runnable entry: maximum priority, then
    minimum [seq], among entries with [not_before <= now]. *)

val requeue : t -> entry -> unit
(** Put a popped entry back (after a retry delay was set on it, or a
    preemption).  Its [seq] is preserved, so it keeps its FIFO slot. *)

val next_wakeup : t -> now:float -> float option
(** Earliest [not_before] strictly in the future, if no entry is
    runnable now: how long a drain loop may sleep.  [None] when the
    queue is empty or something is already runnable. *)

val to_list : t -> entry list
(** All entries in submission ([seq]) order. *)

val to_json : ?extra:entry list -> t -> Obs.Json.t
(** [extra] entries (typically the ones popped and currently running)
    are persisted alongside the queued ones, so a hard kill mid-slice
    cannot lose a job. *)

val of_json : Obs.Json.t -> (t, Protocol.error) result
