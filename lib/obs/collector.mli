(** Per-task observability context: a {!Metrics.shard} paired with a
    {!Trace.buffer}.

    [Par.Pool] creates one collector per task, activates it in the
    worker domain for the duration of the task body, and — on the
    main domain, in commit order — either {!commit}s it when the
    task's result is consumed or {!discard}s it when the result is
    dropped.  This makes every metric counter, histogram sum
    and trace event of a [--jobs N] run identical to the sequential
    run. *)

type t

val create : unit -> t

type saved

val activate : t -> saved
(** Install in the current domain (metric writes → shard, events →
    buffer, fresh span stack); returns the previous state. *)

val deactivate : saved -> unit

val commit : t -> unit
(** Merge the shard into the global registry (name-sorted) and flush
    buffered events to the sink.  Main domain only, collector not
    active anywhere. *)

val discard : t -> unit
(** Drop the collector's contents without merging. *)
