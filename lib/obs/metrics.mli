(** A process-global metrics registry: counters, gauges and
    log-bucketed latency histograms.

    Metrics are get-or-create by name, so instrumentation sites can
    hoist the lookup ([let m = Metrics.counter "sim.resim.nodes"] at
    module init) and pay only a field update on the hot path.  The
    registry survives {!reset} — handles stay valid, values return to
    zero — which lets the optimizer delta-measure a single run without
    invalidating cached handles elsewhere.

    {b Domain safety.}  The global registry is owned by the main
    domain and is never written concurrently.  Code running inside a
    [Par.Pool] task executes with a {!shard} installed in domain-local
    storage: every write ({!incr}, {!add}, {!set_gauge}, {!observe})
    and every get-or-create resolves against that shard instead of the
    registry.  Shards are merged back into the registry on the main
    domain — deterministically, name-sorted — when the task's result
    is consumed, so a parallel run's registry is identical to the
    sequential run's. *)

type counter
type gauge
type histogram

(** {2 Counters} *)

val counter : string -> counter
(** Get or create.  @raise Invalid_argument if the name is already
    registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms}

    Log-bucketed: bucket [i] holds observations in
    [(1us * 2^(i-1), 1us * 2^i]], bucket 0 holds everything at or
    below 1us.  64 buckets cover 1us .. ~585 years, so durations never
    overflow. *)

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_max : histogram -> float
(** Exact largest observation since the last {!reset} (0 when empty);
    merged across shards with [max]. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile (q in [0,1])
    as the upper bound of the log bucket holding the q-th observation,
    clamped by {!histogram_max} — at most one power of two above the
    true value.  0 when the histogram is empty.  Dumps and
    {!to_json} report p50/p90/p99/max from this. *)

val histogram_buckets : histogram -> (float * int) list
(** Non-empty buckets only, as [(upper_bound_seconds, count)] in
    increasing bound order. *)

(** {2 Registry} *)

val reset : unit -> unit
(** Zero every registered metric in place (handles stay valid). *)

val find :
  string ->
  [ `Counter of int | `Gauge of float | `Histogram of int * float ] option
(** Current value by name; histograms report [(count, sum)]. *)

val names : unit -> string list
(** All registered names, sorted. *)

val dump : Format.formatter -> unit -> unit
(** Human-readable dump of every registered metric, sorted by name.
    Histograms print count / sum / mean and their non-empty buckets. *)

val to_json : unit -> Json.t
(** The whole registry as one JSON object keyed by metric name. *)

(** {2 Shards}

    Per-task collectors for worker domains.  A worker installs a shard
    before running user code and restores the previous state after;
    while installed, all metric writes in that domain land in the
    shard.  [Par.Pool] owns this protocol (via [Obs.Collector]) —
    application code never needs it directly. *)

type shard

val create_shard : unit -> shard

val install_shard : shard -> shard option
(** Install in the current domain; returns the previously installed
    shard (to be passed back to {!restore_shard}). *)

val restore_shard : shard option -> unit

val merge_shard : shard -> unit
(** Fold a shard into the global registry: counters and histograms
    add, gauges take the shard's last value, names the shard created
    are registered.  Iteration is name-sorted so merge results are
    independent of hash layout.  Must be called with no shard
    installed (i.e. on the main domain, outside any task).
    @raise Invalid_argument otherwise. *)
