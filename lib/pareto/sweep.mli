(** The frontier sweep driver: run the optimizer once per delay
    constraint over fresh copies of the same mapped netlist and collect
    the resulting (power, delay) points into a dominance-pruned
    {!Frontier}.

    Determinism contract (same as the optimizer's): for the same
    inputs, a sweep at any [jobs] produces byte-identical points,
    frontier and JSON as [jobs = 1] — every per-point optimizer run is
    forced to [jobs = 1] and points fan out over {!Par.Pool.map},
    which merges observability in constraint-list order, and the embedded per-point reports are stripped of their
    timing fields at serialization.  Only the sweep's own top-level
    [jobs] / [cpu_seconds] fields are volatile (the same fields
    [json_check --compare-reports] already ignores on optimizer
    reports). *)

type spec =
  | Scale of float
      (** constraint = scale x the mapped netlist's initial critical
          path; [Scale 1.0] is the paper's keep-initial-delay regime *)
  | Unbounded  (** no delay constraint — the pure power endpoint *)

val default_specs : spec list
(** [1.00x, 1.10x, 1.25x, unbounded]. *)

val spec_of_string : string -> (spec, string) result
(** ["1.1"] or ["1.1x"] parse as [Scale 1.1] (must be [>= 1.0]);
    ["unbounded"] / ["inf"] / ["none"] as [Unbounded]. *)

val spec_to_string : spec -> string
(** ["1.10x"] / ["unbounded"]; round-trips through
    {!spec_of_string} and labels the sweep's points. *)

type report = {
  name : string;  (** circuit name, echoed into the JSON *)
  cost : Cost.t;
  points : Frontier.point list;  (** one per spec, constraint-list order *)
  frontier : Frontier.point list;  (** {!Frontier.prune} of [points] *)
  dominated : int;
  reports : (string * Powder.Optimizer.report) list;
      (** label -> the point's full optimizer report *)
  jobs : int;
  cpu_seconds : float;
}

val run :
  ?config:Powder.Optimizer.config ->
  ?specs:spec list ->
  ?jobs:int ->
  ?checkpoint:Powder.Checkpoint.store ->
  name:string ->
  (unit -> Netlist.Circuit.t) ->
  report
(** Run one optimizer per spec on a fresh circuit from the builder.
    [config] seeds every point's optimizer config; its [delay],
    [checkpoint_sink] and [jobs] fields are overridden per point (the
    cost model, seed, budgets etc. are shared).  [jobs] (default 1)
    fans the points out over a {!Par.Pool}.

    [checkpoint] makes each point crash-resumable: point [s]
    checkpoints every round to the store's key [point-<label>] (with
    {!Powder.Checkpoint.dir_store} that is the file
    [dir/point-<label>.json]), and an existing loadable checkpoint
    under that key is resumed — so re-running an
    interrupted sweep redoes only the unfinished points and produces
    the same report as an uninterrupted checkpointing sweep.  A sweep
    with [checkpoint] is a different, equally valid run from one
    without: every round is a canonicalization barrier (see
    [Optimizer.config]'s [checkpoint_sink]).  A corrupt or
    version-mismatched checkpoint, or one of another circuit
    ({!Powder.Optimizer.Bad_checkpoint}), is ignored and the point
    restarts.

    Telemetry: the sweep runs inside a [pareto.sweep] span with one
    [pareto.point] child span per constraint; counters
    [pareto.points] / [pareto.dominated] and gauges
    [pareto.frontier_size] / [pareto.glitch_delta] (total timed-power
    reduction over all points, 0 under zero-delay cost) land in the
    {!Obs.Metrics} registry.

    @raise Invalid_argument on an empty [specs] list. *)

val to_json : report -> Obs.Json.t
(** Stable machine-readable form: [circuit], [cost_model], [cost],
    [jobs], [constraints] (the spec labels), [points], [frontier],
    [dominated], [reports] (per-point optimizer reports {e minus} their
    volatile [cpu_seconds] / [phase_seconds] / [jobs] fields) and
    [cpu_seconds].  Byte-identical across [jobs] values except the
    top-level [jobs] / [cpu_seconds] fields. *)

val pp : Format.formatter -> report -> unit
