(** Self-profiler: aggregates the {!Trace} span stream into an
    attributed call-tree profile (inclusive/exclusive seconds, call
    counts, per-span allocation deltas), exportable as flamegraph
    collapsed stacks and Chrome trace-event JSON.

    The profiler consumes the same deterministic event stream a JSONL
    trace records — [Par.Pool] flushes task buffers in commit order —
    so a [--jobs N] profile equals the [--jobs 1] profile after
    {!strip_volatile}.  Attach it with {!sink} (usually inside a
    {!Trace.tee_sink} next to a JSONL file and {!chrome_sink}). *)

type t

val create : unit -> t

val add_event : t -> Trace.event -> unit
(** Fold one event in: [span_end] grows the call tree (keyed by the
    event's full path), [round]/[accept]/[reject] build the per-round
    candidate funnel, [gc] events are collected as per-round GC
    samples, everything else is only counted. *)

val sink : t -> Trace.sink
(** A sink feeding {!add_event}; closing it is a no-op, so the
    accumulated profile survives {!Trace.close_sink}. *)

val iter_nodes :
  t ->
  (path:string list ->
  count:int ->
  inclusive_s:float ->
  exclusive_s:float ->
  alloc_bytes:float ->
  children_inclusive_s:float ->
  unit) ->
  unit
(** Visit every tree node (parents before children, siblings
    name-sorted); [path] is outermost-first and ends with the node's
    own span name.  Used by tests to check the exclusive-time
    invariant (children inclusive sum ≤ parent inclusive). *)

val total_seconds : t -> float
(** Sum of the top-level spans' inclusive time. *)

val to_json : ?run:Json.t -> t -> Json.t
(** The full profile: manifest (when given), call tree (nodes carry
    [name], [count], [inclusive_s], [exclusive_s], [alloc_bytes] and
    name-sorted [children]), per-round funnel, GC samples. *)

val strip_volatile : Json.t -> Json.t
(** Recursively drop the timing/allocation/environment keys
    ([inclusive_s], [exclusive_s], [alloc_bytes], [total_seconds],
    [run], [gc]); what remains — tree shape, span and event counts,
    candidate funnel — must be identical across [--jobs] widths. *)

val to_folded : t -> string
(** Flamegraph-compatible collapsed stacks: one
    ["outer;inner <exclusive-microseconds>"] line per tree node,
    lexicographically sorted, newline-terminated. *)

val chrome_event : Trace.event -> Json.t option
(** One trace event as a Chrome trace-event object: [span_end] becomes
    a complete ("X") slice reconstructed from its duration,
    point events become instants ("i"), [span_begin] is dropped
    (the matching "X" covers it). *)

val chrome_sink : out_channel -> Trace.sink
(** Stream the event stream to [oc] as
    [{"traceEvents":[...],"displayTimeUnit":"ms"}] (the format
    [chrome://tracing] / Perfetto load directly).  Closing the sink
    writes the suffix and closes the channel. *)
