(** Structured tracing: hierarchical timed spans and typed events,
    fanned out to a pluggable sink (null by default, pretty console, or
    a JSONL file).

    Design constraints, in order:

    - {b Zero overhead when off.}  With the null sink installed (the
      default), {!event} is a single branch and {!with_span} costs two
      clock reads plus one histogram update.  Field lists that are
      expensive to build should go through {!event_f}, whose closure is
      only called when a sink is active.
    - {b Always-on span accounting.}  Span durations are accumulated
      into the {!Metrics} registry (histogram [span.<name>]) whether or
      not a sink is attached, so phase breakdowns (generate / rank /
      exact-check / apply / sta) are available in every run, not just
      traced ones.

    JSONL event schema, one object per line:
    {v
    {"ts":<seconds>,"ev":"<name>","path":"a/b/c",<field>:<value>,...}
    v}
    where [ts] is seconds since process start, [ev] is the event name
    ([span_begin]/[span_end] for spans, anything else for point
    events), [path] is the enclosing span stack outermost-first, and
    span ends carry ["dur_s"] (seconds) and ["alloc_b"] (bytes
    allocated by this domain while the span was open: the
    [Gc.minor_words] delta plus the words allocated directly in the
    major heap) fields. *)

type value = Bool of bool | Int of int | Float of float | String of string

type event = {
  ts : float;  (** seconds since process start ({!Clock.since_start}) *)
  name : string;
  path : string list;  (** enclosing spans, outermost first *)
  fields : (string * value) list;
}

type sink

val make_sink : emit:(event -> unit) -> close:(unit -> unit) -> sink
(** Custom sink (used by tests to capture events in memory). *)

val null_sink : sink

val tee_sink : sink list -> sink
(** Fan every event out to each sink in order; closing the tee closes
    them all.  Used to feed a JSONL file, the profiler and the Chrome
    exporter from one run. *)

val jsonl_sink : string -> sink
(** Opens [file] for writing; one JSON object per event per line.
    Buffered — events are guaranteed on disk only after
    {!close_sink}. *)

val set_sink : sink -> unit
(** Replaces (and closes) the previous sink. *)

val close_sink : unit -> unit
(** Flush and close the current sink and restore the null sink. *)

val active : unit -> bool
(** True iff a non-null sink is installed.  Guard expensive field
    construction with this (or use {!event_f}). *)

val event : string -> (string * value) list -> unit
(** Emit a point event at the current span path.  No-op (single
    branch) when the null sink is installed — but note the argument
    list is still built by the caller; hot paths should prefer
    {!event_f}. *)

val event_f : string -> (unit -> (string * value) list) -> unit
(** Like {!event} but the fields thunk only runs when a sink is
    active. *)

val with_span : ?fields:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span: push it on the span stack, time
    it, accumulate the duration into histogram [span.<name>], and (when
    a sink is active) emit [span_begin]/[span_end] events.  Exception
    safe: the span is closed and accounted even if the thunk raises. *)

val current_path : unit -> string list
(** Enclosing spans, outermost first. *)

val span_seconds : string -> float
(** Cumulative seconds spent in spans of this name since the last
    {!Metrics.reset} (sum of histogram [span.<name>]). *)

val span_count : string -> int

val json_of_value : value -> Json.t

(** {2 Per-task buffers}

    Sinks are owned by the main domain and are not thread-safe.  A
    [Par.Pool] task therefore runs with a {!buffer} activated in
    domain-local storage: its events (and a fresh, empty span stack)
    are captured in memory and only reach the sink when the pool
    flushes the buffer — on the main domain, in deterministic commit
    order.  Application code never needs this API directly; it is the
    [Obs.Collector] half that pairs with {!Metrics.shard}s. *)

type buffer

val create_buffer : unit -> buffer

type saved_context

val activate_buffer : buffer -> saved_context
(** Route this domain's events into [b] and swap in an empty span
    stack; returns the previous state for {!deactivate_buffer}. *)

val deactivate_buffer : saved_context -> unit

val flush_buffer : buffer -> unit
(** Replay buffered events (oldest first) into the current sink and
    empty the buffer.  Call on the main domain only. *)
