(* A collector is the observability context of one pool task: a
   metrics shard plus a trace buffer.  The pool activates it in the
   worker domain around the task body, then either commits it (merge +
   flush, on the main domain, in deterministic order) or discards it
   when the task's result is never consumed — e.g. the tasks behind
   one that raised inside [Par.Pool.map].  Discarding is what keeps a
   parallel run's registry identical to the sequential run's: work the
   sequential run would never have done leaves no trace. *)

type t = { metrics : Metrics.shard; trace : Trace.buffer }

let create () = { metrics = Metrics.create_shard (); trace = Trace.create_buffer () }

type saved = {
  prev_shard : Metrics.shard option;
  prev_trace : Trace.saved_context;
}

let activate t =
  { prev_shard = Metrics.install_shard t.metrics;
    prev_trace = Trace.activate_buffer t.trace }

let deactivate saved =
  Metrics.restore_shard saved.prev_shard;
  Trace.deactivate_buffer saved.prev_trace

let commit t =
  Metrics.merge_shard t.metrics;
  Trace.flush_buffer t.trace

let discard (_ : t) = ()
