(* A fixed-size domain pool with deterministic fan-out.

   Design:

   - [create ~jobs] spawns [jobs - 1] worker domains; the submitting
     (main) domain helps drain the queue, so [jobs] bounds total
     parallelism and [jobs = 1] degenerates to inline sequential
     execution with no domains spawned.

   - The only submission primitive is [speculate]: a full barrier that
     runs an array of closures and returns their outcomes.  Every task
     body executes under a private [Obs.Collector] (metrics shard +
     trace buffer), so workers never touch the global registry or the
     sink.  Results are then walked on the main domain in index order:
     [commit] (used by [map]) and [commit_result] (the supervisor's)
     merge the task's collector and yield its value or exception;
     [discard] drops both.  Committing in index order is what makes
     parallel observable state byte-identical to a sequential run.

   - Cancellation is cooperative and conservative: a task that has not
     started when its [Obs.Deadline] expires is marked [Cancelled] and
     never runs.  Tasks already running are not interrupted — the task
     body is expected to poll the same deadline itself (the checkers
     do, via their own budget plumbing).

   - Nested submission is rejected: a task body calling back into any
     pool would deadlock under caller-help and break the determinism
     story, so it raises [Invalid_argument] immediately. *)

module Deadline = Obs.Deadline

type task_cell = { run : unit -> unit }

type t = {
  jobs : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : task_cell Queue.t;
  mutable alive : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let default_jobs_cap = 8
let default_jobs () = max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let in_task_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_task () = Domain.DLS.get in_task_key

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    let rec await () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
        if not t.alive then None
        else begin
          Condition.wait t.nonempty t.lock;
          await ()
        end
    in
    let task = await () in
    Mutex.unlock t.lock;
    match task with
    | None -> ()
    | Some task ->
      task.run ();
      loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      alive = true;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.alive <- false;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type 'b outcome =
  | Done of 'b * Obs.Collector.t
  | Raised of exn * Printexc.raw_backtrace * Obs.Collector.t
  | Cancelled

type 'b speculation = {
  mutable outcome : 'b outcome option; (* None = pending *)
  mutable consumed : bool;
      (* set by commit/commit_result/discard: each speculation's
         collector is merged or dropped exactly once, so cleanup
         finalizers can blanket-[discard] without double-counting *)
}

let run_collected f =
  let coll = Obs.Collector.create () in
  let saved = Obs.Collector.activate coll in
  Domain.DLS.set in_task_key true;
  let r =
    match f () with
    | v -> Done (v, coll)
    | exception e -> Raised (e, Printexc.get_raw_backtrace (), coll)
  in
  Domain.DLS.set in_task_key false;
  Obs.Collector.deactivate saved;
  r

let speculate t ?(deadline = Deadline.never) (fs : (unit -> 'b) array) :
    'b speculation array =
  if in_task () then
    invalid_arg "Par.Pool.speculate: nested submission from inside a pool task";
  if not t.alive then invalid_arg "Par.Pool.speculate: pool is shut down";
  let n = Array.length fs in
  let slots = Array.init n (fun _ -> { outcome = None; consumed = false }) in
  let exec i =
    let slot = slots.(i) in
    if Deadline.expired deadline then slot.outcome <- Some Cancelled
    else slot.outcome <- Some (run_collected fs.(i))
  in
  if n = 0 then slots
  else if t.jobs = 1 then begin
    for i = 0 to n - 1 do
      exec i
    done;
    slots
  end
  else begin
    let remaining = ref n in
    let batch_done = Condition.create () in
    let task i =
      {
        run =
          (fun () ->
            exec i;
            Mutex.lock t.lock;
            decr remaining;
            if !remaining = 0 then Condition.broadcast batch_done;
            Mutex.unlock t.lock);
      }
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.nonempty;
    (* the caller helps until the queue is empty, then waits for
       in-flight tasks to finish *)
    let rec drive () =
      match Queue.take_opt t.queue with
      | Some cell ->
        Mutex.unlock t.lock;
        cell.run ();
        Mutex.lock t.lock;
        drive ()
      | None -> if !remaining > 0 then begin
          Condition.wait batch_done t.lock;
          drive ()
        end
    in
    drive ();
    Mutex.unlock t.lock;
    slots
  end

(* Speculation accounting.  Consuming and discarding only ever run on
   the main domain, so plain registry counters are safe.  The values
   are a parallelism diagnostic: finished work is thrown away only
   behind a task that raised inside [map], so [discarded] stays 0 on a
   clean run.  They are deliberately NOT part of any report compared
   across job counts. *)
let m_committed = Obs.Metrics.counter "par.speculations.committed"
let m_discarded = Obs.Metrics.counter "par.speculations.discarded"
let m_cancelled = Obs.Metrics.counter "par.speculations.cancelled"

let commit_result (s : 'b speculation) :
    ('b, exn * Printexc.raw_backtrace) result option =
  let outcome =
    match s.outcome with
    | None -> invalid_arg "Par.Pool.commit_result: speculation still pending"
    | Some _ when s.consumed ->
      invalid_arg "Par.Pool.commit_result: speculation already consumed"
    | Some o ->
      s.consumed <- true;
      o
  in
  match outcome with
  | Cancelled ->
    Obs.Metrics.incr m_cancelled;
    None
  | Done (v, coll) ->
    Obs.Collector.commit coll;
    Obs.Metrics.incr m_committed;
    Some (Ok v)
  | Raised (e, bt, coll) ->
    Obs.Collector.commit coll;
    Obs.Metrics.incr m_committed;
    Some (Error (e, bt))

let commit (s : 'b speculation) : 'b option =
  match commit_result s with
  | None -> None
  | Some (Ok v) -> Some v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt

let discard (s : _ speculation) =
  if not s.consumed then
    match s.outcome with
    | Some (Done (_, coll)) | Some (Raised (_, _, coll)) ->
      s.consumed <- true;
      Obs.Collector.discard coll;
      Obs.Metrics.incr m_discarded
    | Some Cancelled -> s.consumed <- true
    | None -> ()

(* [map] blanket-discards the batch in a finalizer: if a commit
   re-raises a task's exception mid-walk, the collectors of the
   not-yet-consumed speculations are dropped instead of stranded
   (consume-once makes the blanket pass a no-op for the
   already-committed prefix). *)

let map t ?deadline ~f xs =
  let specs = speculate t ?deadline (Array.map (fun x () -> f x) xs) in
  let out = Array.make (Array.length specs) None in
  Fun.protect
    ~finally:(fun () -> Array.iter discard specs)
    (fun () ->
      for i = 0 to Array.length specs - 1 do
        out.(i) <- commit specs.(i)
      done);
  out
