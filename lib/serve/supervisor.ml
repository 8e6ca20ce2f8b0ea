module J = Obs.Json

type config = {
  state_dir : string;
  jobs : int;
  slice_rounds : int;
  retry : Retry.policy;
  seed : int64;
  chaos : Chaos.t option;
  poll_seconds : float;
}

let default_config ~state_dir =
  {
    state_dir;
    jobs = 1;
    slice_rounds = 2;
    retry = Retry.default;
    seed = 0xC0FFEEL;
    chaos = None;
    poll_seconds = 0.05;
  }

type pull = Line of string | Waiting | Eof

let file_source path =
  let fd =
    if path = "-" then Unix.stdin
    else Unix.openfile path [ Unix.O_RDONLY ] 0
  in
  let buf = Buffer.create 256 in
  let pending = Queue.create () in
  let eof = ref false in
  let chunk = Bytes.create 4096 in
  fun () ->
    if not (Queue.is_empty pending) then Line (Queue.pop pending)
    else if !eof then Eof
    else
      let readable =
        match Unix.select [ fd ] [] [] 0.05 with
        | rs, _, _ -> rs <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if not readable then Waiting
      else
        let n =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | n -> n
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> -1
        in
        if n < 0 then Waiting
        else if n = 0 then begin
          eof := true;
          if Buffer.length buf > 0 then begin
            Queue.push (Buffer.contents buf) pending;
            Buffer.clear buf
          end;
          if Queue.is_empty pending then Eof else Line (Queue.pop pending)
        end
        else begin
          for i = 0 to n - 1 do
            match Bytes.get chunk i with
            | '\n' ->
              Queue.push (Buffer.contents buf) pending;
              Buffer.clear buf
            | c -> Buffer.add_char buf c
          done;
          if Queue.is_empty pending then Waiting else Line (Queue.pop pending)
        end

type outcome = {
  completed : int;
  failed : int;
  rejected : int;
  recovered : int;
  status : J.t;
  clean_exit : bool;
}

(* ---- state directory layout ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let journal_file c = Filename.concat c.state_dir "journal"
let results_dir c = Filename.concat c.state_dir "results"

(* result file names, relative to the state directory (the journal's) *)
let result_json id = Filename.concat "results" (id ^ ".json")
let result_blif id = Filename.concat "results" (id ^ ".blif")

(* ---- supervisor state ---- *)

type st = {
  config : config;
  journal : Journal.t;
  queue : Jobq.t;
  fleet : Obs.Fleet.t;
  emit : J.t -> unit;
  pool : Par.Pool.t;
  retries : (string, Retry.t) Hashtbl.t;
  submit_time : (string, float) Hashtbl.t;
  mutable draining : bool;
  mutable eof : bool;
  mutable stop : bool;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
  mutable recovered : int;
  (* ack events of submits not yet in a queue snapshot, newest first *)
  mutable acks : (string * J.t) list list;
}

let m_snapshots = Obs.Metrics.counter "serve.queue_snapshots"

let persist_queue ?extra st =
  Obs.Metrics.incr m_snapshots;
  Journal.set_queue st.journal (J.to_string (Jobq.to_json ?extra st.queue))

(* The acks of a run of submits wait for one queue snapshot that holds
   them all, so an acked job is always durable.  Any other event
   flushes them first, so events keep the order of the lines that
   caused them. *)
let rec flush_acks st =
  if st.acks <> [] then begin
    let acks = List.rev st.acks in
    st.acks <- [];
    persist_queue st;
    List.iter (event st "ack") acks
  end

(* the same stream convention as [Obs.Trace]: every record carries an
   ["ev"] tag and the first one is a [run_start] header, so
   [json_check --jsonl] validates serve event logs unchanged *)
and event st name fields =
  flush_acks st;
  st.emit (J.Obj (("ev", J.String name) :: fields))

let line_prefix line =
  if String.length line <= 80 then line else String.sub line 0 80 ^ "..."

(* ---- request handling ---- *)

let known st id =
  Obs.Fleet.state_of st.fleet ~id <> None || Journal.finished st.journal id

let reject st ~injected e line =
  st.rejected <- st.rejected + 1;
  Obs.Fleet.count st.fleet "rejected";
  event st "rejected"
    ([
       ("error", J.String (Protocol.error_name e));
       ("detail", J.String (Protocol.error_detail e));
       ("line", J.String (line_prefix line));
     ]
    @ if injected then [ ("injected", J.Bool true) ] else [])

let handle_line st ?(injected = false) raw =
  let line = String.trim raw in
  if line = "" then ()
  else
    match Protocol.parse line with
    | Error e -> reject st ~injected e line
    | Ok (Protocol.Submit job) ->
      let id = job.Protocol.id in
      if known st id then reject st ~injected (Protocol.Duplicate_id id) line
      else begin
        ignore (Jobq.submit st.queue job);
        Hashtbl.replace st.submit_time id (Obs.Clock.now ());
        Obs.Fleet.transition st.fleet ~id Obs.Fleet.Queued;
        Obs.Fleet.count st.fleet "submitted";
        st.acks <-
          [
            ("id", J.String id);
            ("priority", J.Int job.Protocol.priority);
            ("queue_depth", J.Int (Jobq.length st.queue));
          ]
          :: st.acks
      end
    | Ok Protocol.Status ->
      event st "status" [ ("fleet", Obs.Fleet.to_json st.fleet) ]
    | Ok Protocol.Drain ->
      st.draining <- true;
      event st "draining" []
    | Ok Protocol.Shutdown ->
      st.stop <- true;
      event st "shutdown_requested" []

(* ---- job execution ---- *)

let circuit_of_job (job : Protocol.job) =
  match job.Protocol.source with
  | Protocol.Suite name -> (
    match Circuits.Suite.find name with
    | Some spec -> Circuits.Suite.mapped spec
    | None -> failwith ("fatal: suite circuit vanished: " ^ name))
  | Protocol.Blif text -> (
    match Blif.Blif_io.circuit_of_string Gatelib.Library.lib2 text with
    | Ok c -> c
    | Error e ->
      failwith ("fatal: blif re-parse: " ^ Blif.Blif_io.error_to_string e))

let manifest st (job : Protocol.job) =
  let o = job.Protocol.options in
  Obs.Runinfo.create ~tool:"powder_serve" ~jobs:st.config.jobs
    ~seed:(Int64.of_int o.Protocol.seed)
    ~circuit:
      (match job.Protocol.source with
      | Protocol.Suite n -> n
      | Protocol.Blif _ -> "blif:" ^ job.Protocol.id)
    ~options:
      ([
         ("kind", Protocol.kind_name job.Protocol.kind);
         ("words", string_of_int o.Protocol.words);
         ("max_rounds", string_of_int o.Protocol.max_rounds);
         ( "budget_seconds",
           match o.Protocol.budget_seconds with
           | None -> "-"
           | Some b -> string_of_float b );
         ("cost", Pareto.Cost.to_string o.Protocol.cost);
         ("priority", string_of_int job.Protocol.priority);
       ]
      @
      match job.Protocol.kind with
      | Protocol.Optimize -> []
      | Protocol.Pareto ->
        [
          ( "constraints",
            String.concat ","
              (List.map Pareto.Sweep.spec_to_string
                 (Option.value o.Protocol.constraints
                    ~default:Pareto.Sweep.default_specs)) );
        ])
    ()

(* What a slice returns: a classic optimizer slice (report + final
   BLIF) or a whole frontier sweep (pareto jobs run in one slice —
   their preemption granularity is the per-point checkpoint, not the
   round). *)
type payload =
  | Optimized of Powder.Optimizer.report * string
  | Swept of Pareto.Sweep.report

type prepared = { entry : Jobq.entry; task : unit -> payload * float }

(* A job's checkpoints are journal records keyed by its id: an
   optimize job's under [optimize_key], a pareto job's one per frontier
   point (the sweep's [point-<label>] keys). *)
let optimize_key = "optimize"

let has_checkpoint st (job : Protocol.job) =
  Journal.has_job st.journal job.Protocol.id

let remove_checkpoint st (job : Protocol.job) =
  Journal.drop st.journal ~job:job.Protocol.id ()

(* Resolve the checkpoint (surfacing corruption as a typed event and a
   rollback) and build the slice closure.  Chaos decisions are made
   here, on the main domain — the task body must not touch shared
   mutable state. *)
let prepare_optimize st (entry : Jobq.entry) =
  let job = entry.Jobq.job in
  let id = job.Protocol.id in
  let store = Journal.checkpoints st.journal ~job:id in
  let resume =
    if not entry.Jobq.resumable then None
    else
      match store.Powder.Checkpoint.load optimize_key with
      | None -> None
      | Some (Ok ck) -> Some ck
      | Some (Error e) ->
        event st "checkpoint_corrupt"
          [
            ("id", J.String id);
            ("error", J.String (Powder.Checkpoint.error_to_string e));
          ];
        Obs.Fleet.count st.fleet "rollbacks";
        store.Powder.Checkpoint.drop optimize_key;
        entry.Jobq.resumable <- false;
        None
  in
  let o = job.Protocol.options in
  let base_round =
    match resume with Some ck -> ck.Powder.Checkpoint.round | None -> 0
  in
  let slice_max =
    min o.Protocol.max_rounds (base_round + st.config.slice_rounds)
  in
  let budget_left =
    match o.Protocol.budget_seconds with
    | None -> None
    | Some b -> Some (Float.max 0.0 (b -. entry.Jobq.consumed))
  in
  let stormed =
    match st.config.chaos with
    | Some c -> Chaos.storm_now c ~id
    | None -> false
  in
  let crash =
    match st.config.chaos with
    | Some c -> Chaos.crash_now c ~id
    | None -> false
  in
  let run_seconds = if stormed then Some 0.0 else budget_left in
  let opt_config =
    {
      Powder.Optimizer.default_config with
      words = o.Protocol.words;
      seed = Int64.of_int o.Protocol.seed;
      max_rounds = slice_max;
      run_seconds;
      checkpoint_sink = Some (store.Powder.Checkpoint.save optimize_key);
      jobs = 1;
    }
  in
  let task () =
    let t0 = Obs.Clock.now () in
    let circ = circuit_of_job job in
    let report = Powder.Optimizer.optimize ~config:opt_config ?resume circ in
    let blif = Blif.Blif_io.circuit_to_string circ in
    let elapsed = Obs.Clock.now () -. t0 in
    (* injected crash fires after the slice's checkpoint is on disk:
       the retry must resume mid-job, the hardest recovery path *)
    if crash then raise (Failure.Crashed "injected worker crash");
    (Optimized (report, blif), elapsed)
  in
  { entry; task }

(* A pareto job is one slice: the sweep runs every constraint point to
   completion, checkpointing each point to the journal under the job's
   id so a crashed or stormed slice retries by re-running only the
   unfinished points (finished ones resume to their final report
   instantly). *)
let prepare_pareto st (entry : Jobq.entry) =
  let job = entry.Jobq.job in
  let id = job.Protocol.id in
  let o = job.Protocol.options in
  let store = Journal.checkpoints st.journal ~job:id in
  let budget_left =
    match o.Protocol.budget_seconds with
    | None -> None
    | Some b -> Some (Float.max 0.0 (b -. entry.Jobq.consumed))
  in
  let stormed =
    match st.config.chaos with
    | Some c -> Chaos.storm_now c ~id
    | None -> false
  in
  let crash =
    match st.config.chaos with
    | Some c -> Chaos.crash_now c ~id
    | None -> false
  in
  (* the budget is per point: each point's optimizer stops cleanly on
     expiry, and handle_outcome decides timeout vs. spurious storm *)
  let run_seconds = if stormed then Some 0.0 else budget_left in
  let opt_config =
    {
      Powder.Optimizer.default_config with
      words = o.Protocol.words;
      seed = Int64.of_int o.Protocol.seed;
      max_rounds = o.Protocol.max_rounds;
      run_seconds;
      cost = o.Protocol.cost;
      jobs = 1;
    }
  in
  let specs =
    Option.value o.Protocol.constraints ~default:Pareto.Sweep.default_specs
  in
  let name =
    match job.Protocol.source with
    | Protocol.Suite n -> n
    | Protocol.Blif _ -> "blif:" ^ id
  in
  let task () =
    let t0 = Obs.Clock.now () in
    let sweep =
      Pareto.Sweep.run ~config:opt_config ~specs ~jobs:1 ~checkpoint:store
        ~name
        (fun () -> circuit_of_job job)
    in
    let elapsed = Obs.Clock.now () -. t0 in
    if crash then raise (Failure.Crashed "injected worker crash");
    (Swept sweep, elapsed)
  in
  { entry; task }

let prepare st (entry : Jobq.entry) =
  match entry.Jobq.job.Protocol.kind with
  | Protocol.Optimize -> prepare_optimize st entry
  | Protocol.Pareto -> prepare_pareto st entry

let fail_job st (entry : Jobq.entry) ~klass ~why =
  let id = entry.Jobq.job.Protocol.id in
  st.failed <- st.failed + 1;
  Obs.Fleet.transition st.fleet ~id Obs.Fleet.Failed;
  Obs.Fleet.count st.fleet "failed";
  remove_checkpoint st entry.Jobq.job;
  Hashtbl.remove st.retries id;
  event st "job_failed"
    [
      ("id", J.String id);
      ("class", J.String (Failure.klass_name klass));
      ("error", J.String why);
    ]

let transient st (entry : Jobq.entry) ~now ~why =
  let id = entry.Jobq.job.Protocol.id in
  let r =
    match Hashtbl.find_opt st.retries id with
    | Some r -> r
    | None ->
      let r = Retry.create st.config.retry ~seed:st.config.seed ~job_id:id in
      Hashtbl.add st.retries id r;
      r
  in
  match Retry.next_delay r with
  | None -> fail_job st entry ~klass:Failure.Transient ~why:("retries exhausted: " ^ why)
  | Some delay ->
    entry.Jobq.retries <- entry.Jobq.retries + 1;
    entry.Jobq.not_before <- now +. delay;
    entry.Jobq.resumable <- has_checkpoint st entry.Jobq.job;
    Obs.Fleet.count st.fleet "retries";
    Obs.Fleet.transition st.fleet ~id Obs.Fleet.Retrying;
    event st "retry"
      [
        ("id", J.String id);
        ("attempt", J.Int (Retry.attempts r));
        ("delay_s", J.Float delay);
        ("error", J.String why);
      ];
    Jobq.requeue st.queue entry

let finalize_common st (entry : Jobq.entry) ~blif ~report_json ~done_fields =
  let job = entry.Jobq.job in
  let id = job.Protocol.id in
  let report_json =
    match report_json with
    | J.Obj fields ->
      J.Obj (("run", Obs.Runinfo.to_json (manifest st job)) :: fields)
    | other -> other
  in
  (* one record holds the results and drops the job's checkpoints *)
  Journal.finish st.journal ~job:id
    ((match blif with Some b -> [ (result_blif id, b) ] | None -> [])
    @ [ (result_json id, J.to_string report_json ^ "\n") ]);
  Hashtbl.remove st.retries id;
  st.completed <- st.completed + 1;
  Obs.Fleet.transition st.fleet ~id Obs.Fleet.Done;
  Obs.Fleet.count st.fleet "completed";
  let latency =
    match Hashtbl.find_opt st.submit_time id with
    | Some t0 -> Obs.Clock.now () -. t0
    | None -> entry.Jobq.consumed
  in
  Obs.Fleet.observe_latency st.fleet latency;
  event st "job_done"
    ([ ("id", J.String id); ("kind", J.String (Protocol.kind_name job.Protocol.kind)) ]
    @ done_fields
    @ [
        ("latency_s", J.Float latency);
        ("retries", J.Int entry.Jobq.retries);
        ("preemptions", J.Int entry.Jobq.preemptions);
      ])

let finalize st (entry : Jobq.entry) (report : Powder.Optimizer.report) blif =
  finalize_common st entry ~blif:(Some blif)
    ~report_json:(Powder.Optimizer.report_to_json report)
    ~done_fields:
      [
        ("rounds", J.Int report.Powder.Optimizer.funnel.rounds);
        ("substitutions", J.Int report.Powder.Optimizer.funnel.substitutions);
        ("stopped_by", J.String report.Powder.Optimizer.stopped_by);
        ( "power_reduction_percent",
          J.Float (Powder.Optimizer.power_reduction_percent report) );
      ]

(* No result BLIF for a sweep: every frontier point is a different
   netlist; the per-point reports live inside the result JSON. *)
let finalize_pareto st (entry : Jobq.entry) (sweep : Pareto.Sweep.report) =
  finalize_common st entry ~blif:None
    ~report_json:(Pareto.Sweep.to_json sweep)
    ~done_fields:
      [
        ("points", J.Int (List.length sweep.Pareto.Sweep.points));
        ("frontier", J.Int (List.length sweep.Pareto.Sweep.frontier));
        ("dominated", J.Int sweep.Pareto.Sweep.dominated);
        ( "substitutions",
          J.Int
            (List.fold_left
               (fun acc (p : Pareto.Frontier.point) ->
                 acc + p.Pareto.Frontier.substitutions)
               0 sweep.Pareto.Sweep.points) );
      ]

(* corrupt the checkpoint: append a put of its first half, enough to
   garble the JSON in an intact record, so the decode path (not a
   missing-key path) runs *)
let garble_ck st id =
  match Journal.find st.journal ~job:id ~key:optimize_key with
  | Some payload when String.length payload > 1 ->
    Journal.put st.journal ~job:id ~key:optimize_key
      (String.sub payload 0 (String.length payload / 2))
  | _ -> ()

let handle_outcome st prep result =
  let entry = prep.entry in
  let job = entry.Jobq.job in
  let id = job.Protocol.id in
  let o = job.Protocol.options in
  let now = Obs.Clock.now () in
  match result with
  | None -> transient st entry ~now ~why:"slice cancelled before start"
  | Some (Error ((e : exn), _bt)) -> (
    let why = Printexc.to_string e in
    match Failure.classify_exn e with
    | Failure.Transient -> transient st entry ~now ~why
    | (Failure.Fatal | Failure.Malformed | Failure.Timeout) as k ->
      fail_job st entry ~klass:k ~why)
  | Some (Ok (Swept sweep, elapsed)) ->
    entry.Jobq.consumed <- entry.Jobq.consumed +. elapsed;
    let hit_budget =
      List.exists
        (fun (_, (r : Powder.Optimizer.report)) ->
          String.equal r.Powder.Optimizer.stopped_by "run_budget")
        sweep.Pareto.Sweep.reports
    in
    if hit_budget then begin
      (* same spurious-timeout rule as optimize slices: a stormed
         deadline with budget to spare is transient, a genuinely
         exhausted budget is a timeout *)
      let spurious =
        match o.Protocol.budget_seconds with
        | None -> true
        | Some b -> b -. entry.Jobq.consumed > 1e-6
      in
      if spurious then transient st entry ~now ~why:"spurious deadline expiry"
      else
        fail_job st entry ~klass:Failure.Timeout
          ~why:
            (Printf.sprintf "wall-clock budget (%.3fs) exhausted"
               (Option.value o.Protocol.budget_seconds ~default:0.0))
    end
    else finalize_pareto st entry sweep
  | Some (Ok (Optimized (report, blif), elapsed)) ->
    entry.Jobq.consumed <- entry.Jobq.consumed +. elapsed;
    if String.equal report.Powder.Optimizer.stopped_by "run_budget" then begin
      (* Spurious-timeout rule: the optimizer's deadline fired, but is
         the job's own budget really gone?  A deadline storm expires
         the slice deadline while the job has budget to spare — that
         is a transient fault, not a timeout. *)
      let spurious =
        match o.Protocol.budget_seconds with
        | None -> true
        | Some b -> b -. entry.Jobq.consumed > 1e-6
      in
      if spurious then transient st entry ~now ~why:"spurious deadline expiry"
      else
        fail_job st entry ~klass:Failure.Timeout
          ~why:
            (Printf.sprintf "wall-clock budget (%.3fs) exhausted"
               (Option.value o.Protocol.budget_seconds ~default:0.0))
    end
    else begin
      let finished =
        (not (String.equal report.Powder.Optimizer.stopped_by "max_rounds"))
        || report.Powder.Optimizer.funnel.rounds >= o.Protocol.max_rounds
      in
      (* Job-level stop reason: a retried {e final} slice resumes a
         checkpoint that already sits at the round cap, so the
         optimizer has nothing left to do and reports [converged] —
         but an undisturbed run of the same job stops with
         [max_rounds].  Normalize so disturbed and clean runs emit
         identical reports. *)
      let report =
        if
          finished
          && String.equal report.Powder.Optimizer.stopped_by "converged"
          && report.Powder.Optimizer.funnel.rounds >= o.Protocol.max_rounds
        then { report with Powder.Optimizer.stopped_by = "max_rounds" }
        else report
      in
      if finished then finalize st entry report blif
      else begin
        (* mid-job slice boundary *)
        entry.Jobq.resumable <- true;
        (match st.config.chaos with
        | Some c when Chaos.corrupt_now c ~id -> garble_ck st id
        | _ -> ());
        Obs.Fleet.transition st.fleet ~id Obs.Fleet.Queued;
        Jobq.requeue st.queue entry
      end
    end

(* A mid-job entry (it holds a checkpoint) that is runnable right now
   but was passed over because every batch slot went to higher
   priorities has been {e preempted}: it sits suspended at a slice
   boundary while more urgent work runs, and will resume from its
   checkpoint bit-identically.  Marked once per suspension — the
   Preempted state clears when the entry next runs. *)
let note_preemptions st batch ~now =
  let top =
    List.fold_left
      (fun m (e : Jobq.entry) -> max m e.Jobq.job.Protocol.priority)
      min_int batch
  in
  List.iter
    (fun (e : Jobq.entry) ->
      let id = e.Jobq.job.Protocol.id in
      if
        e.Jobq.resumable
        && e.Jobq.not_before <= now
        && e.Jobq.job.Protocol.priority < top
        && Obs.Fleet.state_of st.fleet ~id <> Some Obs.Fleet.Preempted
      then begin
        e.Jobq.preemptions <- e.Jobq.preemptions + 1;
        Obs.Fleet.count st.fleet "preemptions";
        Obs.Fleet.transition st.fleet ~id Obs.Fleet.Preempted;
        event st "preempted"
          [
            ("id", J.String id);
            ("priority", J.Int e.Jobq.job.Protocol.priority);
            ("by_priority", J.Int top);
          ]
      end)
    (Jobq.to_list st.queue)

let run_batch st entries =
  let now = Obs.Clock.now () in
  note_preemptions st entries ~now;
  List.iter
    (fun (e : Jobq.entry) ->
      e.Jobq.attempts <- e.Jobq.attempts + 1;
      Obs.Fleet.transition st.fleet ~id:e.Jobq.job.Protocol.id
        Obs.Fleet.Running)
    entries;
  (* snapshot with the running entries included: a hard kill during
     the slice must not lose them *)
  persist_queue ~extra:entries st;
  let preps = List.map (prepare st) entries in
  let specs =
    Par.Pool.speculate st.pool
      (Array.of_list (List.map (fun p () -> p.task ()) preps))
  in
  List.iteri
    (fun i prep -> handle_outcome st prep (Par.Pool.commit_result specs.(i)))
    preps;
  persist_queue st

(* ---- startup recovery ---- *)

let recover st =
  match Journal.queue st.journal with
  | None -> ()
  | Some snapshot ->
    let parsed =
      match J.of_string snapshot with
      | Error e -> Error e
      | Ok j -> (
        match Jobq.of_json j with
        | Error e -> Error (Protocol.error_detail e)
        | Ok q -> Ok q)
    in
    match parsed with
    | Error e ->
      (* a corrupt queue snapshot must not kill the server: start
         empty, but say so loudly *)
      event st "recover_failed" [ ("error", J.String e) ]
    | Ok old ->
      let requeued = ref [] and done_ = ref [] in
      List.iter
        (fun (e : Jobq.entry) ->
          let id = e.Jobq.job.Protocol.id in
          if Journal.finished st.journal id then done_ := id :: !done_
          else begin
            let e' = Jobq.submit st.queue e.Jobq.job in
            e'.Jobq.attempts <- e.Jobq.attempts;
            e'.Jobq.retries <- e.Jobq.retries;
            e'.Jobq.preemptions <- e.Jobq.preemptions;
            e'.Jobq.consumed <- e.Jobq.consumed;
            e'.Jobq.resumable <- has_checkpoint st e.Jobq.job;
            Hashtbl.replace st.submit_time id (Obs.Clock.now ());
            Obs.Fleet.transition st.fleet ~id Obs.Fleet.Queued;
            st.recovered <- st.recovered + 1;
            Obs.Fleet.count st.fleet "recovered";
            requeued := id :: !requeued
          end)
        (Jobq.to_list old);
      if !requeued <> [] || !done_ <> [] then
        event st "recovered"
          [
            ( "requeued",
              J.List (List.rev_map (fun s -> J.String s) !requeued) );
            ( "already_done",
              J.List (List.rev_map (fun s -> J.String s) !done_) );
          ]

(* ---- the event loop ---- *)

let sleepf s =
  if s > 0.0 then
    try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run config ~source ~emit ?(should_stop = fun () -> false) () =
  mkdir_p config.state_dir;
  mkdir_p (results_dir config);
  let journal = Journal.open_ (journal_file config) in
  let st =
    {
      config;
      journal;
      queue = Jobq.create ();
      fleet = Obs.Fleet.create ();
      emit;
      pool = Par.Pool.create ~jobs:config.jobs ();
      retries = Hashtbl.create 16;
      submit_time = Hashtbl.create 16;
      draining = false;
      eof = false;
      stop = false;
      completed = 0;
      failed = 0;
      rejected = 0;
      recovered = 0;
      acks = [];
    }
  in
  Fun.protect ~finally:(fun () ->
      Par.Pool.shutdown st.pool;
      Journal.close journal)
  @@ fun () ->
  event st "run_start"
    [
      ("tool", J.String "powder_serve");
      ("state_dir", J.String config.state_dir);
      ("jobs", J.Int config.jobs);
      ("slice_rounds", J.Int config.slice_rounds);
      ("seed", J.String (Int64.to_string config.seed));
      ( "chaos",
        match config.chaos with
        | None -> J.Null
        | Some c -> J.String (Chaos.fault_name (Chaos.fault c)) );
    ];
  recover st;
  (match config.chaos with
  | Some c ->
    List.iter (fun l -> handle_line st ~injected:true l) (Chaos.malformed_lines c);
    flush_acks st
  | None -> ());
  let outcome clean_exit =
    {
      completed = st.completed;
      failed = st.failed;
      rejected = st.rejected;
      recovered = st.recovered;
      status = Obs.Fleet.to_json st.fleet;
      clean_exit;
    }
  in
  let finish_drained () =
    persist_queue st;
    event st "drained"
      [
        ("completed", J.Int st.completed);
        ("failed", J.Int st.failed);
        ("rejected", J.Int st.rejected);
        ("fleet", Obs.Fleet.to_json st.fleet);
      ];
    outcome true
  in
  let finish_stopped () =
    persist_queue st;
    event st "shutdown"
      [
        ("pending", J.Int (Jobq.length st.queue));
        ("fleet", Obs.Fleet.to_json st.fleet);
      ];
    outcome false
  in
  let rec loop () =
    if st.stop || should_stop () then finish_stopped ()
    else begin
      (* drain whatever input is ready, without starving the queue *)
      let rec read_avail n =
        if n > 0 && not (st.eof || st.draining || st.stop) then
          match source () with
          | Line l ->
            handle_line st l;
            read_avail (n - 1)
          | Waiting -> ()
          | Eof ->
            st.eof <- true;
            event st "input_eof" []
      in
      read_avail 64;
      flush_acks st;
      if st.stop || should_stop () then finish_stopped ()
      else begin
        let now = Obs.Clock.now () in
        let rec take k acc =
          if k = 0 then List.rev acc
          else
            match Jobq.pop_runnable st.queue ~now with
            | Some e -> take (k - 1) (e :: acc)
            | None -> List.rev acc
        in
        let batch = take config.jobs [] in
        (* jobs whose own budget is gone before the slice even starts *)
        let runnable, exhausted =
          List.partition
            (fun (e : Jobq.entry) ->
              match e.Jobq.job.Protocol.options.Protocol.budget_seconds with
              | Some b -> b -. e.Jobq.consumed > 1e-6
              | None -> true)
            batch
        in
        List.iter
          (fun (e : Jobq.entry) ->
            fail_job st e ~klass:Failure.Timeout
              ~why:"wall-clock budget exhausted before slice")
          exhausted;
        if exhausted <> [] then persist_queue st;
        (match runnable with
        | [] ->
          if (st.eof || st.draining) && Jobq.is_empty st.queue then ()
          else begin
            (match Jobq.next_wakeup st.queue ~now with
            | Some w ->
              sleepf (Float.min config.poll_seconds (Float.max 0.0 (w -. now)))
            | None ->
              (* nothing queued: the source's select already paced us
                 unless input is closed *)
              if st.eof || st.draining then sleepf config.poll_seconds)
          end
        | runnable -> run_batch st runnable);
        if (st.eof || st.draining) && Jobq.is_empty st.queue then
          finish_drained ()
        else loop ()
      end
    end
  in
  loop ()
