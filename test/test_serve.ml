(* The batch optimization service: strict protocol parsing against the
   hostile corpus, deterministic retry backoff, priority scheduling,
   failure classification, and the end-to-end supervisor contracts —
   drain, preemption, chaos-under-fault byte-identical outputs, and
   kill/restart recovery. *)

module Protocol = Serve.Protocol
module Supervisor = Serve.Supervisor

(* ------------------------------------------------------------------ *)
(* Helpers.                                                            *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let f = Filename.temp_file "serve_test" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let read_file path =
  match Serve.Persist.read_file path with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let list_source lines =
  let q = Queue.create () in
  List.iter (fun l -> Queue.push l q) lines;
  fun () ->
    if Queue.is_empty q then Supervisor.Eof else Supervisor.Line (Queue.pop q)

let staged_source pulls =
  let r = ref pulls in
  fun () ->
    match !r with
    | [] -> Supervisor.Eof
    | p :: tl ->
      r := tl;
      p

let event_name = function
  | Obs.Json.Obj fields -> (
    match List.assoc_opt "ev" fields with
    | Some (Obs.Json.String n) -> n
    | _ -> "?")
  | _ -> "?"

let run_supervisor ?(slice_rounds = 1) ?(jobs = 1) ?chaos ?should_stop ~dir
    source =
  let config =
    {
      (Supervisor.default_config ~state_dir:dir) with
      slice_rounds;
      jobs;
      chaos;
      retry = { Serve.Retry.default with Serve.Retry.base = 0.002; cap = 0.01 };
    }
  in
  let events = ref [] in
  let emit j = events := j :: !events in
  let outcome = Supervisor.run config ~source ~emit ?should_stop () in
  (outcome, List.rev !events)

let submit ?(priority = 0) ?(max_rounds = 2) ?(circuit = "rd84") id =
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":%S,\"circuit\":%S,\"priority\":%d,\"options\":{\"words\":4,\"max_rounds\":%d}}"
    id circuit priority max_rounds

(* ------------------------------------------------------------------ *)
(* Protocol parsing.                                                   *)
(* ------------------------------------------------------------------ *)

let test_corpus_all_rejected () =
  Array.iter
    (fun (label, line) ->
      match Protocol.parse line with
      | Ok _ -> Alcotest.fail (label ^ ": hostile line parsed as a request")
      | Error e ->
        Alcotest.(check bool)
          (label ^ ": error has a name") true
          (String.length (Protocol.error_name e) > 0))
    (Fuzz.Proto.corpus ());
  match Protocol.parse (Fuzz.Proto.valid_submit ()) with
  | Ok (Protocol.Submit j) ->
    Alcotest.(check string) "valid submit id" "job-ok" j.Protocol.id
  | _ -> Alcotest.fail "valid submit line rejected"

let test_typed_errors () =
  let expect line name =
    match Protocol.parse line with
    | Error e -> Alcotest.(check string) line name (Protocol.error_name e)
    | Ok _ -> Alcotest.fail (line ^ ": accepted")
  in
  expect "{\"op\":\"nope\"}" "unknown_op";
  expect "{\"op\":\"submit\",\"circuit\":\"rd84\"}" "missing_field";
  expect
    "{\"op\":\"submit\",\"id\":\"x\",\"circuit\":\"rd84\",\"oops\":1}"
    "unknown_field";
  expect
    "{\"op\":\"submit\",\"id\":\"x\",\"circuit\":\"rd84\",\"options\":{\"words\":0}}"
    "absurd_value";
  expect
    "{\"op\":\"submit\",\"id\":\"x\",\"circuit\":\"rd84\",\"priority\":9999}"
    "absurd_value";
  expect "{\"op\":\"submit\",\"id\":\"x\",\"circuit\":\"zz_missing\"}"
    "unknown_circuit";
  expect "{\"op\":\"submit\",\"id\":\"x\"}" "ambiguous_source";
  expect "{\"op\":\"submit\",\"id\":\"has space\",\"circuit\":\"rd84\"}"
    "bad_field";
  expect "{\"op\":\"submit\",\"id\":\"x\",\"blif\":\"garbage\"}" "bad_blif"

let test_job_json_roundtrip () =
  match Protocol.parse (submit ~priority:7 ~max_rounds:5 "rt1") with
  | Ok (Protocol.Submit j) -> (
    match Protocol.job_of_json (Protocol.job_to_json j) with
    | Ok j' -> Alcotest.(check bool) "round-trips exactly" true (j = j')
    | Error e -> Alcotest.fail (Protocol.error_detail e))
  | _ -> Alcotest.fail "submit line rejected"

(* ------------------------------------------------------------------ *)
(* Retry backoff.                                                      *)
(* ------------------------------------------------------------------ *)

let test_retry_deterministic_and_capped () =
  let policy =
    { Serve.Retry.base = 0.05; cap = 0.4; max_attempts = 6; jitter = 0.5 }
  in
  let delays r =
    let rec go acc =
      match Serve.Retry.next_delay r with
      | Some d -> go (d :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let a = delays (Serve.Retry.create policy ~seed:9L ~job_id:"j") in
  let b = delays (Serve.Retry.create policy ~seed:9L ~job_id:"j") in
  let c = delays (Serve.Retry.create policy ~seed:9L ~job_id:"other") in
  Alcotest.(check int) "max_attempts - 1 retries" 5 (List.length a);
  Alcotest.(check bool) "same seed+id => same schedule" true (a = b);
  Alcotest.(check bool) "different id => different jitter" true (a <> c);
  List.iteri
    (fun i d ->
      let nominal = Float.min policy.Serve.Retry.cap (0.05 *. (2.0 ** float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in jitter band" i)
        true
        (d >= nominal *. 0.74 && d <= nominal *. 1.26))
    a

(* ------------------------------------------------------------------ *)
(* Queue ordering and persistence.                                     *)
(* ------------------------------------------------------------------ *)

let job_of_line line =
  match Protocol.parse line with
  | Ok (Protocol.Submit j) -> j
  | _ -> Alcotest.fail ("bad job line: " ^ line)

let test_jobq_order () =
  let q = Serve.Jobq.create () in
  let e1 = Serve.Jobq.submit q (job_of_line (submit ~priority:1 "low1")) in
  let _ = Serve.Jobq.submit q (job_of_line (submit ~priority:1 "low2")) in
  let _ = Serve.Jobq.submit q (job_of_line (submit ~priority:5 "high")) in
  let pop () =
    match Serve.Jobq.pop_runnable q ~now:100.0 with
    | Some e -> e.Serve.Jobq.job.Protocol.id
    | None -> "-"
  in
  Alcotest.(check string) "priority first" "high" (pop ());
  Alcotest.(check string) "FIFO within priority" "low1" (pop ());
  (* backoff: requeued with a future not_before is invisible now *)
  e1.Serve.Jobq.not_before <- 200.0;
  Serve.Jobq.requeue q e1;
  Alcotest.(check string) "backing-off entry skipped" "low2" (pop ());
  Alcotest.(check (option string)) "nothing runnable" None
    (Option.map
       (fun (e : Serve.Jobq.entry) -> e.Serve.Jobq.job.Protocol.id)
       (Serve.Jobq.pop_runnable q ~now:100.0));
  Alcotest.(check (option (float 1e-9))) "wakeup at not_before" (Some 200.0)
    (Serve.Jobq.next_wakeup q ~now:100.0);
  Alcotest.(check string) "runnable after backoff" "low1"
    (match Serve.Jobq.pop_runnable q ~now:200.5 with
    | Some e -> e.Serve.Jobq.job.Protocol.id
    | None -> "-")

let test_jobq_persistence () =
  let q = Serve.Jobq.create () in
  let e = Serve.Jobq.submit q (job_of_line (submit ~priority:3 "p1")) in
  e.Serve.Jobq.retries <- 2;
  e.Serve.Jobq.consumed <- 1.5;
  e.Serve.Jobq.resumable <- true;
  ignore (Serve.Jobq.submit q (job_of_line (submit "p2")));
  (* p1 has the higher priority, so it is popped ("running") *)
  (match Serve.Jobq.pop_runnable q ~now:0.0 with
  | Some e' when e' == e -> ()
  | _ -> Alcotest.fail "popped the wrong entry");
  (* persist the running entry alongside the queued one via ~extra *)
  let j = Serve.Jobq.to_json ~extra:[ e ] q in
  match Serve.Jobq.of_json j with
  | Error err -> Alcotest.fail (Protocol.error_detail err)
  | Ok q' ->
    Alcotest.(check int) "both entries survive" 2 (Serve.Jobq.length q');
    let es = Serve.Jobq.to_list q' in
    let find id =
      List.find
        (fun (x : Serve.Jobq.entry) -> x.Serve.Jobq.job.Protocol.id = id)
        es
    in
    let e' = find "p1" in
    Alcotest.(check int) "retries preserved" 2 e'.Serve.Jobq.retries;
    Alcotest.(check (float 1e-9)) "consumed preserved" 1.5
      e'.Serve.Jobq.consumed;
    Alcotest.(check bool) "resumable preserved" true e'.Serve.Jobq.resumable

(* ------------------------------------------------------------------ *)
(* Failure taxonomy.                                                   *)
(* ------------------------------------------------------------------ *)

let test_classification () =
  let check name expected e =
    Alcotest.(check string)
      name
      (Serve.Failure.klass_name expected)
      (Serve.Failure.klass_name (Serve.Failure.classify_exn e))
  in
  check "crash is transient" Serve.Failure.Transient
    (Serve.Failure.Crashed "boom");
  check "sys_error is transient" Serve.Failure.Transient
    (Sys_error "io hiccup");
  check "oom is fatal" Serve.Failure.Fatal Out_of_memory;
  check "stack overflow is fatal" Serve.Failure.Fatal Stack_overflow;
  check "tagged failure is fatal" Serve.Failure.Fatal
    (Failure "fatal: invariant");
  check "unknown is transient" Serve.Failure.Transient Not_found

(* ------------------------------------------------------------------ *)
(* Fleet status.                                                       *)
(* ------------------------------------------------------------------ *)

let test_fleet_quantiles () =
  let f = Obs.Fleet.create () in
  for i = 1 to 100 do
    Obs.Fleet.observe_latency f (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50 exact" 50.0
    (Obs.Fleet.latency_quantile f 0.5);
  Alcotest.(check (float 1e-9)) "p99 exact" 99.0
    (Obs.Fleet.latency_quantile f 0.99);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Obs.Fleet.latency_quantile f 1.0);
  Obs.Fleet.transition f ~id:"a" Obs.Fleet.Queued;
  Obs.Fleet.transition f ~id:"b" Obs.Fleet.Running;
  Obs.Fleet.transition f ~id:"a" Obs.Fleet.Retrying;
  Alcotest.(check int) "queue depth counts retrying" 1 (Obs.Fleet.queue_depth f);
  Alcotest.(check int) "total ids" 2 (Obs.Fleet.jobs_total f)

(* ------------------------------------------------------------------ *)
(* Supervisor end-to-end.                                              *)
(* ------------------------------------------------------------------ *)

let test_e2e_drain () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let outcome, events =
    run_supervisor ~dir
      (list_source
         [
           submit ~priority:1 ~max_rounds:2 "e1";
           submit ~priority:2 ~max_rounds:2 ~circuit:"alu2" "e2";
           submit ~priority:0 ~max_rounds:2 ~circuit:"f51m" "e3";
         ])
  in
  Alcotest.(check int) "all complete" 3 outcome.Supervisor.completed;
  Alcotest.(check int) "none failed" 0 outcome.Supervisor.failed;
  Alcotest.(check bool) "clean exit" true outcome.Supervisor.clean_exit;
  Alcotest.(check string) "header first" "run_start"
    (event_name (List.hd events));
  let dones =
    List.filter (fun e -> event_name e = "job_done") events
  in
  Alcotest.(check int) "three job_done events" 3 (List.length dones);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " report written") true
        (Sys.file_exists (Filename.concat dir ("results/" ^ id ^ ".json")));
      Alcotest.(check bool)
        (id ^ " blif written") true
        (Sys.file_exists (Filename.concat dir ("results/" ^ id ^ ".blif"))))
    [ "e1"; "e2"; "e3" ]

let test_server_survives_corpus () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let corpus = Fuzz.Proto.corpus () in
  let dup_a, dup_b = Fuzz.Proto.duplicate_pair ~id:"dup" ~circuit:"rd84" in
  let lines =
    Array.to_list (Array.map snd corpus)
    @ [ submit ~max_rounds:1 "ok1"; dup_a; dup_b; submit ~max_rounds:1 ~circuit:"alu2" "ok2" ]
  in
  let outcome, events = run_supervisor ~dir (list_source lines) in
  (* dup_a is well-formed and runs; dup_b is the duplicate reject *)
  Alcotest.(check int) "well-formed jobs complete" 3
    outcome.Supervisor.completed;
  Alcotest.(check int)
    "every hostile line rejected"
    (Array.length corpus + 1)
    outcome.Supervisor.rejected;
  Alcotest.(check int) "no job failures" 0 outcome.Supervisor.failed;
  let dup_rejects =
    List.filter
      (fun e ->
        match e with
        | Obs.Json.Obj fs ->
          List.assoc_opt "error" fs = Some (Obs.Json.String "duplicate_id")
        | _ -> false)
      events
  in
  Alcotest.(check int) "duplicate drew duplicate_id" 1 (List.length dup_rejects)

let test_preemption () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let outcome, events =
    run_supervisor ~dir
      (staged_source
         [
           Supervisor.Line (submit ~priority:0 ~max_rounds:6 "slow");
           Supervisor.Waiting (* one slice of [slow] runs *);
           Supervisor.Line (submit ~priority:9 ~max_rounds:1 ~circuit:"alu2" "urgent");
         ])
  in
  Alcotest.(check int) "both complete" 2 outcome.Supervisor.completed;
  let names = List.map event_name events in
  Alcotest.(check bool) "a preemption happened" true
    (List.mem "preempted" names);
  (* the urgent job must finish before the slow one *)
  let rec done_order acc = function
    | [] -> List.rev acc
    | e :: tl ->
      if event_name e = "job_done" then
        match e with
        | Obs.Json.Obj fs -> (
          match List.assoc_opt "id" fs with
          | Some (Obs.Json.String id) -> done_order (id :: acc) tl
          | _ -> done_order acc tl)
        | _ -> done_order acc tl
      else done_order acc tl
  in
  Alcotest.(check (list string))
    "urgent overtakes slow" [ "urgent"; "slow" ] (done_order [] events)

(* Chaos: under every fault class, well-formed jobs complete and the
   result files are byte-identical to an undisturbed run. *)
let chaos_case fault () =
  let jobs () =
    [
      submit ~priority:1 ~max_rounds:3 "c1";
      submit ~priority:2 ~max_rounds:2 ~circuit:"alu2" "c2";
    ]
  in
  let run ?chaos () =
    let dir = temp_dir () in
    let outcome, events = run_supervisor ~dir ?chaos (list_source (jobs ())) in
    let results =
      List.map
        (fun id ->
          ( id,
            read_file (Filename.concat dir ("results/" ^ id ^ ".blif")),
            read_file (Filename.concat dir ("results/" ^ id ^ ".json")) ))
        [ "c1"; "c2" ]
    in
    rm_rf dir;
    (outcome, events, results)
  in
  let _, _, clean = run () in
  let malformed = Array.map snd (Fuzz.Proto.corpus ()) in
  let chaos = Serve.Chaos.create ~malformed fault in
  let outcome, events, faulty = run ~chaos () in
  Alcotest.(check int) "all well-formed jobs complete" 2
    outcome.Supervisor.completed;
  Alcotest.(check int) "no failures" 0 outcome.Supervisor.failed;
  List.iter2
    (fun (id, blif, _) (id', blif', _) ->
      Alcotest.(check string) "same job" id id';
      Alcotest.(check bool) (id ^ " blif byte-identical") true (blif = blif'))
    clean faulty;
  (* reports match after stripping wall-clock noise *)
  List.iter2
    (fun (id, _, rep) (_, _, rep') ->
      let strip s =
        match Obs.Json.of_string s with
        | Ok (Obs.Json.Obj fs) ->
          Obs.Json.Obj
            (List.filter_map
               (fun (k, v) ->
                 if k = "cpu_seconds" || k = "phase_seconds" || k = "jobs"
                 then None
                 else if k = "run" then Some (k, Obs.Runinfo.strip_volatile v)
                 else Some (k, v))
               fs)
        | _ -> Alcotest.fail (id ^ ": report is not a JSON object")
      in
      Alcotest.(check bool)
        (id ^ " report identical modulo timing") true
        (strip rep = strip rep'))
    clean faulty;
  let names = List.map event_name events in
  match fault with
  | Serve.Chaos.Worker_crash ->
    Alcotest.(check bool) "crash produced a retry" true
      (List.mem "retry" names)
  | Serve.Chaos.Deadline_storm ->
    Alcotest.(check bool) "storm produced a retry" true
      (List.mem "retry" names)
  | Serve.Chaos.Checkpoint_corrupt ->
    Alcotest.(check bool) "corruption was detected" true
      (List.mem "checkpoint_corrupt" names)
  | Serve.Chaos.Malformed_job ->
    Alcotest.(check bool) "hostile lines were rejected" true
      (outcome.Supervisor.rejected >= Array.length malformed)

let test_restart_recovery () =
  let ref_dir = temp_dir () and kill_dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf ref_dir; rm_rf kill_dir)
  @@ fun () ->
  let jobs =
    [
      submit ~max_rounds:4 "r1";
      submit ~max_rounds:4 ~circuit:"alu2" "r2";
      submit ~max_rounds:4 ~circuit:"f51m" "r3";
    ]
  in
  let reference, _ = run_supervisor ~dir:ref_dir (list_source jobs) in
  Alcotest.(check int) "reference completes" 3 reference.Supervisor.completed;
  (* first run: stop as soon as one job is done (mid-queue kill) *)
  let stop = ref false in
  let config =
    {
      (Supervisor.default_config ~state_dir:kill_dir) with
      slice_rounds = 1;
    }
  in
  let emit j = if event_name j = "job_done" then stop := true in
  let first =
    Supervisor.run config ~source:(list_source jobs) ~emit
      ~should_stop:(fun () -> !stop)
      ()
  in
  Alcotest.(check bool) "stopped early" false first.Supervisor.clean_exit;
  Alcotest.(check bool) "work remained" true (first.Supervisor.completed < 3);
  (* restart: no new input, recover the queue, finish everything *)
  let second, _ =
    run_supervisor ~dir:kill_dir (fun () -> Supervisor.Eof)
  in
  Alcotest.(check bool) "recovered pending jobs" true
    (second.Supervisor.recovered > 0);
  Alcotest.(check int) "everything completes across the restart" 3
    (first.Supervisor.completed + second.Supervisor.completed);
  List.iter
    (fun id ->
      let p d = Filename.concat d ("results/" ^ id ^ ".blif") in
      Alcotest.(check bool)
        (id ^ " byte-identical across kill/restart")
        true
        (read_file (p ref_dir) = read_file (p kill_dir)))
    [ "r1"; "r2"; "r3" ]

(* A burst of submits is acknowledged only after one queue snapshot that
   holds every job of the burst: an acked job is always durable.  Another
   event inside the burst emits the acks before it, so the event stream
   keeps the input order at the cost of one more snapshot. *)
let test_burst_one_snapshot () =
  let snapshots = Obs.Metrics.counter "serve.queue_snapshots" in
  (* the (event, snapshots written so far, jobs in queue.json) of every
     event but [run_start] when [lines] arrive as one burst *)
  let burst lines =
    let dir = temp_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let before = Obs.Metrics.counter_value snapshots in
    let queued () =
      match Obs.Json.of_string (read_file (Filename.concat dir "queue.json")) with
      | Ok j -> (
        match Serve.Jobq.of_json j with
        | Ok q -> Serve.Jobq.length q
        | Error e -> Alcotest.fail (Protocol.error_detail e))
      | Error e -> Alcotest.fail e
    in
    let events = ref [] in
    let emit j =
      match event_name j with
      | ("ack" | "status" | "shutdown_requested") as name ->
        let written = Obs.Metrics.counter_value snapshots - before in
        events := (name, written, if written > 0 then queued () else 0) :: !events
      | _ -> ()
    in
    ignore
      (Supervisor.run (Supervisor.default_config ~state_dir:dir)
         ~source:(list_source lines) ~emit ());
    List.rev !events
  in
  let shutdown = "{\"op\":\"shutdown\"}" and status = "{\"op\":\"status\"}" in
  let b i = submit (Printf.sprintf "b%d" i) in
  let n = 5 in
  let acks =
    List.filter (fun (e, _, _) -> e = "ack") (burst (List.init n b @ [ shutdown ]))
  in
  Alcotest.(check int) "every submit acked" n (List.length acks);
  List.iter
    (fun (_, written, jobs) ->
      Alcotest.(check int) "one snapshot before the acks" 1 written;
      Alcotest.(check int) "the snapshot holds the whole burst" n jobs)
    acks;
  let events = burst [ b 0; b 1; status; b 2; b 3; b 4; shutdown ] in
  let ack2 = ("ack", 1, 2) and ack5 = ("ack", 2, 5) in
  Alcotest.(check (list (triple string int int)))
    "a status line splits the burst, in input order"
    [ ack2; ack2; ("status", 1, 2); ack5; ack5; ack5; ("shutdown_requested", 2, 5) ]
    events

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "hostile corpus all rejected" `Quick
          test_corpus_all_rejected;
        Alcotest.test_case "typed protocol errors" `Quick test_typed_errors;
        Alcotest.test_case "job json round-trip" `Quick
          test_job_json_roundtrip;
        Alcotest.test_case "retry deterministic and capped" `Quick
          test_retry_deterministic_and_capped;
        Alcotest.test_case "queue priority order" `Quick test_jobq_order;
        Alcotest.test_case "queue persistence" `Quick test_jobq_persistence;
        Alcotest.test_case "failure classification" `Quick test_classification;
        Alcotest.test_case "fleet quantiles" `Quick test_fleet_quantiles;
        Alcotest.test_case "end-to-end drain" `Quick test_e2e_drain;
        Alcotest.test_case "server survives hostile corpus" `Quick
          test_server_survives_corpus;
        Alcotest.test_case "preemption" `Quick test_preemption;
        Alcotest.test_case "chaos: worker-crash" `Quick
          (chaos_case Serve.Chaos.Worker_crash);
        Alcotest.test_case "chaos: malformed-job" `Quick
          (chaos_case Serve.Chaos.Malformed_job);
        Alcotest.test_case "chaos: deadline-storm" `Quick
          (chaos_case Serve.Chaos.Deadline_storm);
        Alcotest.test_case "chaos: checkpoint-corrupt" `Quick
          (chaos_case Serve.Chaos.Checkpoint_corrupt);
        Alcotest.test_case "submit burst: one snapshot, then acks" `Quick
          test_burst_one_snapshot;
        Alcotest.test_case "kill and restart recovery" `Quick
          test_restart_recovery;
      ] );
  ]
