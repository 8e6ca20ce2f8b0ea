(* The domain pool: deterministic fan-out, exception propagation,
   cancellation, nested-submission rejection, collector merging — and
   the end-to-end contract that --jobs N runs are byte-identical to
   --jobs 1 for both the optimizer and the fuzzer. *)

module Circuit = Netlist.Circuit
module Optimizer = Powder.Optimizer

exception Boom of int

let mapped name =
  match Circuits.Suite.find name with
  | Some spec -> Circuits.Suite.mapped spec
  | None -> Alcotest.fail (name ^ " missing from suite")

(* Wall-clock spin without Unix: poll a private deadline. *)
let spin_for seconds =
  let d = Obs.Deadline.after ~seconds in
  while not (Obs.Deadline.expired d) do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* Pool combinators.                                                   *)
(* ------------------------------------------------------------------ *)

let test_map_basic () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "jobs" 4 (Par.Pool.jobs pool);
      Alcotest.(check (array (option int))) "empty" [||]
        (Par.Pool.map pool ~f:Fun.id [||]);
      Alcotest.(check (array (option int))) "singleton" [| Some 9 |]
        (Par.Pool.map pool ~f:(fun x -> x * x) [| 3 |]);
      let n = 37 in
      let r = Par.Pool.map pool ~f:(fun i -> i * i) (Array.init n Fun.id) in
      Alcotest.(check int) "length" n (Array.length r);
      Array.iteri
        (fun i v -> Alcotest.(check (option int)) "element order" (Some (i * i)) v)
        r)

let test_jobs1_inline () =
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamped" 1 (Par.Pool.jobs pool);
      Alcotest.(check (array (option int))) "inline map"
        [| Some 2; Some 3; Some 4 |]
        (Par.Pool.map pool ~f:succ [| 1; 2; 3 |]))

(* ------------------------------------------------------------------ *)
(* Exceptions.                                                         *)
(* ------------------------------------------------------------------ *)

let test_exception_propagates_first_index () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      match
        Par.Pool.map pool
          ~f:(fun i -> if i = 1 || i = 3 then raise (Boom i) else i)
          [| 0; 1; 2; 3; 4 |]
      with
      | _ -> Alcotest.fail "exception did not propagate"
      | exception Boom i ->
        Alcotest.(check int) "lowest raising index surfaces" 1 i)

let test_exception_discards_later_collectors () =
  let c = Obs.Metrics.counter "test.par.exn.ctr" in
  let before = Obs.Metrics.counter_value c in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      match
        Par.Pool.map pool
          ~f:(fun i ->
            if i = 1 then raise (Boom i)
            else Obs.Metrics.incr (Obs.Metrics.counter "test.par.exn.ctr"))
          [| 0; 1; 2; 3 |]
      with
      | _ -> Alcotest.fail "exception did not propagate"
      | exception Boom 1 ->
        (* index 0 committed before the raise; 2 and 3 ran but their
           collectors are dropped with the abandoned walk *)
        Alcotest.(check int) "only committed work merged" (before + 1)
          (Obs.Metrics.counter_value c)
      | exception Boom i -> Alcotest.fail (Printf.sprintf "wrong index %d" i))

(* ------------------------------------------------------------------ *)
(* Deadlines and nesting.                                              *)
(* ------------------------------------------------------------------ *)

let test_deadline_cancels_unstarted () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      (* both executors grab a task immediately and hold it past the
         deadline, so everything behind them is cancelled unstarted *)
      let deadline = Obs.Deadline.after ~seconds:0.05 in
      let r =
        Par.Pool.map pool ~deadline
          ~f:(fun i ->
            spin_for 0.15;
            i)
          [| 0; 1; 2; 3; 4; 5 |]
      in
      Alcotest.(check (option int)) "task 0 ran" (Some 0) r.(0);
      Alcotest.(check (option int)) "task 1 ran" (Some 1) r.(1);
      for i = 2 to 5 do
        Alcotest.(check (option int))
          (Printf.sprintf "task %d cancelled" i)
          None r.(i)
      done)

let test_nested_submit_rejected () =
  Alcotest.(check bool) "not in a task outside" false (Par.Pool.in_task ());
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      match
        Par.Pool.map pool
          ~f:(fun _ ->
            if not (Par.Pool.in_task ()) then failwith "in_task false in task";
            Par.Pool.map pool ~f:Fun.id [| 1 |])
          [| 0 |]
      with
      | _ -> Alcotest.fail "nested submission accepted"
      | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "flag cleared after" false (Par.Pool.in_task ())

let test_shutdown_rejects_submission () =
  let pool = Par.Pool.create ~jobs:2 () in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  (* idempotent *)
  match Par.Pool.map pool ~f:Fun.id [| 1 |] with
  | _ -> Alcotest.fail "submission to shut-down pool accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Collector merging.                                                  *)
(* ------------------------------------------------------------------ *)

let test_metrics_merge () =
  let c = Obs.Metrics.counter "test.par.merge.ctr" in
  let g = Obs.Metrics.gauge "test.par.merge.gauge" in
  let before = Obs.Metrics.counter_value c in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Par.Pool.map pool
           ~f:(fun i ->
             Obs.Metrics.add (Obs.Metrics.counter "test.par.merge.ctr") i;
             Obs.Metrics.set_gauge
               (Obs.Metrics.gauge "test.par.merge.gauge")
               (float_of_int i);
             i)
           (Array.init 8 Fun.id)));
  Alcotest.(check int) "counter adds across shards" (before + 28)
    (Obs.Metrics.counter_value c);
  (* gauges take the last committed write — index order, so task 7 *)
  Alcotest.(check (float 0.0)) "gauge last-write in commit order" 7.0
    (Obs.Metrics.gauge_value g)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: --jobs N ≡ --jobs 1.                        *)
(* ------------------------------------------------------------------ *)

let strip_volatile = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.filter
         (fun (k, _) ->
           k <> "cpu_seconds" && k <> "phase_seconds" && k <> "jobs"
           && k <> "elapsed_seconds")
         fields)
  | other -> other

let optimize_at ~jobs name =
  let c = mapped name in
  let config =
    { Optimizer.default_config with words = 8; max_rounds = 3; jobs }
  in
  let r = Optimizer.optimize ~config c in
  ( Obs.Json.to_string (strip_volatile (Optimizer.report_to_json r)),
    Blif.Blif_io.circuit_to_string c )

let optimizer_determinism name () =
  let j1, b1 = optimize_at ~jobs:1 name in
  let j4, b4 = optimize_at ~jobs:4 name in
  Alcotest.(check string) "report identical" j1 j4;
  Alcotest.(check string) "final netlist identical" b1 b4

(* Windowed runs carry the same guarantee: the window verdict is a
   deterministic function of (circuit, substitution, cut budget), so
   the job width may not change a single byte of the result — only
   [--window] itself may. *)
let windowed_optimize ~jobs name =
  let c = mapped name in
  let config =
    {
      Optimizer.default_config with
      words = 8;
      max_rounds = 3;
      jobs;
      window = Some 16;
    }
  in
  let r = Optimizer.optimize ~config c in
  ( Obs.Json.to_string (strip_volatile (Optimizer.report_to_json r)),
    Blif.Blif_io.circuit_to_string c )

let windowed_determinism name () =
  let j1, b1 = windowed_optimize ~jobs:1 name in
  let j4, b4 = windowed_optimize ~jobs:4 name in
  Alcotest.(check string) "windowed report identical across jobs" j1 j4;
  Alcotest.(check string) "windowed netlist identical across jobs" b1 b4

let fuzz_at jobs =
  let config =
    { Fuzz.Harness.default_config with
      seed = 7L;
      cases = 4;
      budget_seconds = None;
      jobs;
    }
  in
  Obs.Json.to_string
    (strip_volatile (Fuzz.Harness.report_to_json (Fuzz.Harness.run config)))

let test_fuzz_determinism () =
  Alcotest.(check string) "fuzz campaign identical at jobs 1 and 2"
    (fuzz_at 1) (fuzz_at 2)

(* ------------------------------------------------------------------ *)
(* Containment: a raising task is a per-task error, not a pool death.  *)
(* ------------------------------------------------------------------ *)

let containment_at jobs () =
  Par.Pool.with_pool ~jobs (fun pool ->
      let c = Obs.Metrics.counter "test.par.contain.ctr" in
      let before = Obs.Metrics.counter_value c in
      let f i =
        Obs.Metrics.add (Obs.Metrics.counter "test.par.contain.ctr") 1;
        if i = 2 then raise (Boom i);
        i * 10
      in
      (* the supervisor's walk: one speculated batch, every outcome
         consumed in index order by [commit_result] *)
      let specs = Par.Pool.speculate pool (Array.init 5 (fun i () -> f i)) in
      Array.iteri
        (fun i s ->
          match Par.Pool.commit_result s with
          | Some (Ok y) when i <> 2 ->
            Alcotest.(check int) "value delivered" (i * 10) y
          | Some (Error (Boom 2, _)) when i = 2 -> ()
          | _ -> Alcotest.fail (Printf.sprintf "element %d: wrong outcome" i))
        specs;
      (* sequential parity: the raising task's pre-raise work merged *)
      Alcotest.(check int) "all five collectors merged" (before + 5)
        (Obs.Metrics.counter_value c);
      (* the pool is not poisoned: a follow-up batch runs normally *)
      Alcotest.(check (array (option int))) "pool survives"
        [| Some 1; Some 2; Some 3 |]
        (Par.Pool.map pool ~f:(fun x -> x + 1) [| 0; 1; 2 |]))

let test_commit_result_single () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let specs = Par.Pool.speculate pool [| (fun () -> raise (Boom 7)) |] in
      (match Par.Pool.commit_result specs.(0) with
      | Some (Error (Boom 7, _)) -> ()
      | _ -> Alcotest.fail "exception not surfaced as Error");
      (* consume-once: a second consumption is a usage error *)
      match Par.Pool.commit_result specs.(0) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "double consumption accepted")

let test_commit_result_cancelled () =
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      let d = Obs.Deadline.after ~seconds:(-1.0) in
      let specs =
        Par.Pool.speculate pool ~deadline:d
          [| (fun () -> spin_for 0.001; 1) |]
      in
      match Par.Pool.commit_result specs.(0) with
      | None -> ()
      | Some _ -> Alcotest.fail "cancelled task produced an outcome")

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "map empty/singleton/order" `Quick test_map_basic;
        Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_inline;
        Alcotest.test_case "exception surfaces at first index" `Quick
          test_exception_propagates_first_index;
        Alcotest.test_case "exception discards later collectors" `Quick
          test_exception_discards_later_collectors;
        Alcotest.test_case "deadline cancels unstarted tasks" `Quick
          test_deadline_cancels_unstarted;
        Alcotest.test_case "nested submission rejected" `Quick
          test_nested_submit_rejected;
        Alcotest.test_case "shutdown rejects submission" `Quick
          test_shutdown_rejects_submission;
        Alcotest.test_case "metrics shards merge deterministically" `Quick
          test_metrics_merge;
        Alcotest.test_case "optimizer deterministic: rd84" `Quick
          (optimizer_determinism "rd84");
        Alcotest.test_case "optimizer deterministic: comp" `Quick
          (optimizer_determinism "comp");
        Alcotest.test_case "optimizer deterministic: f51m" `Quick
          (optimizer_determinism "f51m");
        Alcotest.test_case "windowed deterministic: rd84" `Quick
          (windowed_determinism "rd84");
        Alcotest.test_case "windowed deterministic: comp" `Quick
          (windowed_determinism "comp");
        Alcotest.test_case "fuzz deterministic across jobs" `Quick
          test_fuzz_determinism;
        Alcotest.test_case "raising task contained at jobs=1" `Quick
          (containment_at 1);
        Alcotest.test_case "raising task contained at jobs=4" `Quick
          (containment_at 4);
        Alcotest.test_case "commit_result surfaces the exception" `Quick
          test_commit_result_single;
        Alcotest.test_case "commit_result marks cancellation" `Quick
          test_commit_result_cancelled;
      ] );
  ]
