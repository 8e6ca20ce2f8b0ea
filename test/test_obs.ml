(* The telemetry layer: metric semantics, JSON round-trips, span
   nesting, sink behavior, and an end-to-end check that the optimizer
   emits a coherent trace. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let c = Metrics.counter "test.obs.counter" in
  let c' = Metrics.counter "test.obs.counter" in
  Alcotest.(check bool) "get-or-create aliases" true (c == c');
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr+add" (before + 42) (Metrics.counter_value c);
  Alcotest.(check bool) "find sees it" true
    (match Metrics.find "test.obs.counter" with
    | Some (`Counter v) -> v = before + 42
    | _ -> false);
  match Metrics.histogram "test.obs.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash not detected"

let test_gauge () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "set" 2.5 (Metrics.gauge_value g)

let test_histogram () =
  let h = Metrics.histogram "test.obs.histogram" in
  let values = [ 0.0; 1e-7; 1e-6; 3e-6; 1e-3; 0.5; 2.0 ] in
  List.iter (Metrics.observe h) values;
  Alcotest.(check int) "count" (List.length values) (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum"
    (List.fold_left ( +. ) 0.0 values)
    (Metrics.histogram_sum h);
  let buckets = Metrics.histogram_buckets h in
  Alcotest.(check int) "bucket counts total the observations"
    (List.length values)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets);
  (* bounds strictly increasing *)
  let rec increasing = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "bucket bounds increasing" true (increasing buckets);
  (* the three sub-microsecond observations share the first bucket *)
  (match buckets with
  | (ub, n) :: _ ->
    Alcotest.(check (float 1e-12)) "first bucket is 1us" 1e-6 ub;
    Alcotest.(check int) "sub-1us observations pooled" 3 n
  | [] -> Alcotest.fail "no buckets");
  (* a duration far beyond the bucket range is clamped, not lost *)
  Metrics.observe h 1e30;
  Alcotest.(check int) "overflow clamped into last bucket"
    (List.length values + 1)
    (List.fold_left
       (fun acc (_, n) -> acc + n)
       0
       (Metrics.histogram_buckets h))

let test_reset () =
  let c = Metrics.counter "test.obs.reset" in
  Metrics.incr c;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes in place" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle still live after reset" 1 (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5e-3);
        ("str", Json.String "a \"quoted\"\nline\twith \\ specials");
        ("list", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]);
        ("nested", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' -> Alcotest.(check bool) "round-trip" true (j = j')

let test_json_numbers () =
  (* floats keep their JSON number type even when integral *)
  (match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "3.0" 3.0 f
  | _ -> Alcotest.fail "integral float lost its type");
  (match Json.of_string "{\"a\": 12, \"b\": -0.5e2}" with
  | Ok j ->
    Alcotest.(check (option int)) "int member" (Some 12)
      (Option.bind (Json.member "a" j) Json.get_int);
    Alcotest.(check (option (float 1e-9))) "float member" (Some (-50.0))
      (Option.bind (Json.member "b" j) Json.get_float)
  | Error e -> Alcotest.fail e);
  (* non-finite floats serialize as null, which any consumer accepts *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ s)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ]

(* ------------------------------------------------------------------ *)
(* Tracing.                                                            *)
(* ------------------------------------------------------------------ *)

let with_memory_sink f =
  let events = ref [] in
  Trace.set_sink
    (Trace.make_sink
       ~emit:(fun e -> events := e :: !events)
       ~close:(fun () -> ()));
  Fun.protect ~finally:Trace.close_sink (fun () -> f ());
  List.rev !events

let test_span_nesting () =
  let events =
    with_memory_sink (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.event "point" [ ("k", Trace.Int 1) ];
            Trace.with_span "inner" (fun () ->
                Alcotest.(check (list string))
                  "path inside nested spans" [ "outer"; "inner" ]
                  (Trace.current_path ()))))
  in
  Alcotest.(check (list string)) "stack unwound" [] (Trace.current_path ());
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) events in
  Alcotest.(check (list string)) "event order"
    [ "span_begin"; "point"; "span_begin"; "span_end"; "span_end" ]
    names;
  let point = List.nth events 1 in
  Alcotest.(check (list string)) "point event carries enclosing path"
    [ "outer" ] point.Trace.path;
  let inner_end = List.nth events 3 in
  Alcotest.(check (list string)) "span_end path includes itself"
    [ "outer"; "inner" ] inner_end.Trace.path;
  Alcotest.(check bool) "span_end carries duration" true
    (List.mem_assoc "dur_s" inner_end.Trace.fields);
  Alcotest.(check bool) "span accounting accumulated" true
    (Trace.span_count "outer" >= 1 && Trace.span_seconds "outer" >= 0.0)

let test_span_exception_safe () =
  (match Trace.with_span "explosive" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check (list string)) "stack unwound after raise" []
    (Trace.current_path ())

let test_null_sink_inert () =
  Alcotest.(check bool) "inactive by default" false (Trace.active ());
  let ran = ref false in
  Trace.event_f "x" (fun () ->
      ran := true;
      []);
  Alcotest.(check bool) "event_f thunk not run when inactive" false !ran

let test_jsonl_roundtrip () =
  let file = Filename.temp_file "obs_test" ".jsonl" in
  Trace.set_sink (Trace.jsonl_sink file);
  Trace.with_span "s" ~fields:[ ("tag", Trace.String "v") ] (fun () ->
      Trace.event "hello"
        [
          ("i", Trace.Int 7);
          ("f", Trace.Float 0.25);
          ("b", Trace.Bool true);
          ("s", Trace.String "tricky \"str\"\n");
        ]);
  Trace.close_sink ();
  let ic = open_in file in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let ls = lines [] in
  close_in ic;
  Sys.remove file;
  Alcotest.(check int) "three lines" 3 (List.length ls);
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.fail (e ^ ": " ^ l))
      ls
  in
  List.iter
    (fun j ->
      Alcotest.(check bool) "has ts" true (Json.member "ts" j <> None);
      Alcotest.(check bool) "has ev" true (Json.member "ev" j <> None))
    parsed;
  let hello = List.nth parsed 1 in
  Alcotest.(check (option string)) "ev name" (Some "hello")
    (Option.bind (Json.member "ev" hello) Json.get_string);
  Alcotest.(check (option string)) "path" (Some "s")
    (Option.bind (Json.member "path" hello) Json.get_string);
  Alcotest.(check (option int)) "int field" (Some 7)
    (Option.bind (Json.member "i" hello) Json.get_int);
  Alcotest.(check (option string)) "string field survives escaping"
    (Some "tricky \"str\"\n")
    (Option.bind (Json.member "s" hello) Json.get_string);
  let span_end = List.nth parsed 2 in
  Alcotest.(check (option string)) "span_end" (Some "span_end")
    (Option.bind (Json.member "ev" span_end) Json.get_string);
  Alcotest.(check bool) "span_end has dur_s" true
    (Json.member "dur_s" span_end <> None)

(* ------------------------------------------------------------------ *)
(* Integration: the optimizer's trace is coherent with its report.     *)
(* ------------------------------------------------------------------ *)

let test_optimizer_trace () =
  let file = Filename.temp_file "obs_powder" ".jsonl" in
  Trace.set_sink (Trace.jsonl_sink file);
  let spec = Option.get (Circuits.Suite.find "rd84") in
  let circ = Circuits.Suite.mapped spec in
  let config = { Powder.Optimizer.default_config with words = 8 } in
  let report = Powder.Optimizer.optimize ~config circ in
  Trace.close_sink ();
  let ic = open_in file in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let ls = lines [] in
  close_in ic;
  Sys.remove file;
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.fail (e ^ ": " ^ l))
      ls
  in
  let by_ev name =
    List.filter
      (fun j ->
        Option.bind (Json.member "ev" j) Json.get_string = Some name)
      parsed
  in
  let accepts = by_ev "accept" in
  Alcotest.(check int) "one accept event per substitution"
    report.Powder.Optimizer.funnel.substitutions (List.length accepts);
  Alcotest.(check bool) "optimizer did accept something" true
    (report.Powder.Optimizer.funnel.substitutions > 0);
  List.iter
    (fun a ->
      Alcotest.(check bool) "accept carries estimated gain" true
        (Option.bind (Json.member "est_gain" a) Json.get_float <> None);
      Alcotest.(check bool) "accept carries realized gain" true
        (Option.bind (Json.member "realized_gain" a) Json.get_float <> None))
    accepts;
  Alcotest.(check int) "one round event per round"
    report.Powder.Optimizer.funnel.rounds
    (List.length (by_ev "round"));
  (* every reject event's reason is one of the funnel reasons, and the
     per-reason totals match the report *)
  let reject_count reason =
    List.length
      (List.filter
         (fun j ->
           Option.bind (Json.member "reason" j) Json.get_string = Some reason)
         (by_ev "reject"))
  in
  Alcotest.(check int) "atpg rejects" report.Powder.Optimizer.funnel.rejected_by_atpg
    (reject_count "atpg");
  Alcotest.(check int) "giveup rejects"
    report.Powder.Optimizer.funnel.rejected_by_giveup (reject_count "giveup");
  Alcotest.(check int) "cex rejects" report.Powder.Optimizer.funnel.rejected_by_cex
    (reject_count "cex");
  Alcotest.(check int) "delay rejects" report.Powder.Optimizer.funnel.rejected_by_delay
    (reject_count "delay");
  (* phase accounting: every declared phase is present and the span
     histogram actually fired for the phases a successful run must hit *)
  Alcotest.(check (list string)) "phase keys" Powder.Optimizer.phase_names
    (List.map fst report.Powder.Optimizer.phase_seconds);
  List.iter
    (fun (n, s) ->
      if s < 0.0 then Alcotest.fail (n ^ ": negative phase time"))
    report.Powder.Optimizer.phase_seconds;
  let phase_total =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0
      report.Powder.Optimizer.phase_seconds
  in
  Alcotest.(check bool) "phases account for some of the run" true
    (phase_total > 0.0
    && phase_total <= report.Powder.Optimizer.cpu_seconds *. 1.5)

let test_report_json () =
  let spec = Option.get (Circuits.Suite.find "comp") in
  let circ = Circuits.Suite.mapped spec in
  let config = { Powder.Optimizer.default_config with words = 8 } in
  let report = Powder.Optimizer.optimize ~config circ in
  let j = Powder.Optimizer.report_to_json report in
  (* serialized form must reparse, and the funnel must be internally
     consistent: generated >= checked >= accepted *)
  (match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' ->
    let funnel = Option.get (Json.member "funnel" j') in
    let get k = Option.get (Option.bind (Json.member k funnel) Json.get_int) in
    let generated = get "candidates_generated" in
    let checked = get "checks_run" in
    let accepted = get "accepted" in
    Alcotest.(check bool) "funnel narrows" true
      (generated >= checked && checked >= accepted);
    Alcotest.(check int) "checks = accepted + refuted + gaveup + timeout + rolled back"
      checked
      (accepted + get "rejected_by_atpg" + get "rejected_by_giveup"
      + get "rejected_by_timeout" + get "rolled_back");
    Alcotest.(check (option int)) "substitutions" (Some report.Powder.Optimizer.funnel.substitutions)
      (Option.bind (Json.member "substitutions" j') Json.get_int))

(* ------------------------------------------------------------------ *)
(* Deadline edge cases: the supervisor leans on these (zero budgets    *)
(* from deadline storms, nested job/slice deadlines).                  *)
(* ------------------------------------------------------------------ *)

let spin_past () =
  (* let the wall clock tick at least once *)
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 <= 1e-4 do
    Domain.cpu_relax ()
  done

let test_deadline_zero_budget () =
  let d = Obs.Deadline.after ~seconds:0.0 in
  spin_past ();
  Alcotest.(check bool) "zero budget expires" true (Obs.Deadline.expired d);
  Alcotest.(check bool) "zero budget is finite" true (Obs.Deadline.is_finite d);
  Alcotest.(check bool) "remaining has gone negative" true
    (Obs.Deadline.remaining d < 0.0)

let test_deadline_negative_budget () =
  let d = Obs.Deadline.after ~seconds:(-5.0) in
  Alcotest.(check bool) "already expired at creation" true
    (Obs.Deadline.expired d);
  Alcotest.(check bool) "remaining below -4s" true
    (Obs.Deadline.remaining d < -4.0)

let test_deadline_never () =
  Alcotest.(check bool) "never is infinite" false
    (Obs.Deadline.is_finite Obs.Deadline.never);
  Alcotest.(check bool) "never never expires" false
    (Obs.Deadline.expired Obs.Deadline.never);
  Alcotest.(check bool) "remaining is infinity" true
    (Obs.Deadline.remaining Obs.Deadline.never = infinity);
  Alcotest.(check bool) "of_option None is never" false
    (Obs.Deadline.is_finite (Obs.Deadline.of_option None));
  Alcotest.(check bool) "of_option Some is finite" true
    (Obs.Deadline.is_finite (Obs.Deadline.of_option (Some 10.0)))

let test_deadline_nested () =
  (* a slice deadline nested under a job deadline: the tighter wins,
     whichever argument order *)
  let job = Obs.Deadline.after ~seconds:100.0 in
  let slice = Obs.Deadline.after ~seconds:(-1.0) in
  let a = Obs.Deadline.earliest job slice
  and b = Obs.Deadline.earliest slice job in
  Alcotest.(check bool) "tighter wins (left)" true (Obs.Deadline.expired a);
  Alcotest.(check bool) "tighter wins (right)" true (Obs.Deadline.expired b);
  (* never is the identity *)
  let c = Obs.Deadline.earliest Obs.Deadline.never job in
  Alcotest.(check bool) "never is identity" true (Obs.Deadline.is_finite c);
  Alcotest.(check bool) "identity keeps the budget" true
    (Obs.Deadline.remaining c > 90.0);
  (* expired stays expired even nested under generous budgets *)
  let d = Obs.Deadline.earliest slice Obs.Deadline.never in
  Alcotest.(check bool) "expired survives nesting" true
    (Obs.Deadline.expired d)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter;
        Alcotest.test_case "gauge semantics" `Quick test_gauge;
        Alcotest.test_case "histogram semantics" `Quick test_histogram;
        Alcotest.test_case "reset keeps handles" `Quick test_reset;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json numbers" `Quick test_json_numbers;
        Alcotest.test_case "json rejects malformed" `Quick test_json_rejects;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
        Alcotest.test_case "null sink is inert" `Quick test_null_sink_inert;
        Alcotest.test_case "jsonl sink round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "optimizer trace coherent" `Quick test_optimizer_trace;
        Alcotest.test_case "report json" `Quick test_report_json;
        Alcotest.test_case "deadline zero budget" `Quick
          test_deadline_zero_budget;
        Alcotest.test_case "deadline negative budget" `Quick
          test_deadline_negative_budget;
        Alcotest.test_case "deadline never/of_option" `Quick
          test_deadline_never;
        Alcotest.test_case "deadline nesting" `Quick test_deadline_nested;
      ] );
  ]
