(* The profiling layer: call-tree aggregation from the span stream,
   the exclusive-time invariant, the flamegraph/Chrome exports, the
   run manifest, allocation deltas, histogram quantiles, and the
   jobs-N ≡ jobs-1 profile-identity contract. *)

module Trace = Obs.Trace
module Profile = Obs.Profile
module Runinfo = Obs.Runinfo
module Metrics = Obs.Metrics
module Optimizer = Powder.Optimizer
module Circuit = Netlist.Circuit

let span_end ?(ts = 0.0) ?(alloc = 0.0) path dur =
  {
    Trace.ts;
    name = "span_end";
    path;
    fields = [ ("dur_s", Trace.Float dur); ("alloc_b", Trace.Float alloc) ];
  }

let point ?(ts = 0.0) name fields = { Trace.ts; name; path = []; fields }

(* ------------------------------------------------------------------ *)
(* Aggregation from a synthetic stream.                                *)
(* ------------------------------------------------------------------ *)

(* Durations are powers of two, so inclusive/exclusive arithmetic is
   exact and the folded microsecond values are integers. *)
let synthetic_profile () =
  let p = Profile.create () in
  Profile.add_event p (span_end [ "gen"; "scan" ] 0.125);
  Profile.add_event p (span_end [ "gen"; "scan" ] 0.125);
  Profile.add_event p (span_end [ "gen"; "sel" ] 0.25);
  Profile.add_event p (span_end [ "gen" ] 1.0);
  Profile.add_event p (span_end [ "sta" ] 0.5);
  p

let test_tree_aggregation () =
  let p = synthetic_profile () in
  Alcotest.(check (float 1e-9)) "total" 1.5 (Profile.total_seconds p);
  let seen = ref [] in
  Profile.iter_nodes p
    (fun ~path ~count ~inclusive_s ~exclusive_s ~alloc_bytes:_
         ~children_inclusive_s:_ ->
      seen := (String.concat ";" path, count, inclusive_s, exclusive_s) :: !seen);
  let find k =
    match List.find_opt (fun (p', _, _, _) -> p' = k) !seen with
    | Some r -> r
    | None -> Alcotest.failf "node %s missing" k
  in
  let _, n, incl, excl = find "gen" in
  Alcotest.(check int) "gen count" 1 n;
  Alcotest.(check (float 1e-9)) "gen inclusive" 1.0 incl;
  Alcotest.(check (float 1e-9)) "gen exclusive" 0.5 excl;
  let _, n, incl, excl = find "gen;scan" in
  Alcotest.(check int) "scan count" 2 n;
  Alcotest.(check (float 1e-9)) "scan inclusive" 0.25 incl;
  Alcotest.(check (float 1e-9)) "scan exclusive (leaf)" 0.25 excl;
  let _, _, _, excl = find "sta" in
  Alcotest.(check (float 1e-9)) "sta exclusive" 0.5 excl;
  Alcotest.(check int) "node count" 4 (List.length !seen)

let test_folded_golden () =
  let p = synthetic_profile () in
  Alcotest.(check string) "collapsed stacks"
    "gen 500000\ngen;scan 250000\ngen;sel 250000\nsta 500000\n"
    (Profile.to_folded p)

let test_funnel () =
  let p = Profile.create () in
  Profile.add_event p
    (point "round" [ ("round", Trace.Int 1); ("pool", Trace.Int 42) ]);
  Profile.add_event p (point "accept" []);
  Profile.add_event p (point "reject" [ ("reason", Trace.String "cex") ]);
  Profile.add_event p (point "reject" [ ("reason", Trace.String "cex") ]);
  Profile.add_event p (point "reject" [ ("reason", Trace.String "delay") ]);
  let j = Profile.to_json p in
  let rounds =
    Option.bind (Obs.Json.member "rounds" j) Obs.Json.get_list |> Option.get
  in
  Alcotest.(check int) "one round" 1 (List.length rounds);
  let r = List.hd rounds in
  let geti k = Option.bind (Obs.Json.member k r) Obs.Json.get_int in
  Alcotest.(check (option int)) "pool" (Some 42) (geti "pool");
  Alcotest.(check (option int)) "accepted" (Some 1) (geti "accepted");
  let rejected = Option.get (Obs.Json.member "rejected" r) in
  Alcotest.(check (option int)) "cex rejections" (Some 2)
    (Option.bind (Obs.Json.member "cex" rejected) Obs.Json.get_int);
  Alcotest.(check (option int)) "delay rejections" (Some 1)
    (Option.bind (Obs.Json.member "delay" rejected) Obs.Json.get_int)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export.                                          *)
(* ------------------------------------------------------------------ *)

let test_chrome_span () =
  match Profile.chrome_event (span_end ~ts:1.0 [ "a"; "b" ] 0.5) with
  | None -> Alcotest.fail "span_end must export"
  | Some j ->
    let gets k = Option.bind (Obs.Json.member k j) Obs.Json.get_string in
    let getf k = Option.bind (Obs.Json.member k j) Obs.Json.get_float in
    Alcotest.(check (option string)) "name (innermost span)" (Some "b")
      (gets "name");
    Alcotest.(check (option string)) "complete event" (Some "X") (gets "ph");
    Alcotest.(check (option (float 1e-6))) "ts = (end - dur) in us"
      (Some 500000.0) (getf "ts");
    Alcotest.(check (option (float 1e-6))) "dur in us" (Some 500000.0)
      (getf "dur");
    let path =
      Option.bind (Obs.Json.member "args" j) (Obs.Json.member "path")
    in
    Alcotest.(check (option string)) "args.path" (Some "a/b")
      (Option.bind path Obs.Json.get_string)

let test_chrome_instant_and_begin () =
  (match Profile.chrome_event (point ~ts:2.0 "accept" []) with
  | None -> Alcotest.fail "point events must export"
  | Some j ->
    Alcotest.(check (option string)) "instant" (Some "i")
      (Option.bind (Obs.Json.member "ph" j) Obs.Json.get_string));
  Alcotest.(check bool) "span_begin dropped" true
    (Profile.chrome_event (point "span_begin" []) = None)

let test_chrome_sink_wellformed () =
  let file = Filename.temp_file "powder_chrome" ".json" in
  let sink = Profile.chrome_sink (open_out file) in
  Trace.set_sink sink;
  Trace.with_span "outer" (fun () -> Trace.event "mark" []);
  Trace.close_sink ();
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "chrome export is not JSON: %s" e
  | Ok j ->
    let events =
      Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.get_list
      |> Option.get
    in
    (* one instant for the mark, one X for the span; the begin is folded *)
    Alcotest.(check int) "two trace events" 2 (List.length events)

(* ------------------------------------------------------------------ *)
(* Allocation deltas.                                                  *)
(* ------------------------------------------------------------------ *)

let test_alloc_delta () =
  let captured = ref [] in
  Trace.set_sink
    (Trace.make_sink
       ~emit:(fun e -> captured := e :: !captured)
       ~close:(fun () -> ()));
  Trace.with_span "alloc-test" (fun () ->
      ignore (Sys.opaque_identity (Bytes.create 1_000_000)));
  Trace.close_sink ();
  let span_end =
    List.find (fun e -> e.Trace.name = "span_end") !captured
  in
  match List.assoc_opt "alloc_b" span_end.Trace.fields with
  | Some (Trace.Float b) ->
    Alcotest.(check bool)
      (Printf.sprintf "alloc delta covers the megabyte (%.0f)" b)
      true
      (b >= 1_000_000.0)
  | _ -> Alcotest.fail "span_end carries no alloc_b field"

(* The delta counts every minor allocation: a span that builds a
   100,000-cell list (three words a cell) reports at least 2.4 MB. *)
let test_alloc_delta_minor () =
  let captured = ref [] in
  Trace.set_sink
    (Trace.make_sink
       ~emit:(fun e -> captured := e :: !captured)
       ~close:(fun () -> ()));
  Trace.with_span "alloc-list" (fun () ->
      let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
      ignore (Sys.opaque_identity (build 100_000 [])));
  Trace.close_sink ();
  let span_end =
    List.find (fun e -> e.Trace.name = "span_end") !captured
  in
  match List.assoc_opt "alloc_b" span_end.Trace.fields with
  | Some (Trace.Float b) ->
    Alcotest.(check bool)
      (Printf.sprintf "alloc delta covers the list (%.0f)" b)
      true (b >= 2_400_000.0)
  | _ -> Alcotest.fail "span_end carries no alloc_b field"

(* ------------------------------------------------------------------ *)
(* Run manifest.                                                       *)
(* ------------------------------------------------------------------ *)

let test_runinfo () =
  let m =
    Runinfo.create ~jobs:4 ~seed:7L ~circuit:"rd84"
      ~options:[ ("words", "8"); ("delay", "none") ]
      ()
  in
  let j = Runinfo.to_json m in
  Alcotest.(check (option string)) "circuit" (Some "rd84")
    (Option.bind (Obs.Json.member "circuit" j) Obs.Json.get_string);
  Alcotest.(check bool) "hostname present before strip" true
    (Obs.Json.member "hostname" j <> None);
  let stripped = Runinfo.strip_volatile j in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " stripped") true
        (Obs.Json.member k stripped = None))
    Runinfo.volatile_fields;
  Alcotest.(check bool) "options_hash survives" true
    (Obs.Json.member "options_hash" stripped <> None);
  (* the hash depends only on the canonical options *)
  let m2 =
    Runinfo.create ~jobs:1 ~seed:7L ~circuit:"rd84"
      ~options:[ ("delay", "none"); ("words", "8") ]
      ()
  in
  Alcotest.(check string) "options hash is order-insensitive"
    m.Runinfo.options_hash m2.Runinfo.options_hash

let test_run_start_header () =
  let captured = ref [] in
  Trace.set_sink
    (Trace.make_sink
       ~emit:(fun e -> captured := e :: !captured)
       ~close:(fun () -> ()));
  let m =
    Runinfo.create ~jobs:1 ~seed:1L ~circuit:"c" ~options:[] ()
  in
  Runinfo.emit_run_start m;
  Trace.close_sink ();
  match List.rev !captured with
  | e :: _ ->
    Alcotest.(check string) "header event" "run_start" e.Trace.name;
    Alcotest.(check bool) "carries the tool" true
      (List.assoc_opt "tool" e.Trace.fields = Some (Trace.String "powder"))
  | [] -> Alcotest.fail "no event emitted"

(* ------------------------------------------------------------------ *)
(* Histogram quantiles.                                                *)
(* ------------------------------------------------------------------ *)

let test_quantiles () =
  let h = Metrics.histogram "test.profile.quantiles" in
  for _ = 1 to 100 do
    Metrics.observe h 1e-3
  done;
  Metrics.observe h 1.0;
  Alcotest.(check (float 0.0)) "max is exact" 1.0 (Metrics.histogram_max h);
  let p50 = Metrics.histogram_quantile h 0.5 in
  Alcotest.(check bool) "p50 within one bucket of 1ms" true
    (p50 >= 1e-3 && p50 <= 2.1e-3);
  let p99 = Metrics.histogram_quantile h 0.99 in
  Alcotest.(check bool) "p99 still in the 1ms bucket" true (p99 <= 2.1e-3);
  Alcotest.(check (float 0.0)) "p100 clamped to max" 1.0
    (Metrics.histogram_quantile h 1.0);
  Alcotest.(check (float 0.0)) "empty histogram" 0.0
    (Metrics.histogram_quantile (Metrics.histogram "test.profile.empty") 0.5)

(* ------------------------------------------------------------------ *)
(* End-to-end: optimizer profile invariants and jobs identity.         *)
(* ------------------------------------------------------------------ *)

let mapped name =
  match Circuits.Suite.find name with
  | Some spec -> Circuits.Suite.mapped spec
  | None -> Alcotest.failf "no circuit %s" name

let profile_at ~jobs name =
  let p = Profile.create () in
  Trace.set_sink (Profile.sink p);
  let config =
    { Optimizer.default_config with words = 8; max_rounds = 3; jobs }
  in
  ignore (Optimizer.optimize ~config (mapped name));
  Trace.close_sink ();
  p

let test_exclusive_invariant () =
  let p = profile_at ~jobs:1 "rd84" in
  Alcotest.(check bool) "profile not empty" true (Profile.total_seconds p > 0.0);
  Profile.iter_nodes p
    (fun ~path ~count ~inclusive_s ~exclusive_s ~alloc_bytes
         ~children_inclusive_s ->
      let name = String.concat ";" path in
      Alcotest.(check bool) (name ^ ": positive count") true (count > 0);
      Alcotest.(check bool) (name ^ ": children sum <= inclusive") true
        (children_inclusive_s <= inclusive_s +. 1e-6);
      Alcotest.(check (float 1e-9)) (name ^ ": exclusive identity")
        (inclusive_s -. children_inclusive_s) exclusive_s;
      Alcotest.(check bool) (name ^ ": alloc non-negative") true
        (alloc_bytes >= 0.0))

let test_generate_subspans_present () =
  let p = profile_at ~jobs:1 "rd84" in
  let paths = ref [] in
  Profile.iter_nodes p
    (fun ~path ~count:_ ~inclusive_s:_ ~exclusive_s:_ ~alloc_bytes:_
         ~children_inclusive_s:_ -> paths := String.concat ";" path :: !paths);
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " attributed") true
        (List.mem expected !paths))
    [
      "generate";
      "generate;generate/targets";
      "generate;generate/scan";
      "generate;generate/select";
      "sta";
    ]

let test_profile_jobs_identity () =
  let strip p =
    Obs.Json.to_string (Profile.strip_volatile (Profile.to_json p))
  in
  let p1 = profile_at ~jobs:1 "rd84" in
  let p4 = profile_at ~jobs:4 "rd84" in
  Alcotest.(check string) "profile identical at jobs 1 and 4" (strip p1)
    (strip p4)

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "call-tree aggregation" `Quick test_tree_aggregation;
        Alcotest.test_case "folded stacks golden" `Quick test_folded_golden;
        Alcotest.test_case "candidate funnel" `Quick test_funnel;
        Alcotest.test_case "chrome span export" `Quick test_chrome_span;
        Alcotest.test_case "chrome instant/begin" `Quick
          test_chrome_instant_and_begin;
        Alcotest.test_case "chrome sink well-formed" `Quick
          test_chrome_sink_wellformed;
        Alcotest.test_case "allocation delta" `Quick test_alloc_delta;
        Alcotest.test_case "allocation delta counts minor words" `Quick
          test_alloc_delta_minor;
        Alcotest.test_case "run manifest" `Quick test_runinfo;
        Alcotest.test_case "run_start header" `Quick test_run_start_header;
        Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
        Alcotest.test_case "exclusive-time invariant" `Quick
          test_exclusive_invariant;
        Alcotest.test_case "generate sub-spans attributed" `Quick
          test_generate_subspans_present;
        Alcotest.test_case "profile identical across jobs" `Quick
          test_profile_jobs_identity;
      ] );
  ]
