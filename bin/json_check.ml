(* Validate that a file is well-formed JSON (default) or JSONL
   ([--jsonl]: one JSON object per non-empty line), or compare two
   optimizer reports ([--compare-reports]: structural equality after
   dropping wall-clock fields).  Exit 0 on success.  Used by ci.sh to
   smoke-check the telemetry outputs without external tooling. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_file path =
  match Obs.Json.of_string (read_file path) with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 1

(* Timings differ between any two runs, and [jobs] differs between runs
   whose equivalence we specifically want to check; everything else in a
   report is deterministic for a given seed and must match across
   kill/resume and across job counts.  The embedded run manifest is
   compared too, after dropping its own volatile identity fields
   (hostname, pid, timestamp, ... — see [Obs.Runinfo.volatile_fields]):
   seed, circuit and options hash MUST match for the comparison to be
   meaningful. *)
let compare_reports a b =
  let strip = Powder.Optimizer.strip_volatile in
  let ja = strip (parse_file a) and jb = strip (parse_file b) in
  if ja = jb then Printf.printf "%s and %s: reports match\n" a b
  else begin
    (match (ja, jb) with
    | Obs.Json.Obj fa, Obs.Json.Obj fb ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k fb with
          | Some v' when v = v' -> ()
          | Some v' ->
            Printf.eprintf "  %s: %s vs %s\n" k (Obs.Json.to_string v)
              (Obs.Json.to_string v')
          | None -> Printf.eprintf "  %s: missing in %s\n" k b)
        fa
    | _ -> ());
    Printf.eprintf "%s and %s: reports DIFFER\n" a b;
    exit 1
  end

(* Structural validation of a pareto sweep report: the frontier must be
   sorted by delay with strictly decreasing power (which is exactly
   "no point dominates another"), every frontier point must be one of
   the sweep's points, the dominated count must balance, constrained
   points must echo their constraint, and glitch power must be present
   exactly when the sweep ran under the glitch cost model. *)
let check_pareto_report ~path j =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: %s\n" path m;
        exit 1)
      fmt
  in
  let member_or_fail obj k =
    match Obs.Json.member k obj with
    | Some v -> v
    | None -> fail "missing field %s" k
  in
  let float_field obj k =
    match member_or_fail obj k with
    | Obs.Json.Float f -> f
    | Obs.Json.Int n -> float_of_int n
    | _ -> fail "field %s is not a number" k
  in
  let points_of k =
    match member_or_fail j k with
    | Obs.Json.List l ->
      if l = [] then fail "%s is empty" k;
      l
    | _ -> fail "field %s is not a list" k
  in
  let points = points_of "points" and frontier = points_of "frontier" in
  let cost_model =
    match member_or_fail j "cost_model" with
    | Obs.Json.String s -> s
    | _ -> fail "field cost_model is not a string"
  in
  if cost_model <> "zero-delay" && cost_model <> "glitch" then
    fail "unknown cost_model %S" cost_model;
  let label p =
    match member_or_fail p "label" with
    | Obs.Json.String s -> s
    | _ -> fail "point label is not a string"
  in
  List.iter
    (fun p ->
      (* a constrained point must echo the constraint it ran under *)
      (match (label p, member_or_fail p "delay_constraint") with
      | "unbounded", Obs.Json.Null -> ()
      | "unbounded", _ -> fail "unbounded point carries a delay_constraint"
      | l, Obs.Json.Null -> fail "constrained point %s lost its delay_constraint" l
      | _, (Obs.Json.Float _ | Obs.Json.Int _) -> ()
      | l, _ -> fail "point %s: delay_constraint is not a number" l);
      (* glitch power iff the sweep ran under the glitch cost model *)
      match (cost_model, member_or_fail p "glitch_power") with
      | "glitch", (Obs.Json.Float _ | Obs.Json.Int _) -> ()
      | "glitch", _ -> fail "point %s: glitch cost but no glitch_power" (label p)
      | _, Obs.Json.Null -> ()
      | _, _ -> fail "point %s: glitch_power under zero-delay cost" (label p))
    points;
  let point_labels = List.map label points in
  List.iter
    (fun f ->
      if not (List.mem (label f) point_labels) then
        fail "frontier point %s is not one of the sweep's points" (label f))
    frontier;
  let rec walk = function
    | a :: (b :: _ as rest) ->
      if float_field a "delay" > float_field b "delay" then
        fail "frontier not sorted by delay (%s before %s)" (label a) (label b);
      if float_field a "power" <= float_field b "power" then
        fail "dominated frontier point: %s does not beat %s on power" (label b)
          (label a);
      walk rest
    | _ -> ()
  in
  walk frontier;
  let dominated =
    match member_or_fail j "dominated" with
    | Obs.Json.Int n -> n
    | _ -> fail "field dominated is not an integer"
  in
  if dominated <> List.length points - List.length frontier then
    fail "dominated %d <> points %d - frontier %d" dominated
      (List.length points) (List.length frontier);
  Printf.printf "%s: pareto frontier OK (%d points, %d on frontier, %s cost)\n"
    path (List.length points) (List.length frontier) cost_model

(* Structural validation of one optimizer report: the window funnel
   must be internally coherent.  [window_checks] counts candidates that
   entered the windowed check, each of which either proved or
   escalated; every escalation is classified in the guard's give-up
   breakdown under a [window/] key without touching
   [rejected_by_giveup] (an escalation is not a rejection — the global
   engine still decides).  The cost-model fields must also cohere:
   glitch power is measured exactly under the glitch model, and a
   delay rejection implies a constraint was in force.  A report
   violating any of these identities means the accounting regressed. *)
let check_report path =
  let j = parse_file path in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: %s\n" path m;
        exit 1)
      fmt
  in
  let member_or_fail obj k =
    match Obs.Json.member k obj with
    | Some v -> v
    | None -> fail "missing field %s" k
  in
  if Obs.Json.member "points" j <> None then begin
    check_pareto_report ~path j;
    (* the embedded per-point reports obey the optimizer identities
       too, but they are checked where they are produced; the frontier
       invariants are this report's own contract *)
    exit 0
  end;
  let int_field obj k =
    match member_or_fail obj k with
    | Obs.Json.Int n ->
      if n < 0 then fail "negative %s (%d)" k n;
      n
    | _ -> fail "field %s is not an integer" k
  in
  (match member_or_fail j "cost_model" with
  | Obs.Json.String ("zero-delay" as c) | Obs.Json.String ("glitch" as c) ->
    let glitchy k =
      match member_or_fail j k with
      | Obs.Json.Float _ | Obs.Json.Int _ -> true
      | Obs.Json.Null -> false
      | _ -> fail "field %s is not a number or null" k
    in
    let has_initial = glitchy "initial_glitch_power" in
    let has_final = glitchy "final_glitch_power" in
    if (c = "glitch") <> has_initial || (c = "glitch") <> has_final then
      fail "cost_model %s but glitch power fields %spresent" c
        (if has_initial || has_final then "" else "not ")
  | Obs.Json.String c -> fail "unknown cost_model %S" c
  | _ -> fail "field cost_model is not a string");
  let funnel = member_or_fail j "funnel" in
  (match (int_field funnel "rejected_by_delay", member_or_fail j "delay_constraint")
   with
  | 0, _ | _, (Obs.Json.Float _ | Obs.Json.Int _) -> ()
  | n, Obs.Json.Null ->
    fail "%d delay rejections without a delay_constraint" n
  | _, _ -> fail "field delay_constraint is not a number or null");
  let checks = int_field funnel "window_checks" in
  let proved = int_field funnel "window_proved" in
  let escalated = int_field funnel "window_escalated" in
  if checks <> proved + escalated then
    fail "window_checks %d <> window_proved %d + window_escalated %d" checks
      proved escalated;
  let checks_run = int_field funnel "checks_run" in
  if checks > checks_run then
    fail "window_checks %d exceeds checks_run %d" checks checks_run;
  let accepted = int_field funnel "accepted" in
  if accepted > checks_run then
    fail "accepted %d exceeds checks_run %d" accepted checks_run;
  let guard = member_or_fail j "guard" in
  let window_breakdown_total =
    match Obs.Json.member "giveup_breakdown" guard with
    | Some (Obs.Json.Obj entries) ->
      List.fold_left
        (fun acc (k, v) ->
          let n =
            match v with
            | Obs.Json.Int n -> n
            | _ -> fail "giveup_breakdown %s is not an integer" k
          in
          if n < 0 then fail "negative giveup_breakdown %s (%d)" k n;
          if String.length k > 7 && String.sub k 0 7 = "window/" then acc + n
          else acc)
        0 entries
    | _ -> fail "missing or malformed guard.giveup_breakdown"
  in
  if window_breakdown_total <> escalated then
    fail "window/* breakdown total %d <> window_escalated %d"
      window_breakdown_total escalated;
  Printf.printf "%s: window funnel OK (%d checks = %d proved + %d escalated)\n"
    path checks proved escalated

let () =
  let jsonl, path =
    match Array.to_list Sys.argv with
    | [ _; "--compare-reports"; a; b ] ->
      compare_reports a b;
      exit 0
    | [ _; "--check-report"; p ] ->
      check_report p;
      exit 0
    | [ _; "--jsonl"; p ] -> (true, p)
    | [ _; p ] -> (false, p)
    | _ ->
      prerr_endline
        "usage: json_check [--jsonl] FILE | json_check --compare-reports A B \
         | json_check --check-report REPORT";
      exit 2
  in
  let content = read_file path in
  if jsonl then begin
    let lines =
      String.split_on_char '\n' content
      |> List.filter (fun l -> String.trim l <> "")
    in
    List.iteri
      (fun i line ->
        match Obs.Json.of_string line with
        | Ok j ->
          (* every trace stream leads with its run manifest *)
          if i = 0 then begin
            match Obs.Json.member "ev" j with
            | Some (Obs.Json.String "run_start") -> ()
            | _ ->
              Printf.eprintf
                "%s:1: first record is not a run_start header\n" path;
              exit 1
          end
        | Error e ->
          Printf.eprintf "%s:%d: %s\n" path (i + 1) e;
          exit 1)
      lines;
    Printf.printf "%s: %d JSONL records OK\n" path (List.length lines)
  end
  else
    match Obs.Json.of_string content with
    | Ok _ -> Printf.printf "%s: JSON OK\n" path
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
