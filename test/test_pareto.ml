(* lib/pareto: frontier dominance, cost-model parsing, the sweep
   driver's determinism/constraint contracts, and per-point
   checkpoint/resume. *)

module Frontier = Pareto.Frontier
module Sweep = Pareto.Sweep
module Cost = Pareto.Cost
module Optimizer = Powder.Optimizer

let point ?(label = "p") ?delay_constraint ?glitch_power ~power ~delay () =
  {
    Frontier.label;
    delay_constraint;
    power;
    glitch_power;
    delay;
    area = 100.0;
    substitutions = 1;
  }

(* --- Frontier ---------------------------------------------------- *)

let test_dominates () =
  let a = point ~power:1.0 ~delay:1.0 () in
  let worse_power = point ~power:2.0 ~delay:1.0 () in
  let worse_delay = point ~power:1.0 ~delay:2.0 () in
  let equal = point ~power:1.0 ~delay:1.0 () in
  let tradeoff = point ~power:0.5 ~delay:2.0 () in
  Alcotest.(check bool) "strict power" true (Frontier.dominates a worse_power);
  Alcotest.(check bool) "strict delay" true (Frontier.dominates a worse_delay);
  Alcotest.(check bool) "equal dominates nothing" false
    (Frontier.dominates a equal);
  Alcotest.(check bool) "tradeoff incomparable" false
    (Frontier.dominates a tradeoff);
  Alcotest.(check bool) "tradeoff incomparable (sym)" false
    (Frontier.dominates tradeoff a)

let test_prune () =
  let p1 = point ~label:"a" ~power:5.0 ~delay:1.0 () in
  let p2 = point ~label:"b" ~power:3.0 ~delay:2.0 () in
  let dominated = point ~label:"c" ~power:4.0 ~delay:3.0 () in
  let duplicate = point ~label:"d" ~power:3.0 ~delay:2.0 () in
  let p3 = point ~label:"e" ~power:2.0 ~delay:4.0 () in
  let frontier, dropped = Frontier.prune [ p3; dominated; p2; duplicate; p1 ] in
  Alcotest.(check int) "dominated count" 2 dropped;
  Alcotest.(check (list string)) "frontier labels, delay order"
    [ "a"; "b"; "e" ]
    (List.map (fun p -> p.Frontier.label) frontier);
  (* structural invariant: no frontier point dominates another *)
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if x.Frontier.label <> y.Frontier.label then
            Alcotest.(check bool) "no dominance on the frontier" false
              (Frontier.dominates x y))
        frontier)
    frontier

let test_prune_single_and_empty () =
  let frontier, dropped = Frontier.prune [] in
  Alcotest.(check int) "empty in, empty out" 0 (List.length frontier);
  Alcotest.(check int) "nothing dominated" 0 dropped;
  let p = point ~power:1.0 ~delay:1.0 () in
  let frontier, dropped = Frontier.prune [ p ] in
  Alcotest.(check int) "singleton survives" 1 (List.length frontier);
  Alcotest.(check int) "singleton dominates nothing" 0 dropped

let test_point_json_roundtrip () =
  let check_roundtrip p =
    match Frontier.of_json (Frontier.to_json p) with
    | Ok p' -> Alcotest.(check bool) "round-trips" true (p = p')
    | Error e -> Alcotest.fail ("of_json failed: " ^ e)
  in
  check_roundtrip
    (point ~label:"1.10x" ~delay_constraint:13.5 ~glitch_power:48.2 ~power:40.0
       ~delay:12.0 ());
  check_roundtrip (point ~label:"unbounded" ~power:38.0 ~delay:17.0 ())

(* --- Cost -------------------------------------------------------- *)

let test_cost_parse () =
  let ok s = Result.get_ok (Cost.of_string s) in
  Alcotest.(check bool) "zero-delay" true (ok "zero-delay" = Cost.Zero_delay);
  Alcotest.(check bool) "zero_delay alias" true
    (ok "zero_delay" = Cost.Zero_delay);
  Alcotest.(check bool) "glitch default pairs" true
    (ok "glitch" = Cost.Glitch { pairs = Cost.default_glitch_pairs });
  Alcotest.(check bool) "glitch:16" true (ok "glitch:16" = Cost.Glitch { pairs = 16 });
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Cost.of_string s)))
    [ "glitch:0"; "glitch:-3"; "glitch:x"; "bogus"; "" ];
  (* to_string round-trips through of_string *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Cost.to_string c ^ " round-trips")
        true
        (ok (Cost.to_string c) = c))
    [ Cost.Zero_delay; Cost.Glitch { pairs = Cost.default_glitch_pairs };
      Cost.Glitch { pairs = 7 } ]

let test_spec_parse () =
  let ok s = Result.get_ok (Sweep.spec_of_string s) in
  Alcotest.(check bool) "1.1" true (ok "1.1" = Sweep.Scale 1.1);
  Alcotest.(check bool) "1.25x" true (ok "1.25x" = Sweep.Scale 1.25);
  Alcotest.(check bool) "unbounded" true (ok "unbounded" = Sweep.Unbounded);
  Alcotest.(check bool) "inf" true (ok "inf" = Sweep.Unbounded);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Sweep.spec_of_string s)))
    [ "0.5"; "-1"; "x"; "" ];
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (Sweep.spec_to_string sp ^ " round-trips")
        true
        (ok (Sweep.spec_to_string sp) = sp))
    Sweep.default_specs

(* --- Sweep ------------------------------------------------------- *)

let test_config =
  {
    Optimizer.default_config with
    words = 4;
    seed = 99L;
    max_rounds = 2;
  }

let rd84 () =
  Circuits.Suite.mapped (Option.get (Circuits.Suite.find "rd84"))

let strip_volatile = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.filter (fun (k, _) -> k <> "jobs" && k <> "cpu_seconds") fields)
  | j -> j

let test_sweep_structure () =
  let specs = [ Sweep.Scale 1.0; Sweep.Scale 1.25; Sweep.Unbounded ] in
  let r = Sweep.run ~config:test_config ~specs ~name:"rd84" rd84 in
  Alcotest.(check int) "one point per spec" (List.length specs)
    (List.length r.Sweep.points);
  Alcotest.(check (list string)) "points in constraint order"
    (List.map Sweep.spec_to_string specs)
    (List.map (fun p -> p.Frontier.label) r.Sweep.points);
  (* the frontier is the prune of the points and balances the count *)
  let frontier, dominated = Frontier.prune r.Sweep.points in
  Alcotest.(check bool) "frontier = prune points" true
    (frontier = r.Sweep.frontier);
  Alcotest.(check int) "dominated balances" dominated r.Sweep.dominated;
  Alcotest.(check bool) "frontier non-empty" true (r.Sweep.frontier <> []);
  (* every constrained point respects its constraint; unbounded has none *)
  List.iter
    (fun p ->
      match p.Frontier.delay_constraint with
      | Some c ->
        Alcotest.(check bool)
          (p.Frontier.label ^ " final delay within constraint")
          true
          (p.Frontier.delay <= c +. 1e-9)
      | None ->
        Alcotest.(check string) "only the unbounded point is unconstrained"
          "unbounded" p.Frontier.label)
    r.Sweep.points;
  (* zero-delay sweep: no glitch power anywhere *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "no glitch power under zero-delay cost" true
        (p.Frontier.glitch_power = None))
    r.Sweep.points;
  (* no point, constrained or not, ends with more power than it began *)
  List.iter
    (fun (label, rep) ->
      Alcotest.(check bool) (label ^ " power never increases") true
        (rep.Optimizer.final_power <= rep.Optimizer.initial_power +. 1e-9))
    r.Sweep.reports

let test_sweep_delay_rejections () =
  (* Section 3.4 satellite: at the keep-initial-delay constraint some
     candidates must die on the delay screen, and the surviving netlist
     must still meet the constraint *)
  let r =
    Sweep.run ~config:test_config ~specs:[ Sweep.Scale 1.0 ] ~name:"rd84" rd84
  in
  let _, rep = List.hd r.Sweep.reports in
  Alcotest.(check bool) "rejected_by_delay > 0" true
    (rep.Optimizer.funnel.rejected_by_delay > 0);
  (match rep.Optimizer.delay_constraint with
  | None -> Alcotest.fail "1.00x point lost its constraint"
  | Some c ->
    Alcotest.(check bool) "final arrival <= constraint" true
      (rep.Optimizer.final_delay <= c +. 1e-9);
    Alcotest.(check (float 1e-6)) "constraint = initial delay"
      rep.Optimizer.initial_delay c);
  Alcotest.(check bool) "still finds substitutions" true
    (rep.Optimizer.funnel.substitutions > 0)

let test_sweep_jobs_deterministic () =
  let specs = [ Sweep.Scale 1.0; Sweep.Unbounded ] in
  let run jobs =
    Sweep.run ~config:test_config ~specs ~jobs ~name:"rd84" rd84
  in
  let j1 = strip_volatile (Sweep.to_json (run 1)) in
  let j2 = strip_volatile (Sweep.to_json (run 2)) in
  Alcotest.(check string) "jobs 1 and 2 byte-identical"
    (Obs.Json.to_string j1) (Obs.Json.to_string j2)

let test_sweep_glitch_cost () =
  let config = Cost.apply (Cost.Glitch { pairs = 16 }) test_config in
  let r =
    Sweep.run ~config ~specs:[ Sweep.Scale 1.0; Sweep.Unbounded ] ~name:"rd84"
      rd84
  in
  List.iter
    (fun p ->
      match p.Frontier.glitch_power with
      | Some g ->
        Alcotest.(check bool)
          (p.Frontier.label ^ " glitch power sane")
          true
          (Float.is_finite g && g >= 0.0)
      | None -> Alcotest.fail (p.Frontier.label ^ ": glitch cost but no glitch power"))
    r.Sweep.points;
  List.iter
    (fun (lbl, rep) ->
      Alcotest.(check string) (lbl ^ " cost model recorded") "glitch"
        rep.Optimizer.cost_model;
      Alcotest.(check bool) (lbl ^ " glitch fields measured") true
        (rep.Optimizer.initial_glitch_power <> None
        && rep.Optimizer.final_glitch_power <> None))
    r.Sweep.reports

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pareto_test_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let test_sweep_checkpoint_resume () =
  with_temp_dir (fun dir ->
      let specs = [ Sweep.Scale 1.0; Sweep.Unbounded ] in
      let run () =
        Sweep.run ~config:test_config ~specs ~checkpoint_dir:dir ~name:"rd84"
          rd84
      in
      let first = strip_volatile (Sweep.to_json (run ())) in
      (* every point leaves a checkpoint behind *)
      List.iter
        (fun sp ->
          let f =
            Filename.concat dir
              (Printf.sprintf "point-%s.json" (Sweep.spec_to_string sp))
          in
          Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f))
        specs;
      (* a re-run resumes from the finished checkpoints and reproduces
         the uninterrupted report byte-for-byte *)
      let second = strip_volatile (Sweep.to_json (run ())) in
      Alcotest.(check string) "resumed sweep identical"
        (Obs.Json.to_string first) (Obs.Json.to_string second));
  (* a sweep stopped after round 1 and re-run over the same directory
     with a different seed finishes on the checkpoint's seed: mixing
     the two would produce a netlist neither seed does *)
  let sweep ~dir seed max_rounds =
    let config = { test_config with Optimizer.seed; max_rounds } in
    strip_volatile
      (Sweep.to_json
         (Sweep.run ~config ~specs:[ Sweep.Unbounded ] ~checkpoint_dir:dir
            ~name:"rd84" rd84))
  in
  let reference = with_temp_dir (fun dir -> sweep ~dir 1L 2) in
  let resumed =
    with_temp_dir (fun dir ->
        ignore (sweep ~dir 1L 1);
        sweep ~dir 99L 2)
  in
  Alcotest.(check string) "resumed on the checkpoint's seed"
    (Obs.Json.to_string reference) (Obs.Json.to_string resumed)

let suite =
  [
    ( "pareto",
      [
        Alcotest.test_case "dominates" `Quick test_dominates;
        Alcotest.test_case "prune" `Quick test_prune;
        Alcotest.test_case "prune edge cases" `Quick test_prune_single_and_empty;
        Alcotest.test_case "point json round-trip" `Quick test_point_json_roundtrip;
        Alcotest.test_case "cost parsing" `Quick test_cost_parse;
        Alcotest.test_case "spec parsing" `Quick test_spec_parse;
        Alcotest.test_case "sweep structure" `Quick test_sweep_structure;
        Alcotest.test_case "delay constraint enforced" `Quick
          test_sweep_delay_rejections;
        Alcotest.test_case "jobs-deterministic" `Quick test_sweep_jobs_deterministic;
        Alcotest.test_case "glitch cost sweep" `Quick test_sweep_glitch_cost;
        Alcotest.test_case "checkpoint resume" `Quick test_sweep_checkpoint_resume;
      ] );
  ]
