(* Benchmark harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- fig2      -- the Figure 2 worked example
     dune exec bench/main.exe -- table1    -- Table 1 (both POWDER modes)
     dune exec bench/main.exe -- table2    -- Table 2 (class contributions)
     dune exec bench/main.exe -- fig6      -- Figure 6 (power-delay trade-off)
     dune exec bench/main.exe -- ablation  -- design-choice ablations
     dune exec bench/main.exe -- glitch    -- glitch power before/after
     dune exec bench/main.exe -- quick     -- fast subset of everything

   Any other word is a usage error (exit 2).  Performance is measured by
   powderbench (powderbench/run.py), not here.

   [--jobs N] runs the table1 circuits on a domain pool of N executors
   (default: Par.Pool.default_jobs); each optimizer run inside a pool
   task is itself sequential, so reports are unchanged.

   Absolute values differ from the paper (different library constants,
   different starting netlists); the comparison targets are the paper's
   percentages and curve shapes, recorded in EXPERIMENTS.md. *)

module Circuit = Netlist.Circuit
module Suite = Circuits.Suite
module Optimizer = Powder.Optimizer
module Subst = Powder.Subst

let words = 16
let quick = ref false
let jobs = ref (Par.Pool.default_jobs ())

(* One base seed for the whole harness; every section derives its own
   pattern stream by label, the same way the optimizer, guard and
   fuzzer do. *)
let base_seed = 0xC0FFEEL
let section_rng section = Sim.Rng.stream base_seed ("bench/" ^ section)

let base_config = { Optimizer.default_config with words }

(* ------------------------------------------------------------------ *)
(* Figure 2: the worked example.                                       *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  print_endline "=== Figure 2: power reduction by reconnecting a gate input ===";
  let lib = Gatelib.Library.lib2 in
  let cell = Gatelib.Library.find lib in
  let c = Circuit.create lib in
  let a = Circuit.add_pi c ~name:"a" in
  let b = Circuit.add_pi c ~name:"b" in
  let ci = Circuit.add_pi c ~name:"c" in
  let e = Circuit.add_cell c ~name:"e" (cell "and2") [| a; b |] in
  let d = Circuit.add_cell c ~name:"d" (cell "xor2") [| a; ci |] in
  let f = Circuit.add_cell c ~name:"f" (cell "and2") [| d; b |] in
  ignore (Circuit.add_po c ~name:"out_f" f);
  ignore (Circuit.add_po c ~name:"out_e" e);
  (* paper conditions: AND pin = 1 unit of capacitance, EXOR pin = 2;
     with a quiet input c the rewiring pays off *)
  let eng = Sim.Engine.create c ~words:64 in
  let probs pi = if Circuit.name c pi = "c" then 0.15 else 0.5 in
  Sim.Engine.randomize eng ~input_probs:probs (section_rng "fig2");
  let est = Power.Estimator.create eng in
  let before = Power.Estimator.total est in
  let s = { Subst.target = Subst.Branch { sink = d; pin = 0 }; source = Subst.Signal e } in
  let gain = Subst.gain_full est s in
  Printf.printf "circuit A switched capacitance: %.3f\n" before;
  Printf.printf "IS2(d.pin0 <- e): PG_A=%.3f PG_B=%.3f PG_C=%.3f total=%.3f\n"
    gain.Subst.pg_a gain.Subst.pg_b gain.Subst.pg_c (Subst.total_gain gain);
  let src = Subst.apply c s in
  ignore (Power.Estimator.update_after_edit est src);
  let after = Power.Estimator.total est in
  Printf.printf "circuit B switched capacitance: %.3f (paper: 1.555 -> 1.132)\n"
    after;
  Printf.printf "reduction: %.1f%%\n\n" (100.0 *. (before -. after) /. before)

(* ------------------------------------------------------------------ *)
(* Table 1.                                                            *)
(* ------------------------------------------------------------------ *)

type t1row = {
  spec : Suite.spec;
  initial_power : float;
  initial_area : float;
  initial_delay : float;
  unconstrained : Optimizer.report;
  constrained : Optimizer.report;
}

let table1_specs () =
  if !quick then
    (* cps is the largest suite circuit: the generate-phase stress case *)
    List.filter_map Suite.find
      [ "comp"; "rd84"; "f51m"; "alu2"; "t481"; "9sym"; "cps" ]
  else Suite.all

let table1_rows () =
  let specs = table1_specs () in
  (* Both runs for one circuit are a single pool task; the optimizer
     detects it is inside a task and stays sequential.  Reports are
     identical to a fully sequential sweep. *)
  let compute spec =
    let circ = Suite.mapped spec in
    let unconstrained =
      Optimizer.optimize ~config:base_config (Circuit.clone circ)
    in
    let constrained =
      Optimizer.optimize
        ~config:{ base_config with Optimizer.delay = Optimizer.Keep_initial }
        (Circuit.clone circ)
    in
    (unconstrained, constrained)
  in
  let results =
    if !jobs > 1 then begin
      Printf.eprintf "[table1] %d circuits on %d domains...\n%!"
        (List.length specs) !jobs;
      Par.Pool.with_pool ~jobs:!jobs (fun pool ->
          Par.Pool.map pool ~f:compute (Array.of_list specs))
      |> Array.to_list
      |> List.map (function
           | Some r -> r
           | None -> failwith "table1: pool task cancelled")
    end
    else
      List.map
        (fun spec ->
          Printf.eprintf "[table1] %s...\n%!" spec.Suite.name;
          compute spec)
        specs
  in
  let rows =
    List.map2
      (fun spec (unconstrained, constrained) ->
        {
          spec;
          initial_power = unconstrained.Optimizer.initial_power;
          initial_area = unconstrained.Optimizer.initial_area;
          initial_delay = unconstrained.Optimizer.initial_delay;
          unconstrained;
          constrained;
        })
      specs results
  in
  List.sort (fun a b -> Float.compare a.initial_area b.initial_area) rows

let print_table1 rows =
  print_endline "=== Table 1: POWDER on the benchmark suite ===";
  Printf.printf "%-10s | %8s %9s %6s | %8s %6s %9s | %8s %6s %9s %6s %6s\n"
    "circuit" "power" "area" "delay" "power" "red.%" "area" "power" "red.%"
    "area" "delay" "cpu";
  Printf.printf "%-10s | %27s | %26s | %s\n" "" "initial"
    "POWDER no delay constraint" "POWDER with delay constraints";
  let line = String.make 118 '-' in
  print_endline line;
  let sip = ref 0.0 and sia = ref 0.0 and sidel = ref 0.0 in
  let sup = ref 0.0 and sua = ref 0.0 in
  let scp = ref 0.0 and sca = ref 0.0 and scdel = ref 0.0 in
  List.iter
    (fun r ->
      let u = r.unconstrained and c = r.constrained in
      sip := !sip +. r.initial_power;
      sia := !sia +. r.initial_area;
      sidel := !sidel +. r.initial_delay;
      sup := !sup +. u.Optimizer.final_power;
      sua := !sua +. u.Optimizer.final_area;
      scp := !scp +. c.Optimizer.final_power;
      sca := !sca +. c.Optimizer.final_area;
      scdel := !scdel +. c.Optimizer.final_delay;
      Printf.printf
        "%-10s | %8.2f %9.0f %6.2f | %8.2f %6.1f %9.0f | %8.2f %6.1f %9.0f %6.2f %6.0f\n"
        r.spec.Suite.name r.initial_power r.initial_area r.initial_delay
        u.Optimizer.final_power
        (Optimizer.power_reduction_percent u)
        u.Optimizer.final_area c.Optimizer.final_power
        (Optimizer.power_reduction_percent c)
        c.Optimizer.final_area c.Optimizer.final_delay
        c.Optimizer.cpu_seconds)
    rows;
  print_endline line;
  Printf.printf
    "%-10s | %8.2f %9.0f %6.1f | %8.2f %6.1f %9.0f | %8.2f %6.1f %9.0f %6.1f\n"
    "total" !sip !sia !sidel !sup
    (100.0 *. (!sip -. !sup) /. !sip)
    !sua !scp
    (100.0 *. (!sip -. !scp) /. !sip)
    !sca !scdel;
  Printf.printf
    "reduction: power %.1f%% / area %.1f%% (unconstrained); power %.1f%% / \
     area %.1f%% / delay %.1f%% (constrained)\n"
    (100.0 *. (!sip -. !sup) /. !sip)
    (100.0 *. (!sia -. !sua) /. !sia)
    (100.0 *. (!sip -. !scp) /. !sip)
    (100.0 *. (!sia -. !sca) /. !sia)
    (100.0 *. (!sidel -. !scdel) /. !sidel);
  Printf.printf
    "(paper totals: 26.1%% power / 8.9%% area unconstrained; 21.4%% power, \
     6.8%% delay reduction constrained)\n\n"

(* ------------------------------------------------------------------ *)
(* Table 2.                                                            *)
(* ------------------------------------------------------------------ *)

let print_table2 rows =
  print_endline "=== Table 2: contribution of substitution classes ===";
  let totals = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.add totals k (0, 0.0, 0.0)) Subst.all_klasses;
  List.iter
    (fun r ->
      List.iter
        (fun (k, st) ->
          let n, p, a = Hashtbl.find totals k in
          Hashtbl.replace totals k
            ( n + st.Optimizer.accepted,
              p +. st.Optimizer.power_gain,
              a +. st.Optimizer.area_gain ))
        r.unconstrained.Optimizer.by_class)
    rows;
  let total_power =
    List.fold_left (fun acc k -> let _, p, _ = Hashtbl.find totals k in acc +. p)
      0.0 Subst.all_klasses
  in
  let total_area =
    List.fold_left (fun acc k -> let _, _, a = Hashtbl.find totals k in acc +. a)
      0.0 Subst.all_klasses
  in
  Printf.printf "%-28s | %8s %8s %8s %8s\n" "substitution:" "OS2" "IS2" "OS3" "IS3";
  let by k =
    let n, p, a = Hashtbl.find totals k in
    (n, p, a)
  in
  let pct part total = if Float.abs total > 1e-12 then 100.0 *. part /. total else 0.0 in
  let order = [ Subst.Os2; Subst.Is2; Subst.Os3; Subst.Is3 ] in
  Printf.printf "%-28s |" "accepted substitutions:";
  List.iter (fun k -> let n, _, _ = by k in Printf.printf " %8d" n) order;
  Printf.printf "\n%-28s |" "power reduction share (%):";
  List.iter (fun k -> let _, p, _ = by k in Printf.printf " %8.1f" (pct p total_power)) order;
  Printf.printf "\n%-28s |" "area reduction share (%):";
  List.iter (fun k -> let _, _, a = by k in Printf.printf " %8.1f" (pct a total_area)) order;
  Printf.printf
    "\n(paper: power 32.5 / 36.5 / 27.6 / 3.4 %%; area 171.5 / -11.6 / -27.7 / \
     -32.2 %%)\n\n"

(* ------------------------------------------------------------------ *)
(* Figure 6.                                                           *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline "=== Figure 6: power-delay trade-off ===";
  let names =
    if !quick then [ "rd84"; "alu2"; "f51m" ] else Suite.fig6_names
  in
  let percents =
    if !quick then [ 0.0; 30.0; 200.0 ]
    else [ 0.0; 10.0; 20.0; 30.0; 50.0; 80.0; 120.0; 200.0 ]
  in
  Printf.eprintf "[fig6] sweeping %d circuits x %d constraints...\n%!"
    (List.length names) (List.length percents);
  let specs = List.map (fun p -> Pareto.Sweep.Scale (1.0 +. (p /. 100.0))) percents in
  (* one sweep per circuit; row i of the figure sums point i of each *)
  let sweeps =
    List.filter_map
      (fun name ->
        Option.map
          (fun spec ->
            (Pareto.Sweep.run ~config:base_config ~specs ~name (fun () ->
                 Suite.mapped spec))
              .Pareto.Sweep.reports
            |> List.map snd)
          (Suite.find name))
      names
  in
  print_endline "% constraint | rel. delay | rel. power | substs";
  List.iteri
    (fun i percent ->
      let row = List.map (fun reports -> List.nth reports i) sweeps in
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 row in
      let ratio final initial =
        let total = sum initial in
        if total > 0.0 then sum final /. total else 1.0
      in
      Printf.printf "%11.0f%% | %10.3f | %10.3f | %6d\n" percent
        (ratio (fun r -> r.Optimizer.final_delay) (fun r -> r.Optimizer.initial_delay))
        (ratio (fun r -> r.Optimizer.final_power) (fun r -> r.Optimizer.initial_power))
        (List.fold_left (fun acc r -> acc + r.Optimizer.funnel.substitutions) 0 row))
    percents;
  print_newline ();
  print_endline
    "(paper shape: ~26% reduction at 0% constraint growing to ~38% at 200%,\n\
    \ two thirds of the extra gain within +15% delay, flat beyond +80%)\n"

(* ------------------------------------------------------------------ *)
(* Ablations (not in the paper; design-choice experiments).            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "=== Ablations ===";
  let names = if !quick then [ "rd84"; "alu2" ] else [ "rd84"; "alu2"; "comp"; "C432"; "t481"; "C880" ] in
  (* A. optimizer family comparison: redundancy removal (area-oriented
     baseline), gate re-sizing (delay-constrained power baseline),
     POWDER, POWDER followed by re-sizing *)
  Printf.printf "%-8s | %28s | %28s | %28s | %28s\n" "" "redundancy removal"
    "gate re-sizing" "POWDER (delay kept)" "POWDER + re-sizing";
  Printf.printf "%-8s | %9s %9s %8s | %9s %9s %8s | %9s %9s %8s | %9s %9s %8s\n"
    "circuit" "power%" "area%" "delay%" "power%" "area%" "delay%" "power%"
    "area%" "delay%" "power%" "area%" "delay%";
  let measure_power circ =
    let eng = Sim.Engine.create circ ~words in
    Sim.Engine.randomize eng (section_rng "table1");
    Power.Estimator.total (Power.Estimator.create eng)
  in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some spec ->
        Printf.eprintf "[ablation] %s...\n%!" name;
        (* map against the sized library so re-sizing has real choices *)
        let g = spec.Suite.build () in
        let base =
          Mapper.Techmap.map ~objective:Mapper.Techmap.Power
            Gatelib.Library.lib2_sized g
        in
        let p0 = measure_power base in
        let a0 = Circuit.area base in
        let d0 = Sta.Timing.circuit_delay (Sta.Timing.analyze base) in
        let pct v0 v = 100.0 *. (v0 -. v) /. v0 in
        let finish circ =
          ( pct p0 (measure_power circ),
            pct a0 (Circuit.area circ),
            pct d0 (Sta.Timing.circuit_delay (Sta.Timing.analyze circ)) )
        in
        let rr =
          let c = Circuit.clone base in
          ignore (Atpg.Redundancy.remove c);
          finish c
        in
        let rs =
          let c = Circuit.clone base in
          ignore (Powder.Resize.optimize ~words c);
          finish c
        in
        let pw =
          let c = Circuit.clone base in
          ignore
            (Optimizer.optimize
               ~config:{ base_config with Optimizer.delay = Optimizer.Keep_initial }
               c);
          finish c
        in
        let both =
          let c = Circuit.clone base in
          ignore
            (Optimizer.optimize
               ~config:{ base_config with Optimizer.delay = Optimizer.Keep_initial }
               c);
          ignore (Powder.Resize.optimize ~words c);
          finish c
        in
        let row (p, a, d) = Printf.sprintf "%8.1f%% %8.1f%% %7.1f%%" p a d in
        Printf.printf "%-8s | %s | %s | %s | %s\n%!" name (row rr) (row rs)
          (row pw) (row both))
    names;
  (* B. exact-check engine: SAT vs classic PODEM abort rate *)
  print_endline "\nPermissibility-check engine comparison (50 candidates each):";
  Printf.printf "%-8s | %22s | %22s\n" "circuit" "SAT (ok/refuted/abort)"
    "PODEM (ok/refuted/abort)";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some spec ->
        let circ = Suite.mapped spec in
        let eng = Sim.Engine.create circ ~words in
        Sim.Engine.randomize eng (section_rng "engines");
        let est = Power.Estimator.create eng in
        let cands =
          Powder.Candidates.generate est |> List.filteri (fun i _ -> i < 50)
        in
        let tally engine =
          List.fold_left
            (fun (ok, no, ab) (s, _) ->
              if Powder.Subst.creates_cycle circ s then (ok, no, ab)
              else
                match
                  Powder.Check.permissible ~exhaustive_limit:0 ~engine circ s
                with
                | Powder.Check.Permissible -> (ok + 1, no, ab)
                | Powder.Check.Not_permissible _ -> (ok, no + 1, ab)
                | Powder.Check.Gave_up _ -> (ok, no, ab + 1))
            (0, 0, 0) cands
        in
        let sok, sno, sab = tally `Sat in
        let pok, pno, pab = tally `Podem in
        Printf.printf "%-8s | %8d/%6d/%5d | %8d/%6d/%5d\n%!" name sok sno sab
          pok pno pab)
    (if !quick then [ "rd84" ] else [ "comp"; "C432"; "rd84" ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Glitch extension: what the zero-delay model leaves out.             *)
(* ------------------------------------------------------------------ *)

let glitch () =
  print_endline
    "=== Extension: glitch (timed) power before/after POWDER ===";
  Printf.printf "%-8s | %9s %9s %8s | %9s %9s %8s\n" "" "zero-dly" "timed"
    "glitch%" "zero-dly" "timed" "glitch%";
  Printf.printf "%-8s | %28s | %28s\n" "circuit" "initial" "after POWDER";
  let names = if !quick then [ "rd84"; "alu2" ] else [ "rd84"; "alu2"; "f51m"; "C432"; "C880"; "9sym" ] in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some spec ->
        let circ = Suite.mapped spec in
        let before = Power.Glitch.estimate ~pairs:256 circ in
        ignore (Optimizer.optimize ~config:base_config circ);
        let after = Power.Glitch.estimate ~pairs:256 circ in
        let row (r : Power.Glitch.report) =
          Printf.sprintf "%9.2f %9.2f %7.1f%%" r.Power.Glitch.zero_delay_switched_cap
            r.Power.Glitch.timed_switched_cap
            (100.0 *. r.Power.Glitch.glitch_fraction)
        in
        Printf.printf "%-8s | %s | %s\n%!" name (row before) (row after))
    names;
  print_endline
    "(the paper's zero-delay model ignores glitching, citing it at ~20% of\n\
    \ total power; this table reports how much the optimized netlists glitch)\n"

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let sections = [ "fig2"; "table1"; "table2"; "fig6"; "ablation"; "glitch" ]

let usage () =
  prerr_endline
    ("usage: bench/main.exe [quick] [--jobs N] ["
    ^ String.concat "|" sections
    ^ "]...");
  exit 2

let () =
  Obs.Runtime.tune_gc ();
  let set_jobs n =
    match int_of_string_opt n with
    | Some n -> jobs := max 1 n
    | None -> usage ()
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("quick" | "--quick") :: rest ->
      quick := true;
      parse acc rest
    | ("-j" | "--jobs") :: n :: rest ->
      set_jobs n;
      parse acc rest
    | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
      set_jobs (String.sub a 7 (String.length a - 7));
      parse acc rest
    | a :: rest when List.mem a sections -> parse (a :: acc) rest
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let want x = args = [] || List.mem x args in
  if want "fig2" then fig2 ();
  let rows =
    if want "table1" || want "table2" then Some (table1_rows ()) else None
  in
  (match rows with
  | Some rows ->
    if want "table1" then print_table1 rows;
    if want "table2" then print_table2 rows
  | None -> ());
  if want "fig6" then fig6 ();
  if want "ablation" then ablation ();
  if want "glitch" then glitch ()
