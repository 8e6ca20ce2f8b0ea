(* Power-delay trade-off (the experiment behind the paper's Figure 6)
   on a handful of benchmark circuits: sweep the allowed delay increase
   and watch the extra power savings saturate.

   Run with: dune exec examples/timing_tradeoff.exe *)

module Optimizer = Powder.Optimizer

let () =
  let names = [ "rd84"; "alu2"; "f51m"; "t481" ] in
  let percents = [ 0.0; 10.0; 30.0; 80.0; 200.0 ] in
  Format.printf "Sweeping delay constraints on: %s@."
    (String.concat ", " names);
  let config = { Optimizer.default_config with words = 16 } in
  let specs = List.map (fun p -> Pareto.Sweep.Scale (1.0 +. (p /. 100.0))) percents in
  (* one frontier sweep per circuit, each point a report *)
  let sweeps =
    List.filter_map
      (fun name ->
        Option.map
          (fun spec ->
            let sweep =
              Pareto.Sweep.run ~config ~specs ~name (Circuits.Suite.mapped spec)
            in
            List.map snd sweep.Pareto.Sweep.reports)
          (Circuits.Suite.find name))
      names
  in
  Format.printf "%% constraint | rel. delay | rel. power | substs@.";
  List.iteri
    (fun i percent ->
      let row = List.map (fun reports -> List.nth reports i) sweeps in
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 row in
      Format.printf "%11.0f%% | %10.3f | %10.3f | %6d@." percent
        (sum (fun r -> r.Optimizer.final_delay) /. sum (fun r -> r.Optimizer.initial_delay))
        (sum (fun r -> r.Optimizer.final_power) /. sum (fun r -> r.Optimizer.initial_power))
        (List.fold_left (fun acc r -> acc + r.Optimizer.funnel.substitutions) 0 row))
    percents;
  Format.printf
    "@.Reading the curve: the 0%% point keeps every circuit at its@.\
     initial delay; looser constraints buy additional power savings@.\
     until the curve flattens (compare the paper's Figure 6).@."
