module Optimizer = Powder.Optimizer
module Checkpoint = Powder.Checkpoint

type spec = Scale of float | Unbounded

let default_specs = [ Scale 1.0; Scale 1.1; Scale 1.25; Unbounded ]

let spec_to_string = function
  | Scale s -> Printf.sprintf "%.2fx" s
  | Unbounded -> "unbounded"

let spec_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "unbounded" | "inf" | "none" -> Ok Unbounded
  | s -> (
    let s =
      if String.length s > 0 && s.[String.length s - 1] = 'x' then
        String.sub s 0 (String.length s - 1)
      else s
    in
    match float_of_string_opt s with
    | Some f when f >= 1.0 && Float.is_finite f -> Ok (Scale f)
    | Some _ -> Error (Printf.sprintf "delay scale %s must be >= 1.0" s)
    | None ->
      Error
        (Printf.sprintf "bad constraint %S (expected a scale like 1.25 or unbounded)"
           s))

type report = {
  name : string;
  cost : Cost.t;
  points : Frontier.point list;
  frontier : Frontier.point list;
  dominated : int;
  reports : (string * Optimizer.report) list;
  jobs : int;
  cpu_seconds : float;
}

let m_points = Obs.Metrics.counter "pareto.points"
let m_dominated = Obs.Metrics.counter "pareto.dominated"
let g_frontier = Obs.Metrics.gauge "pareto.frontier_size"
let g_glitch_delta = Obs.Metrics.gauge "pareto.glitch_delta"

let point_of spec (r : Optimizer.report) =
  {
    Frontier.label = spec_to_string spec;
    delay_constraint = r.Optimizer.delay_constraint;
    power = r.Optimizer.final_power;
    glitch_power = r.Optimizer.final_glitch_power;
    delay = r.Optimizer.final_delay;
    area = r.Optimizer.final_area;
    substitutions = r.Optimizer.funnel.substitutions;
  }

let run ?(config = Optimizer.default_config) ?(specs = default_specs) ?(jobs = 1)
    ?checkpoint ~name build =
  if specs = [] then invalid_arg "Pareto.Sweep.run: empty constraint list";
  let t0 = Obs.Clock.now () in
  let run_point spec =
    let label = spec_to_string spec in
    Obs.Trace.with_span
      ~fields:[ ("point", Obs.Trace.String label) ]
      "pareto.point"
    @@ fun () ->
    let circ = build () in
    let delay =
      match spec with
      | Scale s -> Optimizer.Ratio (s -. 1.0)
      | Unbounded -> Optimizer.Unconstrained
    in
    let key = "point-" ^ label in
    let resume =
      match Option.bind checkpoint (fun (s : Checkpoint.store) -> s.load key) with
      | Some (Ok ck) -> Some ck
      | Some (Error _) | None -> None
    in
    let cfg =
      {
        config with
        Optimizer.delay;
        jobs = 1;
        checkpoint_sink =
          Option.map (fun (s : Checkpoint.store) -> s.save key) checkpoint;
        checkpoint_every =
          (match checkpoint with
          | Some _ when config.Optimizer.checkpoint_every <= 0 -> 1
          | _ -> config.Optimizer.checkpoint_every);
      }
    in
    let r = Optimizer.optimize ~config:cfg ?resume circ in
    Obs.Metrics.incr m_points;
    (label, r, point_of spec r)
  in
  let results =
    Obs.Trace.with_span "pareto.sweep" @@ fun () ->
    let arr = Array.of_list specs in
    let jobs = max 1 jobs in
    if jobs = 1 || Par.Pool.in_task () then Array.map run_point arr
    else
      Par.Pool.with_pool ~jobs (fun pool ->
          Par.Pool.map pool ~f:run_point arr |> Array.map Option.get)
  in
  let results = Array.to_list results in
  let points = List.map (fun (_, _, p) -> p) results in
  let reports = List.map (fun (l, r, _) -> (l, r)) results in
  let frontier, dominated = Frontier.prune points in
  Obs.Metrics.add m_dominated dominated;
  Obs.Metrics.set_gauge g_frontier (float_of_int (List.length frontier));
  let glitch_delta =
    List.fold_left
      (fun acc (_, (r : Optimizer.report)) ->
        match (r.Optimizer.initial_glitch_power, r.Optimizer.final_glitch_power)
        with
        | Some gi, Some gf -> acc +. (gi -. gf)
        | _ -> acc)
      0.0 reports
  in
  Obs.Metrics.set_gauge g_glitch_delta glitch_delta;
  {
    name;
    cost = config.Optimizer.cost;
    points;
    frontier;
    dominated;
    reports;
    jobs;
    cpu_seconds = Obs.Clock.now () -. t0;
  }

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("circuit", String r.name);
      ("cost_model", String (Cost.name r.cost));
      ("cost", String (Cost.to_string r.cost));
      ("jobs", Int r.jobs);
      ( "constraints",
        List (List.map (fun (l, _) -> String l) r.reports) );
      ("points", List (List.map Frontier.to_json r.points));
      ("frontier", List (List.map Frontier.to_json r.frontier));
      ("dominated", Int r.dominated);
      ( "reports",
        Obj
          (List.map
             (fun (l, rep) ->
               (* the optimizer's volatile fields dropped here are what
                  make the sweep JSON (minus its own top-level
                  jobs/cpu_seconds) byte-identical across job counts *)
               (l, Optimizer.strip_volatile (Optimizer.report_to_json rep)))
             r.reports) );
      ("cpu_seconds", Float r.cpu_seconds);
    ]

let pp fmt r =
  Format.fprintf fmt "@[<v>pareto sweep: %s (%s cost, %d point%s, %d dominated)@,"
    r.name (Cost.to_string r.cost) (List.length r.points)
    (if List.length r.points = 1 then "" else "s")
    r.dominated;
  Format.fprintf fmt "frontier:@,%a@]" Frontier.pp r.frontier
