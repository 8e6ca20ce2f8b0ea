(* One measurement process of the POWDER benchmark.  powderbench/run.py
   starts a fresh one per measured repeat, so no repeat inherits a warm
   heap or a loaded cache from another:

     worker.exe setup WORKLOAD RUNDIR
     worker.exe repeat WORKLOAD SEED INDEX RUNDIR [--trace]
     worker.exe replay WORKLOAD SEED RUNDIR
     worker.exe verify SEED PAIRS_FILE [--fresh]

   [setup] times the workload's set-up alone, several times.  [repeat]
   sets the workload up once, runs its timed part once and writes
   every output netlist to RUNDIR for the oracle; [--trace] additionally installs an
   [Obs.Profile] sink over the timed part.  [replay] walks one
   optimizer round through the public layer calls, each wrapped in its
   own span.  [verify] is the output oracle: validation, simulation on
   patterns drawn from the benchmark seed, and an equivalence proof
   whose verdict is cached by netlist digest.  Each mode prints one
   JSON object as its last line of standard output.

   Every duration is read from the monotonic clock.  Process CPU time
   and peak RSS are taken by run.py from the kernel's accounting of the
   finished process. *)

module Circuit = Netlist.Circuit
module Optimizer = Powder.Optimizer
module Subst = Powder.Subst
module Check = Powder.Check
module J = Obs.Json

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let lib = Gatelib.Library.lib2
let md5 s = Digest.to_hex (Digest.string s)
let state_dir = ".powderbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let floats xs = J.List (List.map (fun x -> J.Float x) xs)
let obj_floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)
let obj_ints kvs = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) kvs)

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)
(* ------------------------------------------------------------------ *)

type workload = Cps_converge | Synth_round | Serve_drain

let workload_of_string = function
  | "cps-converge" -> Cps_converge
  | "synth-round" -> Synth_round
  | "serve-drain" -> Serve_drain
  | w -> failwith ("unknown workload " ^ w)

let workload_name = function
  | Cps_converge -> "cps-converge"
  | Synth_round -> "synth-round"
  | Serve_drain -> "serve-drain"

let derive seed label = Sim.Rng.derive seed ("powderbench/" ^ label)
let words = 16

(* cps runs with the optimizer's shipped seed: the workload is the
   Table 1 flow exactly as [powder_cli optimize -c cps] runs it, so its
   quality numbers are the program's own and its two outputs are the
   same netlists in every run (their proof is paid once per checkout).
   The benchmark seed still draws the oracle's patterns. *)
let cps_runs =
  let base =
    { Optimizer.default_config with words; jobs = 1; window = None }
  in
  [
    ("unconstrained", { base with Optimizer.delay = Optimizer.Unconstrained });
    ("keep-initial", { base with Optimizer.delay = Optimizer.Keep_initial });
  ]

(* One fixed synth netlist (generator seed 1, the scale family's
   circuit): circuit-to-circuit run time varies by about 12% at this
   size, which would drown a 10% regression, so the benchmark seed
   varies the optimizer's simulation patterns instead. *)
let synth_gates = 4000
let synth_circuit_seed = 1

let synth_config seed =
  {
    Optimizer.default_config with
    words;
    jobs = 1;
    window = Some 16;
    max_rounds = 1;
    seed = derive seed "synth/optimizer";
  }

let suite_mapped name = Circuits.Suite.mapped (Option.get (Circuits.Suite.find name))

(* The workload's input netlist, built and mapped from scratch; for
   serve-drain, the circuit its replay walks. *)
let build_circuit = function
  | Cps_converge -> suite_mapped "cps"
  | Synth_round -> Circuits.Generators.synth ~seed:synth_circuit_seed ~gates:synth_gates
  | Serve_drain -> suite_mapped "rd84"

(* ------------------------------------------------------------------ *)
(* Result helpers.                                                     *)
(* ------------------------------------------------------------------ *)

(* Drop everything a clock or the host decides, recursively, so what
   remains must be identical across repeats of one configuration. *)
let rec strip_volatile = function
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k [ "cpu_seconds"; "phase_seconds"; "jobs"; "run" ] then None
           else Some (k, strip_volatile v))
         fields)
  | J.List l -> J.List (List.map strip_volatile l)
  | v -> v

let report_digest json = md5 (J.to_string (strip_volatile json))

let count_names =
  [
    "rounds"; "substitutions"; "candidates_generated"; "checks_run";
    "rejected_by_cex"; "rejected_by_atpg"; "rejected_by_delay";
    "rejected_by_giveup"; "rejected_by_timeout"; "sig_hits"; "sig_filtered";
    "sig_resim_nodes"; "window_checks"; "window_proved"; "window_escalated";
  ]

(* The funnel counters of a report JSON, by [count_names]; the report
   nests most of them one level down ([funnel]). *)
let report_counts json =
  let rec find k = function
    | J.Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> J.get_int v
      | None -> List.find_map (fun (_, v) -> find k v) fields)
    | _ -> None
  in
  List.map (fun k -> (k, Option.value ~default:0 (find k json))) count_names

let sum_counts a b = List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b
let zero_counts = List.map (fun k -> (k, 0)) count_names

type quality = {
  p0 : float; p1 : float; a0 : float; a1 : float; d0 : float; d1 : float;
}

let zero_quality = { p0 = 0.; p1 = 0.; a0 = 0.; a1 = 0.; d0 = 0.; d1 = 0. }

let add_quality q json =
  let f k = Option.value ~default:0.0 (Option.bind (J.member k json) J.get_float) in
  {
    p0 = q.p0 +. f "initial_power";
    p1 = q.p1 +. f "final_power";
    a0 = q.a0 +. f "initial_area";
    a1 = q.a1 +. f "final_area";
    d0 = q.d0 +. f "initial_delay";
    d1 = q.d1 +. f "final_delay";
  }

let quality_json q =
  obj_floats
    [
      ("initial_power", q.p0); ("final_power", q.p1); ("initial_area", q.a0);
      ("final_area", q.a1); ("initial_delay", q.d0); ("final_delay", q.d1);
    ]

let phase_totals () =
  List.map (fun n -> (n, Obs.Trace.span_seconds n)) Optimizer.phase_names

let phase_delta before =
  List.map2 (fun (n, b) (_, a) -> (n, a -. b)) before (phase_totals ())

let gc_json (g0 : Gc.stat) (g1 : Gc.stat) =
  J.Obj
    [
      ("minor_mwords", J.Float ((g1.minor_words -. g0.minor_words) /. 1e6));
      ("major_collections", J.Int (g1.major_collections - g0.major_collections));
      ( "top_heap_mb",
        J.Float (float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) );
    ]

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let manifest workload seed ~jobs ~circuit ~options =
  Obs.Runinfo.to_json
    (Obs.Runinfo.create ~tool:"powderbench" ~jobs ~seed ~circuit
       ~options:(("workload", workload_name workload) :: options)
       ())

(* Aggregate the span tree into its heaviest exclusive-time nodes. *)
let profile_top prof n =
  let nodes = ref [] in
  Obs.Profile.iter_nodes prof
    (fun ~path ~count:_ ~inclusive_s:_ ~exclusive_s ~alloc_bytes:_
         ~children_inclusive_s:_ ->
      nodes := (String.concat "/" path, exclusive_s) :: !nodes);
  List.sort (fun (_, a) (_, b) -> Float.compare b a) !nodes
  |> List.filteri (fun i _ -> i < n)
  |> List.map (fun (p, s) -> J.List [ J.String p; J.Float s ])

let write_profile workload seed kind prof =
  let dir = Filename.concat state_dir "profiles" in
  mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-seed%Ld-%s.folded" (workload_name workload) seed kind)
  in
  write_file file (Obs.Profile.to_folded prof);
  file

(* ------------------------------------------------------------------ *)
(* repeat: cps-converge and synth-round.                               *)
(* ------------------------------------------------------------------ *)

let optimizer_repeat workload seed ~rundir =
  let runs, circuit_name =
    match workload with
    | Cps_converge -> (cps_runs, "cps")
    | Synth_round ->
      ( [ ("round", synth_config seed) ],
        Printf.sprintf "synth:%d:%d" synth_gates synth_circuit_seed )
    | Serve_drain -> assert false
  in
  let circ, setup_s = timed (fun () -> build_circuit workload) in
  let input_blif = Blif.Blif_io.circuit_to_string circ in
  let inputs = List.map (fun (label, _) -> (label, Circuit.clone circ)) runs in
  let g0 = Gc.quick_stat () and cpu0 = cpu_now () and phases0 = phase_totals () in
  let w0 = clock () in
  let results =
    List.map2
      (fun (label, config) (_, c) ->
        let report, dt = timed (fun () -> Optimizer.optimize ~config c) in
        (label, c, report, dt))
      runs inputs
  in
  let wall = clock () -. w0 in
  let cpu = cpu_now () -. cpu0 and g1 = Gc.quick_stat () in
  let phases = phase_delta phases0 in
  let input_file = Filename.concat rundir "input.blif" in
  write_file input_file input_blif;
  let digests = ref [] and pairs = ref [] in
  let quality = ref zero_quality and counts = ref zero_counts in
  List.iter
    (fun (label, c, report, _) ->
      let json = Optimizer.report_to_json report in
      let blif = Blif.Blif_io.circuit_to_string c in
      let out = Filename.concat rundir (label ^ ".blif") in
      write_file out blif;
      digests := (label ^ "/blif", md5 blif) :: (label ^ "/report", report_digest json) :: !digests;
      pairs :=
        J.List [ J.String label; J.String input_file; J.String out; J.Bool (workload <> Synth_round) ]
        :: !pairs;
      quality := add_quality !quality json;
      counts := sum_counts !counts (report_counts json))
    results;
  let optimize_s = List.fold_left (fun acc (_, _, _, dt) -> acc +. dt) 0.0 results in
  let options =
    match workload with
    | Synth_round -> [ ("words", string_of_int words); ("window", "16"); ("max_rounds", "1") ]
    | _ -> [ ("words", string_of_int words); ("window", "off"); ("delay", "none,keep") ]
  in
  [
    ("manifest", manifest workload seed ~jobs:1 ~circuit:circuit_name ~options);
    ("setup_trials", floats [ setup_s ]);
    ("optimize_s", J.Float optimize_s);
    ("timed_s", J.Float wall);
    ("cpu_s", J.Float cpu);
    ("jobs_done", J.Int (List.length results));
    ("jobs_per_s", J.Float (float_of_int (List.length results) /. optimize_s));
    ("latencies", floats (List.map (fun (_, _, _, dt) -> dt) results));
    ("quality", quality_json !quality);
    ( "runs",
      J.List
        (List.map
           (fun (label, _, (r : Optimizer.report), _) ->
             J.Obj
               [
                 ("label", J.String label);
                 ("final_power", J.Float r.final_power);
                 ("power_reduction_pct", J.Float (Optimizer.power_reduction_percent r));
               ])
           results) );
    ("phases", obj_floats phases);
    ("counts", obj_ints !counts);
    ("gc", gc_json g0 g1);
    ("serve", obj_ints [ ("retries", 0); ("preemptions", 0) ]);
    ("attempted", J.Int (List.length results));
    ("failures", J.List []);
    ("digests", J.Obj (List.rev_map (fun (k, v) -> (k, J.String v)) !digests));
    ("verify", J.List (List.rev !pairs));
  ]

(* ------------------------------------------------------------------ *)
(* repeat: serve-drain.                                                *)
(* ------------------------------------------------------------------ *)

(* 200 jobs give the p95 latency ten samples beyond it.  They come in
   20 blocks of ten: one glitch-cost pareto sweep and three optimize
   jobs on each of three small circuits.  The seed shuffles each
   block, gives each block one priority, and draws every job's
   optimizer seed.  Every prefix of the priority order then carries
   about the same work, so the latency percentiles do not hinge on
   where the seed happens to put the heavy pareto jobs. *)
let serve_blocks = 20
let serve_jobs = 10 * serve_blocks
let serve_slots = 2
let serve_circuits = [| "rd84"; "alu2"; "f51m" |]

type serve_job = { id : string; circuit : int; pareto : bool; line : string }

let serve_batch seed =
  let rng = Sim.Rng.stream seed "powderbench/serve" in
  let below n = Int64.to_int (Int64.unsigned_rem (Sim.Rng.next rng) (Int64.of_int n)) in
  List.init serve_blocks (fun b ->
      let priority = below 11 - 5 in
      (* (circuit, pareto) for the block's ten jobs, shuffled *)
      let mix = Array.init 10 (fun k -> if k = 9 then (b mod 3, true) else (k mod 3, false)) in
      for k = 9 downto 1 do
        let j = below (k + 1) in
        let t = mix.(k) in
        mix.(k) <- mix.(j);
        mix.(j) <- t
      done;
      List.mapi
        (fun k (circuit, pareto) ->
          let id = Printf.sprintf "job-%03d" ((10 * b) + k) and job_seed = below 1_000_000 in
          let name = serve_circuits.(circuit) in
          let line =
            if pareto then
              Printf.sprintf
                {|{"op":"submit","id":%S,"kind":"pareto","priority":%d,"circuit":%S,"options":{"words":4,"seed":%d,"max_rounds":2,"cost":"glitch","constraints":["1.0","unbounded"]}}|}
                id priority name job_seed
            else
              Printf.sprintf
                {|{"op":"submit","id":%S,"priority":%d,"circuit":%S,"options":{"words":4,"seed":%d,"max_rounds":4}}|}
                id priority name job_seed
          in
          { id; circuit; pareto; line })
        (Array.to_list mix))
  |> List.concat

type drain = {
  setup_s : float;
  references : Circuit.t array;  (** [serve_circuits], mapped *)
  drain_s : float;
  outcome : Serve.Supervisor.outcome;
  done_at : (string * float) list;  (** job id -> seconds after t=0 *)
  submit_lag : float;  (** how late the last job was handed over *)
  retries : int;
  preemptions : int;
  failures : string list;
}

(* Set up like a client that checks its results: map the reference
   netlists the outputs will be compared against, start a supervisor on
   a fresh state directory, then submit [lines], all due at the moment
   of the first submit (t=0). *)
let drain ~state lines =
  rm_rf state;
  let t_start = clock () in
  let references = Array.map suite_mapped serve_circuits in
  let lines = lines () in
  let config =
    { (Serve.Supervisor.default_config ~state_dir:state) with
      Serve.Supervisor.jobs = serve_slots }
  in
  let t_due = ref nan and lag = ref 0.0 in
  let q = Queue.create () in
  List.iter (fun l -> Queue.push l q) lines;
  let source () =
    let now = clock () in
    if Float.is_nan !t_due then t_due := now;
    if Queue.is_empty q then Serve.Supervisor.Eof
    else begin
      lag := now -. !t_due;
      Serve.Supervisor.Line (Queue.pop q)
    end
  in
  let done_at = ref [] and retries = ref 0 and preemptions = ref 0 in
  let failures = ref [] in
  let emit = function
    | J.Obj fs as ev -> (
      let field k = List.assoc_opt k fs in
      let int k = Option.value ~default:0 (Option.bind (field k) J.get_int) in
      let id () = Option.value ~default:"?" (Option.bind (field "id") J.get_string) in
      match field "ev" with
      | Some (J.String "job_done") ->
        done_at := (id (), clock () -. !t_due) :: !done_at;
        retries := !retries + int "retries";
        preemptions := !preemptions + int "preemptions"
      | Some (J.String ("job_failed" | "rejected")) ->
        failures := J.to_string ev :: !failures
      | _ -> ())
    | _ -> ()
  in
  let outcome = Serve.Supervisor.run config ~source ~emit () in
  {
    setup_s = !t_due -. t_start;
    references;
    drain_s = clock () -. !t_due;
    outcome;
    done_at = List.rev !done_at;
    submit_lag = !lag;
    retries = !retries;
    preemptions = !preemptions;
    failures = List.rev !failures;
  }

let serve_repeat seed ~rundir =
  let state = Filename.concat rundir "state" in
  let g0 = Gc.quick_stat () and cpu0 = cpu_now () and phases0 = phase_totals () in
  let batch = serve_batch seed in
  let d = drain ~state (fun () -> List.map (fun j -> j.line) batch) in
  let cpu = cpu_now () -. cpu0 and g1 = Gc.quick_stat () in
  let phases = phase_delta phases0 in
  let results = Filename.concat state "results" in
  let inputs_dir = Filename.concat rundir "inputs" in
  mkdir_p inputs_dir;
  Array.iteri
    (fun i name ->
      write_file
        (Filename.concat inputs_dir (name ^ ".blif"))
        (Blif.Blif_io.circuit_to_string d.references.(i)))
    serve_circuits;
  let digests = ref [] and pairs = ref [] and failures = ref d.failures in
  let quality = ref zero_quality and counts = ref zero_counts in
  List.iter
    (fun { id; circuit; pareto; _ } ->
      let json_file = Filename.concat results (id ^ ".json") in
      match J.of_string (read_file json_file) with
      | exception Sys_error e -> failures := ("missing result: " ^ e) :: !failures
      | Error e -> failures := (id ^ ": unreadable result: " ^ e) :: !failures
      | Ok json ->
        digests := (id ^ "/report", report_digest json) :: !digests;
        if not pareto then begin
          let blif_file = Filename.concat results (id ^ ".blif") in
          let input = Filename.concat inputs_dir (serve_circuits.(circuit) ^ ".blif") in
          digests := (id ^ "/blif", md5 (read_file blif_file)) :: !digests;
          pairs :=
            J.List [ J.String id; J.String input; J.String blif_file; J.Bool true ] :: !pairs;
          quality := add_quality !quality json;
          counts := sum_counts !counts (report_counts json)
        end)
    batch;
  let completed = d.outcome.Serve.Supervisor.completed in
  [
    ( "manifest",
      manifest Serve_drain seed ~jobs:serve_slots ~circuit:"rd84,alu2,f51m"
        ~options:
          [
            ("jobs", string_of_int serve_jobs); ("words", "4");
            ("max_rounds", "4"); ("pareto_per_block", "1");
            ("slots", string_of_int serve_slots);
          ] );
    ("setup_trials", floats [ d.setup_s ]);
    ("optimize_s", J.Float (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 phases));
    ("timed_s", J.Float d.drain_s);
    ("drain_s", J.Float d.drain_s);
    ("cpu_s", J.Float cpu);
    ("jobs_done", J.Int completed);
    ("jobs_per_s", J.Float (float_of_int completed /. d.drain_s));
    ("latencies", floats (List.map snd d.done_at));
    ("submit_lag_s", J.Float d.submit_lag);
    ("quality", quality_json !quality);
    ("phases", obj_floats phases);
    ("counts", obj_ints !counts);
    ("gc", gc_json g0 g1);
    ("serve", obj_ints [ ("retries", d.retries); ("preemptions", d.preemptions) ]);
    ("attempted", J.Int serve_jobs);
    ("failures", J.List (List.map (fun s -> J.String s) !failures));
    ("digests", J.Obj (List.rev_map (fun (k, v) -> (k, J.String v)) !digests));
    ("verify", J.List (List.rev !pairs));
  ]

(* setup: the workload's set-up alone, [setup_trials] times in one
   process.  Set-up takes tens of milliseconds, so run.py reports the
   median over these trials and each repeat's own; running them here
   keeps their garbage out of the measured repeats' peak RSS. *)
let setup_trials = 7

let setup workload ~rundir =
  mkdir_p rundir;
  let trial () =
    match workload with
    | Serve_drain -> (drain ~state:(Filename.concat rundir "state") (fun () -> [])).setup_s
    | Cps_converge | Synth_round -> snd (timed (fun () -> build_circuit workload))
  in
  J.Obj
    [
      ("mode", J.String "setup");
      ("setup_trials", floats (List.init setup_trials (fun _ -> trial ())));
    ]

let repeat workload seed ~index ~rundir ~traced =
  mkdir_p rundir;
  let prof = Obs.Profile.create () in
  if traced then Obs.Trace.set_sink (Obs.Profile.sink prof);
  let fields =
    match workload with
    | Serve_drain -> serve_repeat seed ~rundir
    | Cps_converge | Synth_round -> optimizer_repeat workload seed ~rundir
  in
  let trace_fields =
    if traced then begin
      Obs.Trace.close_sink ();
      [
        ("profile_file", J.String (write_profile workload seed "repeat" prof));
        ("profile_top", J.List (profile_top prof 12));
      ]
    end
    else []
  in
  J.Obj
    ([
       ("mode", J.String "repeat");
       ("workload", J.String (workload_name workload));
       ("index", J.Int index);
       ("traced", J.Bool traced);
     ]
    @ fields @ trace_fields)

(* ------------------------------------------------------------------ *)
(* replay: one optimizer round, layer by layer.                        *)
(* ------------------------------------------------------------------ *)

(* Bounds the replay's check walk where most top-ranked candidates are
   refuted, so that a replay stays about one round's worth of work. *)
let replay_check_cap = 64

let still_valid circ (s : Subst.t) =
  let live id = Circuit.is_live circ id in
  (match s.Subst.target with
  | Subst.Stem a -> live a && Circuit.num_fanouts circ a > 0
  | Subst.Branch { sink; pin } -> (
    live sink
    &&
    match Circuit.kind circ sink with
    | Circuit.Cell (_, fs) -> pin < Array.length fs
    | Circuit.Po _ -> pin = 0
    | Circuit.Pi | Circuit.Const _ -> false))
  &&
  match s.Subst.source with
  | Subst.Signal b | Subst.Inverted b -> live b
  | Subst.Gate2 (_, b, c) -> live b && live c

(* Patterns for the oracle, keyed by PI name so both netlists see the
   same stimulus whatever their node numbering. *)
let oracle_engine seed circ =
  let eng = Sim.Engine.create circ ~words:64 in
  List.iter
    (fun pi ->
      let rng = Sim.Rng.stream seed ("powderbench/oracle/" ^ Circuit.name circ pi) in
      Sim.Engine.set_value eng pi (Array.init 64 (fun _ -> Sim.Rng.next rng)))
    (Circuit.pis circ);
  Sim.Engine.resim_all eng;
  eng

let same_on_patterns seed a b =
  Sim.Engine.equivalent_on_patterns (oracle_engine seed a) (oracle_engine seed b)

let replay workload seed ~rundir =
  mkdir_p rundir;
  let times = Hashtbl.create 32 in
  let layer name f =
    let r, dt = timed (fun () -> Obs.Trace.with_span name f) in
    Hashtbl.replace times name
      (dt +. Option.value ~default:0.0 (Hashtbl.find_opt times name));
    r
  in
  let prof = Obs.Profile.create () in
  Obs.Trace.set_sink (Obs.Profile.sink prof);
  let config =
    match workload with
    | Cps_converge -> snd (List.hd cps_runs)
    | Synth_round -> synth_config seed
    | Serve_drain ->
      { Optimizer.default_config with words = 4; seed = derive seed "serve/replay"; jobs = 1 }
  in
  let circ = layer "mapper.map" (fun () -> build_circuit workload) in
  let original = Circuit.clone circ in
  let eng, cex =
    layer "sim.randomize" (fun () ->
        let e = Sim.Engine.create circ ~words:config.Optimizer.words in
        Sim.Engine.randomize_sharded ~seed:config.Optimizer.seed e;
        let x = Sim.Engine.create circ ~words:4 in
        Sim.Engine.randomize x (Sim.Rng.stream config.Optimizer.seed "powder/cex");
        (e, x))
  in
  let est = layer "power.estimator_create" (fun () -> Power.Estimator.create eng) in
  let sta = ref (layer "sta.analyze" (fun () -> Sta.Timing.analyze circ)) in
  let cursor = ref (Circuit.edit_cursor circ) in
  let store =
    layer "sim.sigstore_create" (fun () ->
        let s = Sim.Sigstore.create ~cex ~base:eng () in
        Sim.Sigstore.sync s;
        s)
  in
  let cands, gen_stats =
    layer "candidates.generate" (fun () ->
        Powder.Candidates.generate_stats ~store est)
  in
  (* Rank as the optimizer's first pick does: every acyclic candidate
     by PG_A+PG_B, one dominated region per target stem, then PG_C for
     the [preselect] best; the check walk below takes them best first. *)
  let by_gain l = List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) l in
  let acyclic =
    List.filter
      (fun (s, _) -> not (layer "subst.creates_cycle" (fun () -> Subst.creates_cycle circ s)))
      cands
  in
  let doms = Hashtbl.create 64 in
  let dom_for = function
    | Subst.Branch _ -> None
    | Subst.Stem a ->
      Some
        (match Hashtbl.find_opt doms a with
        | Some d -> d
        | None ->
          let d = Circuit.dominated_region circ a in
          let members = List.filter (fun i -> d.(i)) (List.init (Array.length d) Fun.id) in
          let v = (d, Array.of_list members) in
          Hashtbl.add doms a v;
          v)
  in
  let ranked_ab =
    layer "subst.gain_ab" (fun () ->
        List.filter_map
          (fun (s, _) ->
            let g = Subst.gain_ab ?dom:(dom_for s.Subst.target) est s in
            if Subst.total_gain g > 0.0 then Some (s, Subst.total_gain g) else None)
          acyclic)
    |> by_gain
  in
  let refine chunk =
    List.filter_map
      (fun (s, _) ->
        let g = layer "subst.gain_full" (fun () -> Subst.gain_full est s) in
        if Subst.total_gain g > 0.0 then Some (s, Subst.total_gain g) else None)
      chunk
    |> by_gain
  in
  let calls = ref 0 and proved = ref 0 and gave_up = ref 0 in
  let w_calls = ref 0 and w_proved = ref 0 and conflicts = ref 0 and accepted = ref 0 in
  let more () = !accepted < config.Optimizer.repeat && !calls < replay_check_cap in
  (* Write a refuting input vector into the next column of the cex
     engine, as the optimizer does, so the screen rejects the refuted
     candidate's look-alikes without a proof. *)
  let cex_column = ref 0 in
  let learn_cex assignment =
    let k = !cex_column mod (64 * Sim.Engine.words cex) in
    incr cex_column;
    List.iter
      (fun pi ->
        match List.assoc_opt (Circuit.name circ pi) assignment with
        | None -> ()
        | Some v ->
          let values = Array.copy (Sim.Engine.value cex pi) in
          let mask = Int64.shift_left 1L (k mod 64) in
          values.(k / 64) <-
            (if v then Int64.logor values.(k / 64) mask
             else Int64.logand values.(k / 64) (Int64.lognot mask));
          Sim.Engine.set_value cex pi values)
      (Circuit.pis circ);
    Sim.Engine.resim_all cex;
    Sim.Sigstore.invalidate store
  in
  let check_one (s, _) =
      if
        more ()
        && still_valid circ s
        && not (layer "subst.creates_cycle" (fun () -> Subst.creates_cycle circ s))
        && not (layer "check.cex_screen" (fun () -> Check.refuted_on_patterns cex s))
      then begin
        let w =
          layer "check.windowed" (fun () ->
              Check.windowed ~exhaustive_limit:config.Optimizer.exhaustive_limit
                ~max_cut:16 circ s)
        in
        let v =
          layer "check.permissible" (fun () ->
              Check.permissible ~backtrack_limit:config.Optimizer.backtrack_limit
                ~exhaustive_limit:config.Optimizer.exhaustive_limit circ s)
        in
        incr calls;
        incr w_calls;
        if w = Check.W_proved then incr w_proved;
        (match (w, v) with
        | Check.W_proved, Check.Not_permissible _ -> incr conflicts
        | _ -> ());
        match v with
        | Check.Permissible ->
          incr proved;
          let src = layer "subst.apply" (fun () -> Subst.apply circ s) in
          layer "power.update_after_edit" (fun () ->
              ignore (Power.Estimator.update_after_edit est src);
              ignore (Sim.Engine.resim_after_edit cex src));
          layer "sim.sigstore_update" (fun () -> Sim.Sigstore.update_after_edit store src);
          layer "sta.update" (fun () ->
              (match Circuit.edits_since circ !cursor with
              | Some dirty -> sta := Sta.Timing.update !sta ~dirty
              | None -> sta := Sta.Timing.analyze circ);
              cursor := Circuit.edit_cursor circ);
          incr accepted
        | Check.Gave_up _ -> incr gave_up
        | Check.Not_permissible assignment ->
          layer "check.cex_screen" (fun () -> learn_cex assignment)
      end
  in
  (* Refine and check the PG_A+PG_B order [preselect] at a time, as the
     optimizer's successive picks do (without its re-ranking after each
     accept), until [repeat] accepts or [replay_check_cap] checks. *)
  let rec walk l =
    if more () && l <> [] then begin
      let n = config.Optimizer.preselect in
      List.iter check_one (refine (List.filteri (fun i _ -> i < n) l));
      walk (List.filteri (fun i _ -> i >= n) l)
    end
  in
  walk ranked_ab;
  let blif =
    layer "blif.roundtrip" (fun () ->
        let text = Blif.Blif_io.circuit_to_string circ in
        match Blif.Blif_io.circuit_of_string lib text with
        | Ok _ -> text
        | Error e -> failwith (Blif.Blif_io.error_to_string e))
  in
  let ck =
    {
      Powder.Checkpoint.round = 1; status = "running"; substitutions = !accepted;
      seed = config.Optimizer.seed; blif; cex = []; cex_cursor = 0;
      candidates_generated = List.length cands; checks_run = !calls;
      rejected_by_delay = 0; rejected_by_atpg = !calls - !proved - !gave_up;
      rejected_by_giveup = !gave_up; rejected_by_timeout = 0; rejected_by_cex = 0;
      sig_hits = gen_stats.Powder.Candidates.pairs_hit;
      sig_filtered = gen_stats.Powder.Candidates.pairs_filtered;
      sig_resim_nodes = 0; is3_candidates = gen_stats.Powder.Candidates.is3_candidates;
      rolled_back = 0; verified_applies = 0; window_checks = !w_calls;
      window_proved = !w_proved; window_escalated = !w_calls - !w_proved;
      giveup_breakdown = []; by_class = [];
      initial_power = 0.0; initial_area = Circuit.area original;
      initial_delay = 0.0; initial_glitch_power = None; degradation_level = 0;
    }
  in
  let ck_file = Filename.concat rundir "replay-checkpoint.json" in
  layer "checkpoint.save" (fun () -> Powder.Checkpoint.save ck_file ck);
  let loaded = layer "checkpoint.load" (fun () -> Powder.Checkpoint.load ck_file) in
  ignore
    (layer "power.glitch_estimate" (fun () ->
         Power.Glitch.estimate ~pairs:Pareto.Cost.default_glitch_pairs
           ~seed:(Sim.Rng.derive config.Optimizer.seed "powder/glitch")
           circ));
  Obs.Trace.close_sink ();
  let failures =
    List.filter_map Fun.id
      [
        (match Circuit.validate circ with
        | Ok () -> None
        | Error e -> Some ("replay netlist invalid: " ^ e));
        (if same_on_patterns (derive seed "oracle") original circ then None
         else Some "replay netlist differs from its input on the oracle patterns");
        (if !conflicts = 0 then None
         else Some (Printf.sprintf "%d window proofs met a global Not_permissible" !conflicts));
        (match loaded with
        | Ok l when l = ck -> None
        | Ok _ -> Some "checkpoint did not load back unchanged"
        | Error e -> Some ("checkpoint load: " ^ Powder.Checkpoint.error_to_string e));
      ]
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  J.Obj
    [
      ("mode", J.String "replay");
      ("workload", J.String (workload_name workload));
      ( "layers_s",
        obj_floats (Hashtbl.fold (fun k v acc -> (k, v) :: acc) times [] |> List.sort compare) );
      ( "counts",
        J.Obj
          [
            ("candidates.generated", J.Int (List.length cands));
            ("candidates.sig_filtered", J.Int gen_stats.Powder.Candidates.pairs_filtered);
            ("check.permissible_calls", J.Int !calls);
            ("check.proved_ratio", J.Float (ratio !proved !calls));
            ("check.gave_up", J.Int !gave_up);
            ("check.window_proved_ratio", J.Float (ratio !w_proved !w_calls));
            ("check.window_global_conflicts", J.Int !conflicts);
            ("replay.accepted", J.Int !accepted);
          ] );
      ("profile_file", J.String (write_profile workload seed "replay" prof));
      ("profile_top", J.List (profile_top prof 12));
      ("failures", J.List (List.map (fun s -> J.String s) failures));
    ]

(* ------------------------------------------------------------------ *)
(* verify: the output oracle.                                          *)
(* ------------------------------------------------------------------ *)

(* The proof budget: enough for cps (8-15 s per netlist).  synth:4000
   outputs are not proved: the monolithic miter gives up inconclusive
   after about 140 s even at this budget, so they count as
   inconclusive without the attempt. *)
let proof_backtrack_limit = 20_000

let verdict_name = function
  | Atpg.Equiv.Equivalent -> "equivalent"
  | Atpg.Equiv.Different _ -> "different"
  | Atpg.Equiv.Unknown -> "unknown"

(* A proof is a pure function of the two netlists and the budget, so
   its verdict is cached under their digests: the first repeat of a
   set pays for it, identical later ones inherit it. *)
let cached_proof ~fresh input_text output_text a b =
  let dir = Filename.concat state_dir "verdicts" in
  mkdir_p dir;
  let key =
    md5 (String.concat "\n" [ md5 input_text; md5 output_text; string_of_int proof_backtrack_limit ])
  in
  let file = Filename.concat dir key in
  match if fresh then Error "fresh" else J.of_string (read_file file) with
  | Ok j -> (
    match (Option.bind (J.member "verdict" j) J.get_string, Option.bind (J.member "seconds" j) J.get_float) with
    | Some v, Some s -> (v, s, true)
    | _ -> failwith "corrupt verdict cache entry")
  | Error _ | (exception Sys_error _) ->
    let v, s =
      timed (fun () -> Atpg.Equiv.check ~backtrack_limit:proof_backtrack_limit a b)
    in
    let v = verdict_name v in
    write_file file (J.to_string (J.Obj [ ("verdict", J.String v); ("seconds", J.Float s) ]));
    (v, s, false)

(* [fresh] proves again even where a verdict is cached, so that the
   traced run measures what checking costs.  [check_s] times each
   pair's whole check: parsing, validation, simulation and proof. *)
let verify ~fresh seed pairs_file =
  let pairs =
    String.split_on_char '\n' (read_file pairs_file)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.split_on_char '\t' l with
           | [ label; input; output; prove ] -> (label, input, output, prove = "true")
           | _ -> failwith ("bad pairs line: " ^ l))
  in
  let oracle_seed = derive seed "oracle" in
  let check_fields input output prove =
    let input_text = read_file input and output_text = read_file output in
    match
      ( Blif.Blif_io.circuit_of_string lib input_text,
        Blif.Blif_io.circuit_of_string lib output_text )
    with
    | Error e, _ | _, Error e ->
      [ ("failure", J.String ("unparsable netlist: " ^ Blif.Blif_io.error_to_string e)) ]
    | Ok a, Ok b -> (
      match Circuit.validate b with
      | Error e -> [ ("failure", J.String ("invalid netlist: " ^ e)) ]
      | Ok () -> (
        match same_on_patterns oracle_seed a b with
        | exception Invalid_argument e -> [ ("failure", J.String ("interface mismatch: " ^ e)) ]
        | false -> [ ("failure", J.String "output differs on the oracle patterns") ]
        | true when not prove -> [ ("verdict", J.String "unknown"); ("proof_s", J.Float 0.0) ]
        | true ->
          let v, s, inherited = cached_proof ~fresh input_text output_text a b in
          (if v = "different" then [ ("failure", J.String "proved different") ] else [])
          @ [
              ("verdict", J.String v);
              ("proof_s", J.Float s);
              ("inherited", J.Bool inherited);
            ]))
  in
  let check (label, input, output, prove) =
    let fields, dt = timed (fun () -> check_fields input output prove) in
    J.Obj ((("label", J.String label) :: fields) @ [ ("check_s", J.Float dt) ])
  in
  J.Obj [ ("mode", J.String "verify"); ("results", J.List (List.map check pairs)) ]

(* ------------------------------------------------------------------ *)

let () =
  Obs.Runtime.tune_gc ();
  let seed_of s = Int64.of_string s in
  let result =
    match Array.to_list Sys.argv |> List.tl with
    | [ "repeat"; w; seed; index; rundir ] ->
      repeat (workload_of_string w) (seed_of seed) ~index:(int_of_string index) ~rundir
        ~traced:false
    | [ "repeat"; w; seed; index; rundir; "--trace" ] ->
      repeat (workload_of_string w) (seed_of seed) ~index:(int_of_string index) ~rundir
        ~traced:true
    | [ "setup"; w; rundir ] -> setup (workload_of_string w) ~rundir
    | [ "replay"; w; seed; rundir ] -> replay (workload_of_string w) (seed_of seed) ~rundir
    | [ "verify"; seed; pairs_file ] -> verify ~fresh:false (seed_of seed) pairs_file
    | [ "verify"; seed; pairs_file; "--fresh" ] -> verify ~fresh:true (seed_of seed) pairs_file
    | _ ->
      prerr_endline
        "usage: worker.exe (setup WORKLOAD RUNDIR | repeat WORKLOAD SEED INDEX RUNDIR \
         [--trace] | replay WORKLOAD SEED RUNDIR | verify SEED PAIRS_FILE [--fresh])";
      exit 2
  in
  print_endline (J.to_string result)
