(* POWDER command-line driver.

   Circuits come either from a mapped BLIF file ([--in file.blif]) or
   from the built-in benchmark suite ([--circuit name]).  Networks can
   be technology-mapped first with the [map] command. *)

module Circuit = Netlist.Circuit
module Optimizer = Powder.Optimizer
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsing.                                            *)
(* ------------------------------------------------------------------ *)

let in_file =
  Arg.(value & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE"
         ~doc:"Mapped BLIF input file.")

let circuit_name =
  Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME"
         ~doc:"Built-in benchmark circuit (see the suite command).")

let out_file =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Write the resulting mapped netlist as BLIF.")

let words =
  Arg.(value & opt int 16 & info [ "words" ] ~docv:"N"
         ~doc:"Simulation words (64 patterns each) for power estimation.")

let seed =
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"N"
         ~doc:"Random-pattern seed.")

let jobs_arg =
  Arg.(value
       & opt int (Par.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Parallel executors (1 disables the domain pool). Defaults \
                 to the machine's recommended domain count, capped at 8. \
                 Results are byte-identical for any value; only wall-clock \
                 changes.")

(* Unlike --jobs, the window size CAN change results (a
   window may prove a candidate the global engine gives up on), so it
   goes into the hashed run-manifest options. *)
let window_arg =
  let parse = function
    | "off" -> Ok None
    | s -> (
      match int_of_string_opt s with
      | Some k when k > 0 -> Ok (Some k)
      | Some _ | None -> Error (`Msg "expected a positive cut size or off"))
  in
  let print fmt = function
    | None -> Format.pp_print_string fmt "off"
    | Some k -> Format.pp_print_int fmt k
  in
  Arg.(value
       & opt (conv (parse, print)) None
       & info [ "window" ] ~docv:"K"
           ~doc:"Windowed permissibility checking: try a local miter over a \
                 cut of at most K signals before the global miter (off by \
                 default).  Window proofs are globally sound; anything \
                 inconclusive escalates to the global check, so verdicts \
                 stay exact.")

(* Like --window, the cost model changes which substitutions are
   accepted, so it is part of the hashed run-manifest options. *)
let cost_arg =
  let parse s =
    match Pareto.Cost.of_string s with Ok c -> Ok c | Error m -> Error (`Msg m)
  in
  let print fmt c = Format.pp_print_string fmt (Pareto.Cost.to_string c) in
  Arg.(value
       & opt (conv (parse, print)) Pareto.Cost.Zero_delay
       & info [ "cost" ] ~docv:"MODEL"
           ~doc:"Acceptance cost model: zero-delay (default; the paper's \
                 switched-capacitance gain) or glitch[:PAIRS] (weight each \
                 candidate by per-node hazard multipliers from a timed \
                 simulation over PAIRS random vector pairs, default 64).  \
                 The glitch model changes which substitutions are accepted \
                 and adds timed before/after power to the report.")

let delay_mode =
  let parse s =
    if s = "none" then Ok Optimizer.Unconstrained
    else if s = "keep" then Ok Optimizer.Keep_initial
    else if String.length s > 1 && s.[0] = '+' then
      match float_of_string_opt (String.sub s 1 (String.length s - 2)) with
      | Some p when s.[String.length s - 1] = '%' -> Ok (Optimizer.Ratio (p /. 100.0))
      | Some _ | None -> Error (`Msg "expected +N%")
    else
      match float_of_string_opt s with
      | Some d -> Ok (Optimizer.Absolute d)
      | None -> Error (`Msg "expected none, keep, +N% or an absolute delay")
  in
  let print fmt = function
    | Optimizer.Unconstrained -> Format.pp_print_string fmt "none"
    | Optimizer.Keep_initial -> Format.pp_print_string fmt "keep"
    | Optimizer.Ratio r -> Format.fprintf fmt "+%g%%" (100.0 *. r)
    | Optimizer.Absolute d -> Format.fprintf fmt "%g" d
  in
  Arg.(value
       & opt (conv (parse, print)) Optimizer.Unconstrained
       & info [ "d"; "delay" ] ~docv:"MODE"
           ~doc:"Delay constraint: none, keep (initial delay), +N%, or an \
                 absolute required time.")

let classes =
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Powder.Subst.klass_of_name x with
        | Some k -> go (k :: acc) rest
        | None -> Error (`Msg ("unknown class " ^ String.lowercase_ascii x)))
    in
    go [] (String.split_on_char ',' s)
  in
  let print fmt ks =
    Format.pp_print_string fmt
      (String.concat "," (List.map Powder.Subst.klass_name ks))
  in
  Arg.(value
       & opt (conv (parse, print)) Powder.Subst.all_klasses
       & info [ "classes" ] ~docv:"LIST"
           ~doc:"Enabled substitution classes, e.g. os2,is2.")

(* Bad input is the user's error, not the program's: one line on stderr
   and the exit code of a failed command (123), never the internal
   error (125) an escaping exception gets. *)
let input_error msg =
  prerr_endline ("powder_cli: " ^ msg);
  exit Cmd.Exit.some_error

(* Synthetic scale-benchmark circuits: synth10k, synth100k, or
   synth:GATES[:SEED] for arbitrary sizes. *)
let synth_circuit name =
  let build ~seed ~gates = Some (Circuits.Generators.synth ~seed ~gates) in
  match name with
  | "synth10k" -> build ~seed:1 ~gates:10_000
  | "synth100k" -> build ~seed:1 ~gates:100_000
  | _ -> (
    match String.split_on_char ':' name with
    | [ "synth"; g ] -> (
      match int_of_string_opt g with
      | Some gates when gates > 0 -> build ~seed:1 ~gates
      | _ -> input_error ("bad gate count in " ^ name))
    | [ "synth"; g; s ] -> (
      match (int_of_string_opt g, int_of_string_opt s) with
      | Some gates, Some seed when gates > 0 -> build ~seed ~gates
      | _ -> input_error ("bad gate count or seed in " ^ name))
    | _ -> None)

let load_circuit in_file circuit_name =
  match (in_file, circuit_name) with
  | Some file, None -> (
    match Blif.Blif_io.circuit_of_file Gatelib.Library.lib2 file with
    | Ok c -> c
    | Error e -> input_error (file ^ ": " ^ Blif.Blif_io.error_to_string e))
  | None, Some name -> (
    match synth_circuit name with
    | Some c -> c
    | None -> (
      match Circuits.Suite.find name with
      | Some spec -> Circuits.Suite.mapped spec
      | None -> input_error ("unknown benchmark circuit " ^ name)))
  | Some _, Some _ -> input_error "give either --in or --circuit, not both"
  | None, None -> input_error "an input is required: --in FILE or --circuit NAME"

let emit out_file circ =
  match out_file with
  | None -> ()
  | Some f ->
    if Filename.check_suffix f ".v" then Blif.Verilog.circuit_to_file f circ
    else Blif.Blif_io.circuit_to_file f circ;
    Printf.printf "wrote %s\n" f

(* ------------------------------------------------------------------ *)
(* Commands.                                                           *)
(* ------------------------------------------------------------------ *)

let delay_to_string = function
  | Optimizer.Unconstrained -> "none"
  | Optimizer.Keep_initial -> "keep"
  | Optimizer.Ratio r -> Printf.sprintf "+%g%%" (100.0 *. r)
  | Optimizer.Absolute d -> Printf.sprintf "%g" d

let opt_str f = function None -> "-" | Some v -> f v

(* What optimize and pareto share: the input, an optimizer config built
   from the common flags, the run-manifest options those flags
   contribute, and the output files. *)
type run_args = {
  circuit : string;  (** the manifest's circuit label *)
  load : unit -> Circuit.t;
  config : Optimizer.config;
  options : (string * string) list;
  trace_file : string option;
  json_file : string option;
  profile_dir : string option;
}

let run_args =
  let make in_file circuit_name words seed classes window cost max_rounds
      time_budget jobs trace_file json_file profile_dir =
    {
      circuit =
        (match circuit_name with
        | Some n -> n
        | None -> Option.value in_file ~default:"-");
      load = (fun () -> load_circuit in_file circuit_name);
      config =
        {
          Optimizer.default_config with
          words;
          seed = Int64.of_int seed;
          classes;
          window;
          cost;
          run_seconds = time_budget;
          max_rounds =
            Option.value max_rounds
              ~default:Optimizer.default_config.Optimizer.max_rounds;
          jobs;
        };
      options =
        [
          ("words", string_of_int words);
          ("classes", String.concat "," (List.map Powder.Subst.klass_name classes));
          ("window", match window with None -> "off" | Some k -> string_of_int k);
          ("cost", Pareto.Cost.to_string cost);
          ("max_rounds", opt_str string_of_int max_rounds);
          ("time_budget", opt_str string_of_float time_budget);
        ];
      trace_file;
      json_file;
      profile_dir;
    }
  in
  let max_rounds =
    Arg.(value & opt (some int) None & info [ "max-rounds" ] ~docv:"N"
           ~doc:"Stop after N candidate-generation rounds (per point under \
                 pareto).")
  in
  let time_budget =
    Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the run (per point under pareto); on \
                 expiry the optimizer stops cleanly with \
                 stopped_by=run_budget.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSONL event trace of the optimization loop (one JSON \
                 object per line: rounds, per-candidate verdicts, accepted \
                 substitutions with estimated vs. realized gain, timed spans; \
                 pareto adds a pareto.point span per constraint).")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the final report as machine-readable JSON with the run \
                 manifest embedded: the candidate funnel and per-phase \
                 timings, or for pareto the points, the dominance-pruned \
                 frontier and the per-point reports.  Byte-identical across \
                 --jobs values modulo the volatile timing fields json_check \
                 --compare-reports ignores.")
  in
  let profile_dir =
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"DIR"
           ~doc:"Profile the run: write an attributed call-tree profile \
                 (profile.json), flamegraph collapsed stacks \
                 (profile.folded) and a Chrome trace-event file \
                 (trace.chrome.json) into DIR.  Inspect with the report \
                 command, a flamegraph viewer, or chrome://tracing.")
  in
  Term.(const make $ in_file $ circuit_name $ words $ seed $ classes
        $ window_arg $ cost_arg $ max_rounds $ time_budget $ jobs_arg
        $ trace_file $ json_file $ profile_dir)

(* The run path optimize and pareto share: build the manifest, open
   every output before the (possibly long) run so a bad path fails
   immediately, install the trace/profile sinks, run, then print the
   report and write the profile and the JSON report (with the manifest
   embedded, so artifacts can be compared safely). *)
let run_reported a ~seed ~options ~pp ~to_json run =
  let manifest =
    Obs.Runinfo.create ~jobs:a.config.Optimizer.jobs ~seed ~circuit:a.circuit
      ~options:(a.options @ options) ()
  in
  let fail_sys msg = prerr_endline ("powder_cli: " ^ msg); exit 1 in
  (* the profile directory first: --json may point into it *)
  let profile =
    match a.profile_dir with
    | None -> None
    | Some dir -> (
      try
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let chrome_oc = open_out (Filename.concat dir "trace.chrome.json") in
        Some (dir, Obs.Profile.create (), chrome_oc)
      with Sys_error m | Unix.Unix_error (Unix.EACCES, _, m) -> fail_sys m)
  in
  let json_out =
    match a.json_file with
    | None -> None
    | Some f -> (try Some (f, open_out f) with Sys_error m -> fail_sys m)
  in
  let sinks =
    (match a.trace_file with
    | Some f -> (
      try [ Obs.Trace.jsonl_sink f ] with Sys_error m -> fail_sys m)
    | None -> [])
    @
    match profile with
    | Some (_, p, chrome_oc) ->
      [ Obs.Profile.sink p; Obs.Profile.chrome_sink chrome_oc ]
    | None -> []
  in
  (match sinks with
  | [] -> ()
  | [ s ] -> Obs.Trace.set_sink s
  | ss -> Obs.Trace.set_sink (Obs.Trace.tee_sink ss));
  (* the manifest header must be the stream's first record *)
  if sinks <> [] then Obs.Runinfo.emit_run_start manifest;
  let report = run () in
  Obs.Trace.close_sink ();
  (match profile with
  | None -> ()
  | Some (dir, p, _) ->
    let write name s =
      let f = Filename.concat dir name in
      let oc = open_out f in
      output_string oc s;
      close_out oc;
      Printf.printf "wrote %s\n" f
    in
    write "profile.json"
      (Obs.Json.to_string
         (Obs.Profile.to_json ~run:(Obs.Runinfo.to_json manifest) p)
      ^ "\n");
    write "profile.folded" (Obs.Profile.to_folded p);
    Printf.printf "wrote %s\n" (Filename.concat dir "trace.chrome.json"));
  Format.printf "%a@." pp report;
  (match json_out with
  | Some (f, oc) ->
    let report_json =
      match to_json report with
      | Obs.Json.Obj fields ->
        Obs.Json.Obj (("run", Obs.Runinfo.to_json manifest) :: fields)
      | other -> other
    in
    output_string oc (Obs.Json.to_string report_json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" f
  | None -> ());
  report

(* A checkpoint sink puts a barrier in every round, which can change
   results, so it is part of the hashed run-manifest options; plain runs
   add nothing, keeping their manifests as they were. *)
let checkpoint_option = function
  | None -> []
  | Some _ -> [ ("checkpoint", "on") ]

let optimize_cmd =
  let run a out_file delay verify metrics check_seconds round_seconds
      checkpoint resume verify_applies =
    let circ = a.load () in
    let original = Circuit.clone circ in
    (* A missing checkpoint file with --resume just starts fresh — that
       is what lets one command line be re-run after a kill, whether or
       not a checkpoint had been written yet. *)
    let resume_ck =
      if not resume then None
      else
        match checkpoint with
        | None -> input_error "--resume requires --checkpoint FILE"
        | Some f ->
          if not (Sys.file_exists f) then None
          else (
            match Powder.Checkpoint.load f with
            | Ok ck -> Some ck
            | Error e -> input_error (f ^ ": " ^ Powder.Checkpoint.error_to_string e))
    in
    let config =
      {
        a.config with
        delay;
        check_seconds;
        round_seconds;
        verify_applies;
        checkpoint_sink = Option.map Powder.Checkpoint.save checkpoint;
      }
    in
    (* a resumed run continues on the checkpoint's seed; the manifest
       records the seed the run actually uses *)
    let seed =
      match resume_ck with
      | Some ck -> ck.Powder.Checkpoint.seed
      | None -> config.Optimizer.seed
    in
    let _report : Optimizer.report =
      run_reported a ~seed
        ~options:
          ([
            ("delay", delay_to_string delay);
            ("verify_applies", string_of_bool verify_applies);
            ("check_seconds", opt_str string_of_float check_seconds);
            ("round_seconds", opt_str string_of_float round_seconds);
          ]
          @ checkpoint_option checkpoint)
        ~pp:Optimizer.pp_report ~to_json:Optimizer.report_to_json
        (fun () ->
          try Optimizer.optimize ~config ?resume:resume_ck circ
          with Optimizer.Bad_checkpoint m ->
            input_error (Option.value checkpoint ~default:"-" ^ ": " ^ m))
    in
    if verify then begin
      match Atpg.Equiv.check ~exhaustive_limit:16 original circ with
      | Atpg.Equiv.Equivalent -> print_endline "verification: equivalent"
      | Atpg.Equiv.Different _ -> failwith "verification FAILED: outputs differ"
      | Atpg.Equiv.Unknown ->
        print_endline "verification: inconclusive (the proof ran out of \
                       conflicts; every accepted substitution was \
                       individually proven)"
    end;
    if metrics then Format.printf "=== metrics ===@.%a@." Obs.Metrics.dump ();
    emit out_file circ
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Prove the final netlist input/output-equivalent to the \
                 input: exhaustive simulation up to 16 inputs, SAT sweeping \
                 of the two netlists above that.")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Dump the telemetry registry (counters and latency \
                 histograms from the simulator, power estimator, STA and the \
                 ATPG proof engines) after the run.")
  in
  let check_seconds =
    Arg.(value & opt (some float) None & info [ "check-seconds" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per exact permissibility check; an expired \
                 check is rejected (counted as a timeout), never hung.")
  in
  let round_seconds =
    Arg.(value & opt (some float) None & info [ "round-seconds" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per optimization round; expiry escalates \
                 the degradation ladder.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Save a resumable checkpoint (atomically) after every round. \
                 Each round then ends in a canonicalization barrier (the \
                 netlist is renumbered), so a checkpointing run is a \
                 different, equally valid run from a plain one; only a \
                 resume of it reproduces it byte for byte.  The manifest \
                 records checkpoint=on.")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Continue from the $(b,--checkpoint) file if it exists \
                 (start fresh otherwise); the seed is taken from the \
                 checkpoint so the run continues bit-identically.")
  in
  let verify_applies =
    Arg.(value & opt bool true & info [ "verify-applies" ] ~docv:"BOOL"
           ~doc:"Guard every accepted substitution with a transactional \
                 journal and independent re-simulation; mismatches are \
                 rolled back (default true).")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Reduce power by permissible substitutions (POWDER).")
    Term.(const run $ run_args $ out_file $ delay_mode $ verify $ metrics
          $ check_seconds $ round_seconds $ checkpoint $ resume $ verify_applies)

(* ------------------------------------------------------------------ *)
(* pareto: power/delay frontier exploration.                           *)
(* ------------------------------------------------------------------ *)

let pareto_cmd =
  let run a constraints checkpoint_dir =
    ignore (a.load ());  (* fail on a bad input before any work is done *)
    let _report : Pareto.Sweep.report =
      run_reported a ~seed:a.config.Optimizer.seed
        ~options:
          ([
             ("mode", "pareto");
             ( "constraints",
               String.concat ","
                 (List.map Pareto.Sweep.spec_to_string constraints) );
           ]
          @ checkpoint_option checkpoint_dir)
        ~pp:Pareto.Sweep.pp ~to_json:Pareto.Sweep.to_json
        (fun () ->
          (* fresh circuit per point: each constraint optimizes its own copy *)
          Pareto.Sweep.run ~config:a.config ~specs:constraints
            ~jobs:a.config.Optimizer.jobs
            ?checkpoint:(Option.map Powder.Checkpoint.dir_store checkpoint_dir)
            ~name:a.circuit a.load)
    in
    ()
  in
  let constraints =
    let parse s =
      match Pareto.Sweep.spec_of_string s with
      | Ok sp -> Ok sp
      | Error m -> Error (`Msg m)
    in
    let print fmt sp =
      Format.pp_print_string fmt (Pareto.Sweep.spec_to_string sp)
    in
    Arg.(value
         & opt (list (conv (parse, print))) Pareto.Sweep.default_specs
         & info [ "constraints" ] ~docv:"LIST"
             ~doc:"Comma-separated delay constraints, each a multiple of the \
                   mapped netlist's initial critical path (e.g. 1.0,1.25) or \
                   unbounded.  Default 1.0,1.1,1.25,unbounded.")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Per-point crash recovery: each constraint checkpoints to \
                 DIR/point-LABEL.json after every round and an existing \
                 checkpoint there is resumed, so re-running an interrupted \
                 sweep redoes only the unfinished points; a checkpoint that \
                 is corrupt or of another circuit restarts its point.  Each \
                 round then ends in a canonicalization barrier, so the sweep \
                 is a different, equally valid run from one without \
                 $(b,--checkpoint-dir).  The manifest records checkpoint=on.")
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Explore the power/delay trade-off: optimize under a list of \
             delay constraints and report the dominance-pruned frontier, \
             optionally under the glitch-aware cost model.")
    Term.(const run $ run_args $ constraints $ checkpoint_dir)

(* ------------------------------------------------------------------ *)
(* Profile report: human-readable view of a --profile directory.       *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let module J = Obs.Json in
  (* flatten the call tree into (path, count, inclusive, exclusive) rows *)
  let rec collect_nodes prefix acc node =
    let name = Option.value ~default:"?" (Option.bind (J.member "name" node) J.get_string) in
    let path = prefix @ [ name ] in
    let f key =
      Option.value ~default:0.0 (Option.bind (J.member key node) J.get_float)
    in
    let count =
      Option.value ~default:0 (Option.bind (J.member "count" node) J.get_int)
    in
    let acc = (path, count, f "inclusive_s", f "exclusive_s") :: acc in
    match Option.bind (J.member "children" node) J.get_list with
    | Some kids -> List.fold_left (collect_nodes path) acc kids
    | None -> acc
  in
  let run dir top =
    let path =
      if Sys.file_exists dir && Sys.is_directory dir then
        Filename.concat dir "profile.json"
      else dir
    in
    let text =
      try read_file path with Sys_error e -> input_error ("cannot read profile: " ^ e)
    in
    let j =
      match J.of_string text with
      | Ok j -> j
      | Error e -> input_error (path ^ ": " ^ e)
    in
    (match J.member "run" j with
    | Some run ->
      let s k =
        Option.value ~default:"-" (Option.bind (J.member k run) J.get_string)
      in
      Printf.printf "run: tool=%s circuit=%s seed=%s options=%s\n" (s "tool")
        (s "circuit") (s "seed") (s "options_hash")
    | None -> ());
    let total =
      Option.value ~default:0.0
        (Option.bind (J.member "total_seconds" j) J.get_float)
    in
    let spans =
      Option.value ~default:0 (Option.bind (J.member "spans" j) J.get_int)
    in
    Printf.printf "spans: %d, total: %.3fs\n\n" spans total;
    let rows =
      match Option.bind (J.member "tree" j) J.get_list with
      | Some roots -> List.fold_left (collect_nodes []) [] roots
      | None -> []
    in
    let rows =
      List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a) rows
    in
    Printf.printf "%10s %7s %8s  %s\n" "exclusive" "%total" "calls" "span";
    List.iteri
      (fun i (path, count, _incl, excl) ->
        if i < top then
          Printf.printf "%9.3fs %6.1f%% %8d  %s\n" excl
            (if total > 0.0 then 100.0 *. excl /. total else 0.0)
            count
            (String.concat ";" path))
      rows;
    (match Option.bind (J.member "rounds" j) J.get_list with
    | None | Some [] -> ()
    | Some rounds ->
      Printf.printf "\n%5s %6s %8s  %s\n" "round" "pool" "accepted" "rejected";
      List.iter
        (fun r ->
          let i k =
            Option.value ~default:0 (Option.bind (J.member k r) J.get_int)
          in
          let rejected =
            match J.member "rejected" r with
            | Some (J.Obj fields) ->
              String.concat " "
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "%s=%d"
                       k (Option.value ~default:0 (J.get_int v)))
                   fields)
            | _ -> ""
          in
          Printf.printf "%5d %6d %8d  %s\n" (i "round") (i "pool")
            (i "accepted") rejected)
        rounds)
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"A --profile output directory (or a profile.json file).")
  in
  let top =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N"
           ~doc:"Rows in the exclusive-time table.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize a profile directory: run manifest, top spans by \
             exclusive time, per-round candidate funnel.")
    Term.(const run $ dir $ top)

let map_cmd =
  let run in_file out_file objective =
    match in_file with
    | None -> input_error "--in FILE (a .names BLIF network) is required"
    | Some file -> (
      match Blif.Blif_io.network_of_file file with
      | Error e -> input_error (file ^ ": " ^ Blif.Blif_io.error_to_string e)
      | Ok net ->
        let aig = Aig.Network.to_aig net in
        let obj =
          if objective = "area" then Mapper.Techmap.Area else Mapper.Techmap.Power
        in
        let circ = Mapper.Techmap.map ~objective:obj Gatelib.Library.lib2 aig in
        Format.printf "%a@." Circuit.pp_stats circ;
        (match out_file with
        | Some f ->
          Blif.Blif_io.circuit_to_file f circ;
          Printf.printf "wrote %s\n" f
        | None -> print_string (Blif.Blif_io.circuit_to_string circ)))
  in
  let objective =
    Arg.(value & opt string "power" & info [ "objective" ] ~docv:"OBJ"
           ~doc:"Mapping objective: power or area.")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Technology-map a BLIF logic network onto lib2.")
    Term.(const run $ in_file $ out_file $ objective)

let stats_cmd =
  let run in_file circuit_name words seed =
    let circ = load_circuit in_file circuit_name in
    let eng = Sim.Engine.create circ ~words in
    Sim.Engine.randomize eng (Sim.Rng.create (Int64.of_int seed));
    let est = Power.Estimator.create eng in
    let sta = Sta.Timing.analyze circ in
    Format.printf "%a@." Circuit.pp_stats circ;
    Printf.printf "switched capacitance: %.4f\n" (Power.Estimator.total est);
    Printf.printf "power at 3.3V/20MHz: %.3g W\n" (Power.Estimator.watts est);
    Printf.printf "critical delay: %.2f\n" (Sta.Timing.circuit_delay sta)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Report power, area and delay of a mapped netlist.")
    Term.(const run $ in_file $ circuit_name $ words $ seed)

let suite_cmd =
  let run () =
    Printf.printf "%-10s %-10s %-6s %-6s %s\n" "name" "source" "pis" "pos"
      "description";
    List.iter
      (fun spec ->
        let g = spec.Circuits.Suite.build () in
        Printf.printf "%-10s %-10s %-6d %-6d %s\n" spec.Circuits.Suite.name
          (Circuits.Suite.provenance_name spec.Circuits.Suite.provenance)
          (List.length (Aig.Graph.pis g))
          (List.length (Aig.Graph.pos g))
          spec.Circuits.Suite.description)
      Circuits.Suite.all
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"List the built-in benchmark circuits.")
    Term.(const run $ const ())

let atpg_cmd =
  let run in_file circuit_name patterns =
    let circ = load_circuit in_file circuit_name in
    let cov = Atpg.Faultsim.random_coverage circ ~patterns ~seed:7L in
    Printf.printf "random-pattern coverage: %d / %d\n" cov.Atpg.Faultsim.detected
      cov.Atpg.Faultsim.total;
    let found = ref 0 and redundant = ref 0 and aborted = ref 0 in
    List.iter
      (fun f ->
        match Atpg.Podem.generate_test circ f with
        | Atpg.Podem.Test _ -> incr found
        | Atpg.Podem.Untestable -> incr redundant
        | Atpg.Podem.Aborted _ -> incr aborted)
      cov.Atpg.Faultsim.undetected;
    Printf.printf "PODEM: %d additional tests, %d redundant, %d aborted\n"
      !found !redundant !aborted
  in
  let patterns =
    Arg.(value & opt int 256 & info [ "patterns" ] ~docv:"N"
           ~doc:"Random patterns for fault grading.")
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Stuck-at fault grading and PODEM test generation.")
    Term.(const run $ in_file $ circuit_name $ patterns)

let redundancy_cmd =
  let run in_file circuit_name out_file =
    let circ = load_circuit in_file circuit_name in
    let original = Circuit.clone circ in
    let stats = Atpg.Redundancy.remove circ in
    Printf.printf
      "wires replaced: %d, cells rewritten: %d, passes: %d, aborted proofs: %d\n"
      stats.Atpg.Redundancy.wires_replaced stats.Atpg.Redundancy.cells_rewritten
      stats.Atpg.Redundancy.passes stats.Atpg.Redundancy.aborted_faults;
    Printf.printf "area: %.0f -> %.0f\n" (Circuit.area original) (Circuit.area circ);
    emit out_file circ
  in
  Cmd.v
    (Cmd.info "redundancy"
       ~doc:"ATPG-based redundancy removal (area-oriented baseline).")
    Term.(const run $ in_file $ circuit_name $ out_file)

let resize_cmd =
  let run in_file circuit_name out_file words =
    let circ = load_circuit in_file circuit_name in
    let report = Powder.Resize.optimize ~words circ in
    Format.printf "%a@." Powder.Resize.pp_report report;
    emit out_file circ
  in
  Cmd.v
    (Cmd.info "resize"
       ~doc:"Drive-strength re-sizing for low power under the initial delay.")
    Term.(const run $ in_file $ circuit_name $ out_file $ words)

let glitch_cmd =
  let run in_file circuit_name pairs =
    let circ = load_circuit in_file circuit_name in
    let report = Power.Glitch.estimate ~pairs circ in
    Format.printf "%a@." Power.Glitch.pp_report report
  in
  let pairs =
    Arg.(value & opt int 256 & info [ "pairs" ] ~docv:"N"
           ~doc:"Random vector pairs for the timed simulation.")
  in
  Cmd.v
    (Cmd.info "glitch"
       ~doc:"Timed power estimation: quantify hazards the zero-delay model skips.")
    Term.(const run $ in_file $ circuit_name $ pairs)

let fuzz_cmd =
  let run seed budget cases max_ins candidates out_dir inject replay jobs =
    match replay with
    | Some path -> (
      match Fuzz.Harness.replay path with
      | Ok msg ->
        Printf.printf "FUZZ REPLAY ok: %s\n" msg
      | Error msg ->
        Printf.printf "FUZZ REPLAY failed: %s\n" msg;
        exit 2)
    | None ->
      let forge_window = inject = Some "forge_window" in
      let inject =
        match inject with
        | None -> None
        | Some _ when forge_window -> None
        | Some name -> (
          match Fuzz.Bundle.fault_of_name name with
          | Some f -> Some f
          | None ->
            failwith
              ("unknown fault " ^ name
             ^ " (expected forge_verdict, corrupt_apply, expire_deadline or \
                forge_window)"))
      in
      let config =
        {
          Fuzz.Harness.default_config with
          seed = Int64.of_int seed;
          budget_seconds = (if budget <= 0.0 then None else Some budget);
          cases;
          max_ins;
          candidates_per_case = candidates;
          out_dir;
          inject;
          forge_window;
          jobs;
        }
      in
      let report = Fuzz.Harness.run config in
      Format.printf "%a@." Fuzz.Harness.pp_report report;
      List.iter
        (fun (f : Fuzz.Harness.failure) ->
          Printf.printf "FUZZ FAIL case=%d kind=%s gates=%d bundle=%s\n" f.case
            f.kind f.gates
            (Option.value f.bundle_path ~default:"-"))
        report.Fuzz.Harness.failures;
      (* an injected fault is *supposed* to surface as a caught
         injected_corruption failure; anything else is a defect *)
      let expected f =
        f.Fuzz.Harness.kind
        = (if forge_window then "window_forge" else "injected_corruption")
      in
      let injecting = inject <> None || forge_window in
      let clean =
        if not injecting then report.Fuzz.Harness.failures = []
        else
          report.Fuzz.Harness.injected_caught
          && List.for_all expected report.Fuzz.Harness.failures
      in
      if injecting then
        Printf.printf "FUZZ INJECT caught=%b\n"
          report.Fuzz.Harness.injected_caught;
      if not clean then exit 2
  in
  let budget =
    Arg.(value & opt float 20.0 & info [ "budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock campaign budget; 0 disables the time bound.")
  in
  let cases =
    Arg.(value & opt int 0 & info [ "cases" ] ~docv:"N"
           ~doc:"Maximum cases to run (0 = until the budget expires).")
  in
  let max_ins =
    Arg.(value & opt int 10 & info [ "max-ins" ] ~docv:"N"
           ~doc:"Upper bound on generated primary-input counts.")
  in
  let candidates =
    Arg.(value & opt int 6 & info [ "candidates" ] ~docv:"N"
           ~doc:"Substitution verdicts cross-checked per case.")
  in
  let out_dir =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for shrunk failure bundles (JSON + embedded BLIF).")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT"
           ~doc:"Arm a one-shot fault: a Guard fault (forge_verdict, \
                 corrupt_apply or expire_deadline) with the transactional \
                 guard disabled, or forge_window (a lying windowed \
                 permissibility proof); the harness must catch, shrink and \
                 bundle the corruption.")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"BUNDLE"
           ~doc:"Replay a saved failure bundle instead of running a campaign.")
  in
  let fuzz_seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign seed; every case derives from it deterministically.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing of the substitution engine: random mapped \
             netlists, cross-checked equivalence backends, metamorphic \
             optimizer properties, auto-shrunk replayable failures.")
    Term.(const run $ fuzz_seed $ budget $ cases $ max_ins $ candidates
          $ out_dir $ inject $ replay $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* serve: the fault-tolerant batch optimization service.               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run input state output jobs slice_rounds retry_base retry_cap
      max_attempts seed inject chaos_seed =
    let chaos =
      match inject with
      | None -> None
      | Some name -> (
        match Serve.Chaos.fault_of_name name with
        | None ->
          failwith
            ("unknown fault " ^ name
           ^ " (expected worker-crash, malformed-job, deadline-storm or \
              checkpoint-corrupt)")
        | Some f ->
          let malformed =
            if f = Serve.Chaos.Malformed_job then
              Array.map snd
                (Fuzz.Proto.corpus ~seed:(Int64.of_int chaos_seed) ())
            else [||]
          in
          Some (Serve.Chaos.create ~malformed f))
    in
    let config =
      {
        (Serve.Supervisor.default_config ~state_dir:state) with
        jobs;
        slice_rounds;
        retry =
          {
            Serve.Retry.base = retry_base;
            cap = retry_cap;
            max_attempts;
            jitter = Serve.Retry.default.Serve.Retry.jitter;
          };
        seed = Int64.of_int seed;
        chaos;
      }
    in
    (* graceful shutdown: SIGTERM/SIGINT set a flag the event loop
       polls between slices; the queue is persisted before exit *)
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    let rec mkdir_p dir =
      if not (Sys.file_exists dir) then begin
        mkdir_p (Filename.dirname dir);
        try Unix.mkdir dir 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      end
    in
    mkdir_p state;
    let out_path =
      match output with
      | Some f -> f
      | None -> Filename.concat state "results.jsonl"
    in
    (* append: a restarted server extends the same event log *)
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 out_path
    in
    let emit j =
      output_string oc (Obs.Json.to_string j);
      output_char oc '\n';
      flush oc
    in
    let source = Serve.Supervisor.file_source input in
    let outcome =
      Serve.Supervisor.run config ~source ~emit
        ~should_stop:(fun () -> !stop)
        ()
    in
    close_out oc;
    Printf.printf
      "serve: %s  completed=%d failed=%d rejected=%d recovered=%d\n"
      (if outcome.Serve.Supervisor.clean_exit then "drained" else "stopped")
      outcome.Serve.Supervisor.completed outcome.Serve.Supervisor.failed
      outcome.Serve.Supervisor.rejected outcome.Serve.Supervisor.recovered
  in
  let input =
    Arg.(value & opt string "-" & info [ "input" ] ~docv:"FILE"
           ~doc:"JSONL request source: a file, a FIFO, or - for stdin.")
  in
  let state =
    Arg.(required & opt (some string) None & info [ "state" ] ~docv:"DIR"
           ~doc:"State directory: the journal (queue snapshots and per-job \
                 checkpoints) and the result files.  A restart with the \
                 same directory recovers pending work.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "output" ] ~docv:"FILE"
           ~doc:"JSONL event log (default \\$(state)/results.jsonl, \
                 appended).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Parallel worker slots: up to N job slices run \
                 concurrently on a domain pool.")
  in
  let slice_rounds =
    Arg.(value & opt int 2 & info [ "slice-rounds" ] ~docv:"N"
           ~doc:"Optimizer rounds per scheduling slice; smaller slices \
                 preempt faster.")
  in
  let retry_base =
    Arg.(value & opt float 0.05 & info [ "retry-base" ] ~docv:"SECONDS"
           ~doc:"First-retry backoff delay.")
  in
  let retry_cap =
    Arg.(value & opt float 2.0 & info [ "retry-cap" ] ~docv:"SECONDS"
           ~doc:"Backoff ceiling.")
  in
  let max_attempts =
    Arg.(value & opt int 5 & info [ "max-attempts" ] ~docv:"N"
           ~doc:"Total attempts per job (first try included) before a \
                 transient failure becomes permanent.")
  in
  let serve_seed =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"N"
           ~doc:"Server seed (retry jitter streams derive from it).")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT"
           ~doc:"Chaos injection: worker-crash, malformed-job, \
                 deadline-storm or checkpoint-corrupt.  Every well-formed \
                 job must still complete with byte-identical outputs.")
  in
  let chaos_seed =
    Arg.(value & opt int 0xBADF00D & info [ "chaos-seed" ] ~docv:"N"
           ~doc:"Seed for the malformed-job corpus.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Fault-tolerant batch optimization service: JSONL job protocol, \
             priority queue, supervised sliced workers with checkpointed \
             preemption, typed failure taxonomy, retry with backoff, \
             crash-safe state, chaos injection.")
    Term.(const run $ input $ state $ output $ jobs $ slice_rounds
          $ retry_base $ retry_cap $ max_attempts $ serve_seed $ inject
          $ chaos_seed)

let () =
  Obs.Runtime.tune_gc ();
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  let info =
    Cmd.info "powder_cli" ~version:"1.0.0"
      ~doc:"Power reduction after technology mapping by structural transformations."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ optimize_cmd; pareto_cmd; report_cmd; map_cmd; stats_cmd;
            suite_cmd; atpg_cmd; redundancy_cmd; resize_cmd;
            glitch_cmd; fuzz_cmd; serve_cmd ]))
