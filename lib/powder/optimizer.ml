module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Estimator = Power.Estimator
module Timing = Sta.Timing
module Equiv = Atpg.Equiv
module Deadline = Obs.Deadline

type delay_mode = Unconstrained | Keep_initial | Ratio of float | Absolute of float

type cost_model = Zero_delay | Glitch of { pairs : int }

let cost_model_name = function
  | Zero_delay -> "zero-delay"
  | Glitch _ -> "glitch"

type config = {
  words : int;
  seed : int64;
  input_prob : string -> float;
  repeat : int;
  preselect : int;
  delay : delay_mode;
  classes : Subst.klass list;
  backtrack_limit : int;
  exhaustive_limit : int;
  max_substitutions : int;
  max_rounds : int;
  check_seconds : float option;
  round_seconds : float option;
  run_seconds : float option;
  verify_applies : bool;
  checkpoint_sink : (Checkpoint.t -> unit) option;
  jobs : int;
  window : int option;
  cost : cost_model;
}

let default_config =
  {
    words = 16;
    seed = 0xC0FFEEL;
    input_prob = (fun _ -> 0.5);
    repeat = 8;
    preselect = 12;
    delay = Unconstrained;
    classes = Subst.all_klasses;
    backtrack_limit = 10_000;
    exhaustive_limit = 12;
    max_substitutions = 10_000;
    max_rounds = 200;
    check_seconds = None;
    round_seconds = None;
    run_seconds = None;
    verify_applies = true;
    checkpoint_sink = None;
    jobs = 1;
    window = None;
    cost = Zero_delay;
  }

module Trace = Obs.Trace
module Metrics = Obs.Metrics

type class_stats = { accepted : int; power_gain : float; area_gain : float }

type funnel = {
  mutable rounds : int;
  mutable substitutions : int;
  mutable candidates_generated : int;
  mutable checks_run : int;
  mutable rejected_by_delay : int;
  mutable rejected_by_atpg : int;
  mutable rejected_by_giveup : int;
  mutable rejected_by_timeout : int;
  mutable rejected_by_cex : int;
  mutable sig_hits : int;
  mutable sig_filtered : int;
  mutable sig_resim_nodes : int;
  mutable is3_candidates : int;
  mutable rolled_back : int;
  mutable verified_applies : int;
  mutable window_checks : int;
  mutable window_proved : int;
  mutable window_escalated : int;
}

type report = {
  initial_power : float;
  final_power : float;
  initial_area : float;
  final_area : float;
  initial_delay : float;
  final_delay : float;
  delay_constraint : float option;
  cost_model : string;
  initial_glitch_power : float option;
  final_glitch_power : float option;
  by_class : (Subst.klass * class_stats) list;
  funnel : funnel;
  giveup_breakdown : (string * int) list;
  degradation_level : int;
  stopped_by : string;
  jobs : int;
  phase_seconds : (string * float) list;
  cpu_seconds : float;
}

let phase_names = [ "generate"; "rank"; "refine-pgc"; "exact-check"; "apply"; "sta" ]

(* Per-round GC telemetry.  [Gc.quick_stat] reads counters without
   walking the heap, so sampling every round is free.  Gauges keep the
   latest sample in the always-on registry; when a trace sink is
   installed the sample is also emitted as a ["gc"] point event, which
   the profiler collects into its per-round GC table.  Sampled on the
   main domain only, after the round's commits — the sample COUNT is
   therefore identical across [--jobs] widths, while the values are
   volatile and stripped by profile comparison. *)
let g_gc_live = Metrics.gauge "gc.live_words"
let g_gc_heap = Metrics.gauge "gc.heap_words"
let g_gc_major = Metrics.gauge "gc.major_collections"
let g_gc_minor = Metrics.gauge "gc.minor_collections"
let g_gc_top_heap = Metrics.gauge "gc.top_heap_words"

let sample_gc ~round =
  let s = Gc.quick_stat () in
  Metrics.set_gauge g_gc_live (float_of_int s.Gc.live_words);
  Metrics.set_gauge g_gc_heap (float_of_int s.Gc.heap_words);
  Metrics.set_gauge g_gc_major (float_of_int s.Gc.major_collections);
  Metrics.set_gauge g_gc_minor (float_of_int s.Gc.minor_collections);
  Metrics.set_gauge g_gc_top_heap (float_of_int s.Gc.top_heap_words);
  Trace.event "gc"
    [
      ("round", Trace.Int round);
      ("live_words", Trace.Int s.Gc.live_words);
      ("heap_words", Trace.Int s.Gc.heap_words);
      ("major_collections", Trace.Int s.Gc.major_collections);
      ("minor_collections", Trace.Int s.Gc.minor_collections);
      ("top_heap_words", Trace.Int s.Gc.top_heap_words);
    ]

let power_reduction_percent r =
  if r.initial_power <= 0.0 then 0.0
  else 100.0 *. (r.initial_power -. r.final_power) /. r.initial_power

let area_reduction_percent r =
  if r.initial_area <= 0.0 then 0.0
  else 100.0 *. (r.initial_area -. r.final_area) /. r.initial_area

(* a candidate is stale once any node it references died *)
let still_valid circ (s : Subst.t) =
  let node_ok id = Circuit.is_live circ id in
  let target_ok =
    match s.Subst.target with
    | Subst.Stem a -> node_ok a && Circuit.num_fanouts circ a > 0
    | Subst.Branch { sink; pin } ->
      node_ok sink
      &&
      (match Circuit.kind circ sink with
      | Circuit.Cell (_, fs) -> pin >= 0 && pin < Array.length fs
      | Circuit.Po _ -> pin = 0
      | Circuit.Pi | Circuit.Const _ -> false)
  in
  let source_ok =
    match s.Subst.source with
    | Subst.Signal b | Subst.Inverted b -> node_ok b
    | Subst.Gate2 (_, b, c) -> node_ok b && node_ok c
  in
  target_ok && source_ok

(* Consecutive per-check deadline expiries before the degradation
   ladder escalates one level. *)
let escalate_after_timeouts = 3

let delay_constraint config initial_delay =
  match config.delay with
  | Unconstrained -> None
  | Keep_initial -> Some initial_delay
  | Ratio r -> Some (initial_delay *. (1.0 +. r))
  | Absolute d -> Some d

(* Glitch-aware costing (--cost glitch): the timed estimator runs on its
   own derived seed stream, so turning it on perturbs nothing in the
   zero-delay engines, and both the total measurements and the per-node
   hazard factors are deterministic for a given seed. *)
let glitch_seed config = Sim.Rng.derive config.seed "powder/glitch"

let measure_glitch config circ =
  match config.cost with
  | Zero_delay -> None
  | Glitch { pairs } ->
    Some
      (Power.Glitch.estimate ~pairs ~seed:(glitch_seed config)
         ~input_prob:config.input_prob circ)
        .Power.Glitch.timed_switched_cap

(* Counterexample pattern set: every refuted candidate contributes its
   distinguishing vector, which then screens future candidates for free
   (classic simulation/SAT refinement).  Counterexample [k] of the run's
   log owns pattern column [k mod (64 * cex_words)], so replaying the
   log rebuilds the engine bit for bit. *)
let cex_words = 4

let write_cex_bits circ cex_eng k assignment =
  let k = k mod (64 * cex_words) in
  let word = k / 64 and bit = k mod 64 in
  List.iter
    (fun pi ->
      match List.assoc_opt (Circuit.name circ pi) assignment with
      | None -> ()
      | Some v ->
        let values = Engine.value cex_eng pi in
        let mask = Int64.shift_left 1L bit in
        values.(word) <-
          (if v then Int64.logor values.(word) mask
           else Int64.logand values.(word) (Int64.lognot mask));
        Engine.set_value cex_eng pi values)
    (Circuit.pis circ)

(* The run's simulation state.  Everything in it derives from the
   circuit, the seed and the counterexample log, which is what lets a
   barrier rebuild it and a resume reproduce it. *)
type state = {
  est : Estimator.t;  (* over the base engine of [words] words *)
  cex_eng : Engine.t;
  sigstore : Sim.Sigstore.t;
      (* over both engines: candidate generation reads it, the accept
         path maintains it incrementally, and a new counterexample
         invalidates it (it rewrites one pattern column in every row) *)
  guard : Guard.verifier option;
  factors : float array option;  (* glitch hazard multipliers, by node id *)
  mutable sta : Timing.t;
  mutable sta_cursor : Circuit.edit_cursor;
      (* the edit-log position [sta] reflects *)
}

(* The one place the state is built: at the run start, at every
   canonicalization barrier, and on resume.  Every stream is
   seed-derived, so the same circuit, config and log give the same
   state. *)
let build_state ~config ~constraint_ ~cex circ =
  let prob_of pi = config.input_prob (Circuit.name circ pi) in
  let eng = Engine.create circ ~words:config.words in
  Engine.randomize_sharded ~input_probs:prob_of ~seed:config.seed eng;
  let est = Estimator.create eng in
  let cex_eng = Engine.create circ ~words:cex_words in
  Engine.randomize cex_eng ~input_probs:prob_of
    (Sim.Rng.stream config.seed "powder/cex");
  List.iteri (write_cex_bits circ cex_eng) cex;
  if cex <> [] then Engine.resim_all cex_eng;
  let sigstore = Sim.Sigstore.create ~cex:cex_eng ~base:eng () in
  let guard =
    if config.verify_applies then
      Some
        (Guard.make_verifier
           ~seed:(Sim.Rng.derive config.seed "powder/guard")
           ~input_probs:prob_of circ)
    else None
  in
  let factors =
    match config.cost with
    | Zero_delay -> None
    | Glitch { pairs } ->
      Some
        (Power.Glitch.node_factors ~pairs ~seed:(glitch_seed config)
           ~input_prob:config.input_prob circ)
  in
  let sta =
    Trace.with_span "sta" (fun () ->
        Timing.analyze ?required_time:constraint_ circ)
  in
  { est; cex_eng; sigstore; guard; factors; sta; sta_cursor = Circuit.edit_cursor circ }

exception Bad_checkpoint of string

let interface c =
  let names ids = List.sort compare (List.map (Circuit.name c) ids) in
  (names (Circuit.pis c), names (Circuit.pos c))

(* Overwrite [circ] in place, keeping the caller's handle valid, with
   the netlist a BLIF string describes.  A netlist with other PI or PO
   names is another circuit's and is refused before [circ] is touched. *)
let load_blif circ blif =
  let refuse m = raise (Bad_checkpoint ("checkpoint " ^ m)) in
  match Blif.Blif_io.circuit_of_string (Circuit.library circ) blif with
  | Error e -> refuse ("netlist does not parse: " ^ Blif.Blif_io.error_to_string e)
  | Ok c2 when interface c2 <> interface circ ->
    refuse "of another circuit (its PI/PO names differ from the input's)"
  | Ok c2 -> Circuit.overwrite circ c2

(* The loop's restorable state: everything a checkpoint carries besides
   the netlist, the seed and the initial measurements.  [of_checkpoint]
   and [to_checkpoint] are its only conversions. *)
type progress = {
  funnel : funnel;
  by_class : (Subst.klass, class_stats) Hashtbl.t;
  giveups : (string, int) Hashtbl.t;  (* keyed "engine/limit" *)
  mutable degradation : int;
  mutable running : bool;  (* false once the loop has decided to stop *)
  mutable stopped_by : string;
  mutable cex : (string * bool) list list;  (* newest first *)
}

(* A checkpoint taken after the loop decided to stop marks the run
   finished: its progress is not [running], so resuming it reproduces
   the finished report instead of running one more (empty) round. *)
let of_checkpoint (ck : Checkpoint.t) =
  let by_class = Hashtbl.create 4 in
  List.iter
    (fun k ->
      Hashtbl.replace by_class k { accepted = 0; power_gain = 0.0; area_gain = 0.0 })
    Subst.all_klasses;
  List.iter
    (fun (name, (accepted, power_gain, area_gain)) ->
      Option.iter
        (fun k -> Hashtbl.replace by_class k { accepted; power_gain; area_gain })
        (Subst.klass_of_name name))
    ck.by_class;
  let giveups = Hashtbl.create 8 in
  List.iter (fun (k, n) -> Hashtbl.replace giveups k n) ck.giveup_breakdown;
  let running = String.equal ck.status "running" in
  {
    funnel =
      {
        rounds = ck.round;
        substitutions = ck.substitutions;
        candidates_generated = ck.candidates_generated;
        checks_run = ck.checks_run;
        rejected_by_delay = ck.rejected_by_delay;
        rejected_by_atpg = ck.rejected_by_atpg;
        rejected_by_giveup = ck.rejected_by_giveup;
        rejected_by_timeout = ck.rejected_by_timeout;
        rejected_by_cex = ck.rejected_by_cex;
        sig_hits = ck.sig_hits;
        sig_filtered = ck.sig_filtered;
        sig_resim_nodes = ck.sig_resim_nodes;
        is3_candidates = ck.is3_candidates;
        rolled_back = ck.rolled_back;
        verified_applies = ck.verified_applies;
        window_checks = ck.window_checks;
        window_proved = ck.window_proved;
        window_escalated = ck.window_escalated;
      };
    by_class;
    giveups;
    degradation = ck.degradation_level;
    running;
    stopped_by = (if running then "converged" else ck.status);
    cex = List.rev ck.cex;
  }

let giveup_breakdown p =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.giveups [])

(* Round 0's checkpoint ([None]: nothing counted, logged or stopped
   yet) and every barrier's.  The status is the raw stop reason, never
   the promoted one: "converged" at a round cap means different things
   to different resumers (a slice driver's per-slice cap is not the
   job's), so the promotion into max_substitutions / max_rounds happens
   at report time against the resuming config's own bounds. *)
let to_checkpoint ~seed ~initial ~blif (p : progress option) : Checkpoint.t =
  let initial_power, initial_area, initial_delay, initial_glitch_power = initial in
  let count get = match p with Some p -> get p.funnel | None -> 0 in
  let of_progress none some = match p with Some p -> some p | None -> none in
  {
    round = count (fun f -> f.rounds);
    status =
      of_progress "running" (fun p -> if p.running then "running" else p.stopped_by);
    substitutions = count (fun f -> f.substitutions);
    seed;
    blif;
    cex = of_progress [] (fun p -> List.rev p.cex);
    cex_cursor = of_progress 0 (fun p -> List.length p.cex);
    candidates_generated = count (fun f -> f.candidates_generated);
    checks_run = count (fun f -> f.checks_run);
    rejected_by_delay = count (fun f -> f.rejected_by_delay);
    rejected_by_atpg = count (fun f -> f.rejected_by_atpg);
    rejected_by_giveup = count (fun f -> f.rejected_by_giveup);
    rejected_by_timeout = count (fun f -> f.rejected_by_timeout);
    rejected_by_cex = count (fun f -> f.rejected_by_cex);
    sig_hits = count (fun f -> f.sig_hits);
    sig_filtered = count (fun f -> f.sig_filtered);
    sig_resim_nodes = count (fun f -> f.sig_resim_nodes);
    is3_candidates = count (fun f -> f.is3_candidates);
    rolled_back = count (fun f -> f.rolled_back);
    verified_applies = count (fun f -> f.verified_applies);
    window_checks = count (fun f -> f.window_checks);
    window_proved = count (fun f -> f.window_proved);
    window_escalated = count (fun f -> f.window_escalated);
    giveup_breakdown = of_progress [] giveup_breakdown;
    by_class =
      of_progress [] (fun p ->
          List.map
            (fun k ->
              let st = Hashtbl.find p.by_class k in
              (Subst.klass_name k, (st.accepted, st.power_gain, st.area_gain)))
            Subst.all_klasses);
    initial_power;
    initial_area;
    initial_delay;
    initial_glitch_power;
    degradation_level = of_progress 0 (fun p -> p.degradation);
  }

(* The one start path.  A fresh run starts from round 0's checkpoint,
   measured on the caller's circuit, which it keeps (so that checkpoint
   carries no BLIF).  A resume starts from the saved one: only it
   reloads the circuit, from the checkpoint's BLIF, and
   the initial measurements (hence the delay constraint) carry over
   from the run it continues.  Either way the state comes from the
   build every barrier makes, on the checkpoint's seed and log. *)
let start ~config ?resume circ =
  match resume with
  | Some (ck : Checkpoint.t) ->
    load_blif circ ck.blif;
    let config = { config with seed = ck.seed } in
    ( ck,
      build_state ~config
        ~constraint_:(delay_constraint config ck.initial_delay)
        ~cex:ck.cex circ )
  | None ->
    let d =
      Trace.with_span "sta" (fun () -> Timing.circuit_delay (Timing.analyze circ))
    in
    let glitch = measure_glitch config circ in
    let st =
      build_state ~config ~constraint_:(delay_constraint config d) ~cex:[] circ
    in
    let initial = (Estimator.total st.est, Circuit.area circ, d, glitch) in
    (to_checkpoint ~seed:config.seed ~initial ~blif:"" None, st)

let optimize_with ~pool:dom_pool ~jobs ~config ?resume circ =
  let t0 = Obs.Clock.now () in
  (* span histograms are process-global; remember their current sums so
     this run's phase breakdown is a delta, not a lifetime total *)
  let phase_base = List.map (fun n -> (n, Trace.span_seconds n)) phase_names in
  let log = Logs.debug in
  let ck, st = start ~config ?resume circ in
  (* every simulation stream derives from the seed, so a resumed run
     continues on the checkpoint's, whatever the caller passed *)
  let config = { config with seed = ck.seed } in
  let initial =
    (ck.initial_power, ck.initial_area, ck.initial_delay, ck.initial_glitch_power)
  in
  let constraint_ = delay_constraint config ck.initial_delay in
  let p = of_checkpoint ck in
  let f = p.funnel in
  let st = ref st in
  (* Incremental STA: each accept pulls the edit-log suffix since the
     snapshot and updates only the affected cone.  Rolled-back applies
     leave unchanged-value edits in the log — harmless, the update
     prunes them. *)
  let update_sta () =
    let s = !st in
    Trace.with_span "sta" (fun () ->
        (match Circuit.edits_since circ s.sta_cursor with
        | Some dirty ->
          s.sta <- Timing.update ?required_time:constraint_ s.sta ~dirty
        | None -> s.sta <- Timing.analyze ?required_time:constraint_ circ);
        s.sta_cursor <- Circuit.edit_cursor circ)
  in
  let bump_giveup key =
    Hashtbl.replace p.giveups key
      (1 + Option.value ~default:0 (Hashtbl.find_opt p.giveups key))
  in
  let inject_cex assignment =
    let s = !st in
    write_cex_bits circ s.cex_eng (List.length p.cex) assignment;
    p.cex <- assignment :: p.cex;
    Engine.resim_all s.cex_eng;
    Sim.Sigstore.invalidate s.sigstore
  in
  (* Canonicalization barrier: serialize, reparse, continue on the
     reparsed circuit and rebuild the state.  A BLIF round trip
     renumbers nodes, and candidate generation iterates in node-id
     order — so the checkpointed BLIF must BE the state the run
     continues from, or resume would diverge. *)
  let barrier sink =
    let blif = Blif.Blif_io.circuit_to_string circ in
    load_blif circ blif;
    st := build_state ~config ~constraint_ ~cex:(List.rev p.cex) circ;
    sink (to_checkpoint ~seed:config.seed ~initial ~blif (Some p))
  in
  let consecutive_timeouts = ref 0 in
  let escalate reason =
    if p.degradation < 3 then begin
      p.degradation <- p.degradation + 1;
      Trace.event "degrade"
        [ ("level", Trace.Int p.degradation); ("reason", Trace.String reason) ];
      log (fun m -> m "degradation level %d (%s)" p.degradation reason)
    end;
    if p.degradation >= 3 then begin
      p.stopped_by <- "degradation";
      p.running <- false
    end
  in
  let effective_backtrack_limit () =
    if p.degradation >= 1 then max 100 (config.backtrack_limit / 8)
    else config.backtrack_limit
  in
  let effective_classes () =
    if p.degradation >= 2 then
      List.filter
        (fun k -> match k with Subst.Os3 | Subst.Is3 -> false | _ -> true)
        config.classes
    else config.classes
  in
  let run_deadline = Deadline.of_option config.run_seconds in
  let round_deadline = ref Deadline.never in
  let check_deadline () =
    let d =
      if Guard.take_fault Guard.Expire_deadline then Deadline.after ~seconds:(-1.0)
      else Deadline.of_option config.check_seconds
    in
    Deadline.earliest d (Deadline.earliest !round_deadline run_deadline)
  in
  (* Attempt the best pre-selected candidate from the pool.  All tried
     or discarded candidates are marked used, so progress is guaranteed.
     Returns [`Accepted], [`Tried] (pool consumed but nothing accepted
     yet), [`Exhausted], [`Round_over] (round budget expired) or
     [`Stop] (run budget expired or the ladder topped out). *)
  (* Glitch-aware scoring: scale the estimated gain components by the
     hazard multipliers of the signals whose activity they price — PG_A
     removes activity at (or behind) the substituted signal, PG_B adds
     load driven at the source's density; PG_C stays zero-delay (the
     exact re-simulation has no hazard model).  Factors are sampled
     from the canonical circuit at every rebuild barrier; nodes created
     since (new inverters/gates) default to 1. *)
  let node_factor id =
    match !st.factors with
    | None -> 1.0
    | Some f -> if id < Array.length f then f.(id) else 1.0
  in
  let scored s (g : Subst.gain) =
    match !st.factors with
    | None -> Subst.total_gain g
    | Some _ ->
      let tgt = node_factor (Subst.substituted_signal circ s) in
      let src =
        match s.Subst.source with
        | Subst.Signal b | Subst.Inverted b -> node_factor b
        | Subst.Gate2 (_, b, d) -> Float.max (node_factor b) (node_factor d)
      in
      (g.Subst.pg_a *. tgt) +. (g.Subst.pg_b *. src) +. g.Subst.pg_c
  in
  let try_pick pool used ranked_cache =
    let compute_ranked () =
      (* rank the still-valid unused candidates by fresh PG_A+PG_B;
         pool entries against the same stem share one dominated region
         (the pool holds up to [Candidates.default_config]'s
         [per_target] candidates per target), so
         they are scored together under one region walk *)
      Trace.with_span "rank" (fun () ->
          (* warm the topological memo: with it every [creates_cycle]
             query below only walks the part of the cone that precedes
             its goal *)
          ignore (Circuit.topo_order circ);
          let gains = Array.make (Array.length pool) None in
          let by_stem = Hashtbl.create 64 in
          Array.iteri
            (fun i (s, _) ->
              if (not used.(i)) && still_valid circ s
                 && not (Subst.creates_cycle circ s)
              then
                match s.Subst.target with
                | Subst.Stem a ->
                  Hashtbl.replace by_stem a
                    (i :: Option.value ~default:[] (Hashtbl.find_opt by_stem a))
                | Subst.Branch _ -> gains.(i) <- Some (Subst.gain_ab !st.est s)
              else used.(i) <- true)
            pool;
          Hashtbl.iter
            (fun a is ->
              Circuit.with_dominated_region circ a (fun region ->
                  List.iter
                    (fun i ->
                      gains.(i) <-
                        Some (Subst.gain_ab ~dom:(region ()) !st.est (fst pool.(i))))
                    is))
            by_stem;
          let ranked = ref [] in
          Array.iteri
            (fun i g ->
              match g with
              | Some g ->
                let s = fst pool.(i) in
                if scored s g > 0.0 then ranked := (i, s, g) :: !ranked
                else used.(i) <- true
              | None -> ())
            gains;
          List.sort
            (fun (_, s1, g1) (_, s2, g2) ->
              Float.compare (scored s2 g2) (scored s1 g1))
            !ranked)
    in
    let ranked =
      match ranked_cache with
      | Some r -> List.filter (fun (i, _, _) -> not used.(i)) r
      | None -> compute_ranked ()
    in
    match ranked with
    | [] -> `Exhausted
    | _ ->
      let top = List.filteri (fun k _ -> k < config.preselect) ranked in
      (* re-estimate PG_C for the pre-selected candidates (Section 3.5) *)
      let refined =
        Trace.with_span "refine-pgc" (fun () ->
            List.filter_map
              (fun (i, s, _) ->
                let g = Subst.gain_full !st.est s in
                if scored s g > 0.0 then Some (i, s, g)
                else begin
                  used.(i) <- true;
                  None
                end)
              top)
      in
      let class_rank s =
        match Subst.klass s with
        | Subst.Is2 -> 0
        | Subst.Os2 -> 1
        | Subst.Os3 -> 2
        | Subst.Is3 -> 3
      in
      let refined =
        List.sort
          (fun (_, s1, g1) (_, s2, g2) ->
            let c = Float.compare (scored s2 g2) (scored s1 g1) in
            if c <> 0 then c else Int.compare (class_rank s1) (class_rank s2))
          refined
      in
      (* rank = position in the refined best-first order, recorded on
         every accept/reject event so the trace shows how deep into the
         pre-selection each verdict happened *)
      let refined = List.mapi (fun rank (i, s, g) -> (rank, i, s, g)) refined in
      let reject rank s reason =
        Trace.event_f "reject" (fun () ->
            [
              ("reason", Trace.String reason);
              ("rank", Trace.Int rank);
              ("cand", Trace.String (Subst.describe circ s));
            ])
      in
      (* The budget/ladder guards checked before every candidate, in
         this exact order. *)
      let walk_status () =
        if Deadline.expired run_deadline then begin
          Guard.count_error Guard.Budget_exhausted;
          p.stopped_by <- "run_budget";
          `Stop
        end
        else if Deadline.expired !round_deadline then begin
          Guard.count_error Guard.Budget_exhausted;
          `Round_over
        end
        else if not p.running then `Stop
        else `Go
      in
      (* Cheap screens before the exact proof; marks the candidate used
         either way and counts the check when it survives. *)
      let screened_out rank i s =
        used.(i) <- true;
        let delay_fine =
          match constraint_ with
          | None -> true
          | Some _ -> Subst.delay_ok !st.sta s
        in
        if not delay_fine then begin
          f.rejected_by_delay <- f.rejected_by_delay + 1;
          reject rank s "delay";
          true
        end
        else if Check.refuted_on_patterns !st.cex_eng s then begin
          f.rejected_by_cex <- f.rejected_by_cex + 1;
          reject rank s "cex";
          true
        end
        else begin
          f.checks_run <- f.checks_run + 1;
          false
        end
      in
      (* The exact proof itself; it reads the circuit and changes no
         optimizer state.  With --window the windowed check runs first;
         a window proof is globally sound and skips the global miter,
         anything inconclusive escalates to it.  The window outcome is
         returned with the verdict, so the "exact-check" span times the
         proof alone and [consume_verdict] does all the counting. *)
      let run_check ~backtrack_limit ~deadline s =
        let global () =
          match
            Check.permissible ~backtrack_limit
              ~exhaustive_limit:config.exhaustive_limit ~deadline circ s
          with
          | v -> v
          | exception Invalid_argument _ ->
            Check.Gave_up { engine = "check"; limit = "invalid" }
        in
        match config.window with
        | None -> (global (), `Window_off)
        | Some k -> (
          match
            Check.windowed ~exhaustive_limit:config.exhaustive_limit
              ~deadline ~max_cut:k circ s
          with
          | Check.W_proved -> (Check.Permissible, `Window_proved)
          | Check.W_escalated r ->
            (global (), `Window_escalated (Check.escalation_name r))
          | exception Invalid_argument _ ->
            (global (), `Window_escalated "invalid"))
      in
      (* Everything downstream of a verdict: apply, stats, cex
         injection, ladder. *)
      let consume_verdict rank s g (verdict, window_outcome) =
        (* window funnel accounting; escalations are classified under
           window/* in the give-up breakdown but are NOT give-up
           rejections — the candidate was re-checked globally and its
           global verdict is what counts *)
        (match window_outcome with
        | `Window_off -> ()
        | `Window_proved ->
          f.window_checks <- f.window_checks + 1;
          f.window_proved <- f.window_proved + 1
        | `Window_escalated r ->
          f.window_checks <- f.window_checks + 1;
          f.window_escalated <- f.window_escalated + 1;
          bump_giveup ("window/" ^ r));
        (* test-only fault: report a refuted candidate as permissible
           so the transactional apply must catch it downstream *)
        let verdict =
          match verdict with
          | Check.Not_permissible _ when Guard.take_fault Guard.Forge_verdict ->
            Check.Permissible
          | v -> v
        in
        match verdict with
        | Check.Permissible -> (
          consecutive_timeouts := 0;
          let power_before = Estimator.total !st.est in
          let area_before = Circuit.area circ in
          let desc = if Trace.active () then Subst.describe circ s else "" in
          let outcome =
            Trace.with_span "apply" (fun () ->
                let outcome =
                  match !st.guard with
                  | Some v -> Guard.transactional_apply v circ s
                  | None -> Guard.Applied (Subst.apply circ s)
                in
                (match outcome with
                | Guard.Applied src ->
                  if Option.is_some !st.guard then
                    f.verified_applies <- f.verified_applies + 1;
                  f.sig_resim_nodes <-
                    f.sig_resim_nodes
                    + Estimator.update_after_edit !st.est src
                    + Engine.resim_after_edit !st.cex_eng src;
                  Sim.Sigstore.update_after_edit !st.sigstore src
                | Guard.Rolled_back _ -> ());
                outcome)
          in
          match outcome with
          | Guard.Rolled_back err ->
            f.rolled_back <- f.rolled_back + 1;
            Trace.event_f "rollback" (fun () ->
                [
                  ("error", Trace.String (Guard.error_name err));
                  ("rank", Trace.Int rank);
                  ("cand", Trace.String (Subst.describe circ s));
                ]);
            log (fun m ->
                m "rolled back %s (%s)" (Subst.describe circ s)
                  (Guard.error_name err));
            `Continue
          | Guard.Applied _ ->
            update_sta ();
            f.substitutions <- f.substitutions + 1;
            let realized = power_before -. Estimator.total !st.est in
            let area_delta = area_before -. Circuit.area circ in
            let k = Subst.klass s in
            let st = Hashtbl.find p.by_class k in
            Hashtbl.replace p.by_class k
              {
                accepted = st.accepted + 1;
                power_gain = st.power_gain +. realized;
                area_gain = st.area_gain +. area_delta;
              };
            Trace.event_f "accept" (fun () ->
                [
                  ("class", Trace.String (Subst.klass_name k));
                  ("rank", Trace.Int rank);
                  ("est_gain", Trace.Float (Subst.total_gain g));
                  ("realized_gain", Trace.Float realized);
                  ("area_delta", Trace.Float area_delta);
                  ("cand", Trace.String desc);
                ]);
            log (fun m ->
                m "accepted %s (gain %.4f)" (Subst.describe circ s)
                  (Subst.total_gain g));
            `Accepted)
        | Check.Not_permissible cex ->
          consecutive_timeouts := 0;
          f.rejected_by_atpg <- f.rejected_by_atpg + 1;
          reject rank s "atpg";
          inject_cex cex;
          `Continue
        | Check.Gave_up { engine; limit } ->
          bump_giveup (engine ^ "/" ^ limit);
          if String.equal limit "deadline" then begin
            f.rejected_by_timeout <- f.rejected_by_timeout + 1;
            Guard.count_error Guard.Check_timeout;
            reject rank s "timeout";
            incr consecutive_timeouts;
            if !consecutive_timeouts >= escalate_after_timeouts then begin
              consecutive_timeouts := 0;
              escalate "check-deadline"
            end;
            `Continue
          end
          else begin
            consecutive_timeouts := 0;
            f.rejected_by_giveup <- f.rejected_by_giveup + 1;
            reject rank s "giveup";
            `Continue
          end
      in
      let rec attempt = function
        | [] -> `Tried ranked
        | (rank, i, s, g) :: rest -> (
          match walk_status () with
          | (`Stop | `Round_over) as st -> st
          | `Go -> (
            if screened_out rank i s then attempt rest
            else
              let verdict =
                Trace.with_span "exact-check" (fun () ->
                    run_check
                      ~backtrack_limit:(effective_backtrack_limit ())
                      ~deadline:(check_deadline ()) s)
              in
              match consume_verdict rank s g verdict with
              | `Accepted -> `Accepted
              | `Continue -> attempt rest))
      in
      attempt refined
  in
  while
    p.running && f.rounds < config.max_rounds
    && f.substitutions < config.max_substitutions
  do
    if Deadline.expired run_deadline then begin
      Guard.count_error Guard.Budget_exhausted;
      p.stopped_by <- "run_budget";
      p.running <- false
    end
    else begin
      f.rounds <- f.rounds + 1;
      round_deadline := Deadline.of_option config.round_seconds;
      let cand_config =
        { Candidates.default_config with classes = effective_classes () }
      in
      let pool, gen_stats =
        Trace.with_span "generate" (fun () ->
            let cands, gs =
              Candidates.generate_stats ~config:cand_config ?pool:dom_pool
                ~store:!st.sigstore ~deadline:run_deadline !st.est
            in
            (Array.of_list cands, gs))
      in
      (* a budget that expired inside generate left a partial pool:
         the run stops on the budget without using it *)
      let pool =
        if Deadline.expired run_deadline then begin
          Guard.count_error Guard.Budget_exhausted;
          p.stopped_by <- "run_budget";
          [||]
        end
        else pool
      in
      f.sig_hits <- f.sig_hits + gen_stats.Candidates.pairs_hit;
      f.sig_filtered <- f.sig_filtered + gen_stats.Candidates.pairs_filtered;
      f.is3_candidates <- f.is3_candidates + gen_stats.Candidates.is3_candidates;
      f.candidates_generated <- f.candidates_generated + Array.length pool;
      Trace.event "round"
        [ ("round", Trace.Int f.rounds); ("pool", Trace.Int (Array.length pool)) ];
      if Array.length pool = 0 then p.running <- false
      else begin
        let used = Array.make (Array.length pool) false in
        let accepted_this_round = ref 0 in
        let batch_active = ref true in
        let round_expired = ref false in
        let ranked_cache = ref None in
        while
          !batch_active
          && !accepted_this_round < config.repeat
          && f.substitutions < config.max_substitutions
        do
          match try_pick pool used !ranked_cache with
          | `Accepted ->
            incr accepted_this_round;
            ranked_cache := None (* circuit changed; re-rank *)
          | `Tried ranked -> ranked_cache := Some ranked
          | `Exhausted -> batch_active := false
          | `Round_over ->
            batch_active := false;
            round_expired := true;
            escalate "round-budget"
          | `Stop ->
            batch_active := false;
            p.running <- false
        done;
        (* An expired round budget is not convergence: the next round
           runs with the escalated ladder instead of giving up. *)
        if !accepted_this_round = 0 && not !round_expired then
          p.running <- false
      end;
      sample_gc ~round:f.rounds;
      (* Checkpoint barrier: every round a sink is set, so a
         checkpointing run and a resume of it share identical state *)
      Option.iter barrier config.checkpoint_sink
    end
  done;
  (* Promote "converged" into the bound that actually stopped the run.
     This applies to finished resumes too: a run that converged exactly
     in its last allowed round checkpoints the raw "converged", and the
     resumed report must repeat the promoted reason the uninterrupted
     run printed.  The funnel's rounds / substitutions come from the
     checkpoint on resume, so the comparison is against the same
     counters either way. *)
  if String.equal p.stopped_by "converged" then begin
    if f.substitutions >= config.max_substitutions then
      p.stopped_by <- "max_substitutions"
    else if f.rounds >= config.max_rounds then p.stopped_by <- "max_rounds"
  end;
  let final_sta = Trace.with_span "sta" (fun () -> Timing.analyze circ) in
  let phase_seconds =
    List.map (fun (n, base) -> (n, Trace.span_seconds n -. base)) phase_base
  in
  {
    initial_power = ck.initial_power;
    final_power = Estimator.total !st.est;
    initial_area = ck.initial_area;
    final_area = Circuit.area circ;
    initial_delay = ck.initial_delay;
    final_delay = Timing.circuit_delay final_sta;
    delay_constraint = constraint_;
    cost_model = cost_model_name config.cost;
    initial_glitch_power = ck.initial_glitch_power;
    final_glitch_power = measure_glitch config circ;
    by_class = List.map (fun k -> (k, Hashtbl.find p.by_class k)) Subst.all_klasses;
    funnel = f;
    giveup_breakdown = giveup_breakdown p;
    degradation_level = p.degradation;
    stopped_by = p.stopped_by;
    jobs;
    phase_seconds;
    cpu_seconds = Obs.Clock.now () -. t0;
  }

(* The pool is created here (not in [optimize_with]) so its lifetime
   brackets the whole run and it is joined even when the run raises.
   Inside a pool task — the optimizer invoked by a parallel fuzz case —
   nested submission is illegal, so the run is forced sequential. *)
let optimize ?(config = default_config) ?resume circ =
  let jobs = if Par.Pool.in_task () then 1 else max 1 config.jobs in
  let pool = if jobs > 1 then Some (Par.Pool.create ~jobs ()) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
    (fun () -> optimize_with ~pool ~jobs ~config ?resume circ)

let pp_report fmt (r : report) =
  let f = r.funnel in
  Format.fprintf fmt
    "@[<v>power: %.4f -> %.4f (%.1f%%)@,area: %.0f -> %.0f (%.1f%%)@,\
     delay: %.2f -> %.2f%s@,funnel: %d generated -> %d checked -> %d accepted@,\
     substitutions: %d (checks %d, rej delay %d, rej atpg %d, rej giveup %d, \
     rej timeout %d, rej cex %d, rolled back %d, rounds %d)@,\
     signatures: %d hits, %d filtered, %d is3 candidates, %d resim nodes@,\
     window: %d checks, %d proved, %d escalated@,\
     guard: %d verified applies, degradation level %d, stopped by %s@,"
    r.initial_power r.final_power (power_reduction_percent r) r.initial_area
    r.final_area (area_reduction_percent r) r.initial_delay r.final_delay
    (match r.delay_constraint with
    | None -> ""
    | Some d -> Printf.sprintf " (constraint %.2f)" d)
    f.candidates_generated f.checks_run f.substitutions f.substitutions
    f.checks_run f.rejected_by_delay f.rejected_by_atpg f.rejected_by_giveup
    f.rejected_by_timeout f.rejected_by_cex f.rolled_back f.rounds
    f.sig_hits f.sig_filtered f.is3_candidates f.sig_resim_nodes
    f.window_checks f.window_proved f.window_escalated
    f.verified_applies r.degradation_level r.stopped_by;
  (match (r.initial_glitch_power, r.final_glitch_power) with
  | Some gi, Some gf ->
    Format.fprintf fmt "glitch power (timed, %s cost): %.4f -> %.4f@,"
      r.cost_model gi gf
  | _ -> ());
  (match r.giveup_breakdown with
  | [] -> ()
  | breakdown ->
    Format.fprintf fmt "giveups:";
    List.iter (fun (k, n) -> Format.fprintf fmt " %s=%d" k n) breakdown;
    Format.fprintf fmt "@,");
  List.iter
    (fun (k, st) ->
      Format.fprintf fmt "  %s: %d accepted, power %.4f, area %.0f@,"
        (Subst.klass_name k) st.accepted st.power_gain st.area_gain)
    r.by_class;
  Format.fprintf fmt "phases:";
  List.iter
    (fun (n, s) -> Format.fprintf fmt " %s %.3fs" n s)
    r.phase_seconds;
  Format.fprintf fmt "@,jobs: %d, cpu: %.2fs@]" r.jobs r.cpu_seconds

let report_to_json (r : report) =
  let open Obs.Json in
  let f = r.funnel in
  Obj
    [
      ("initial_power", Float r.initial_power);
      ("final_power", Float r.final_power);
      ("power_reduction_percent", Float (power_reduction_percent r));
      ("initial_area", Float r.initial_area);
      ("final_area", Float r.final_area);
      ("area_reduction_percent", Float (area_reduction_percent r));
      ("initial_delay", Float r.initial_delay);
      ("final_delay", Float r.final_delay);
      ( "delay_constraint",
        match r.delay_constraint with None -> Null | Some d -> Float d );
      ("cost_model", String r.cost_model);
      ( "initial_glitch_power",
        match r.initial_glitch_power with None -> Null | Some g -> Float g );
      ( "final_glitch_power",
        match r.final_glitch_power with None -> Null | Some g -> Float g );
      ("substitutions", Int f.substitutions);
      ( "by_class",
        Obj
          (List.map
             (fun (k, st) ->
               ( Subst.klass_name k,
                 Obj
                   [
                     ("accepted", Int st.accepted);
                     ("power_gain", Float st.power_gain);
                     ("area_gain", Float st.area_gain);
                   ] ))
             r.by_class) );
      ( "funnel",
        Obj
          [
            ("candidates_generated", Int f.candidates_generated);
            ("checks_run", Int f.checks_run);
            ("accepted", Int f.substitutions);
            ("rejected_by_delay", Int f.rejected_by_delay);
            ("rejected_by_atpg", Int f.rejected_by_atpg);
            ("rejected_by_giveup", Int f.rejected_by_giveup);
            ("rejected_by_timeout", Int f.rejected_by_timeout);
            ("rejected_by_cex", Int f.rejected_by_cex);
            ("sig_hits", Int f.sig_hits);
            ("sig_filtered", Int f.sig_filtered);
            ("sig_resim_nodes", Int f.sig_resim_nodes);
            ("is3_candidates", Int f.is3_candidates);
            ("rolled_back", Int f.rolled_back);
            ("window_checks", Int f.window_checks);
            ("window_proved", Int f.window_proved);
            ("window_escalated", Int f.window_escalated);
          ] );
      ( "guard",
        Obj
          [
            ("verified_applies", Int f.verified_applies);
            ("rolled_back", Int f.rolled_back);
            ("degradation_level", Int r.degradation_level);
            ("stopped_by", String r.stopped_by);
            ( "giveup_breakdown",
              Obj (List.map (fun (k, n) -> (k, Int n)) r.giveup_breakdown) );
          ] );
      ("rounds", Int f.rounds);
      ("jobs", Int r.jobs);
      ( "phase_seconds",
        Obj (List.map (fun (n, s) -> (n, Float s)) r.phase_seconds) );
      ("cpu_seconds", Float r.cpu_seconds);
    ]

let strip_volatile = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           match k with
           | "cpu_seconds" | "phase_seconds" | "jobs" -> None
           | "run" -> Some (k, Obs.Runinfo.strip_volatile v)
           | _ -> Some (k, v))
         fields)
  | other -> other
