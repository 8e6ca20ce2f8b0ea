module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Rng = Sim.Rng
module Guard = Powder.Guard
module Optimizer = Powder.Optimizer
module Metrics = Obs.Metrics
module Json = Obs.Json

type config = {
  seed : int64;
  cases : int;
  budget_seconds : float option;
  max_ins : int;
  candidates_per_case : int;
  words : int;
  out_dir : string option;
  inject : Guard.fault option;
  forge_window : bool;
  shrink_max_steps : int;
  jobs : int;
}

let default_config =
  {
    seed = 1L;
    cases = 0;
    budget_seconds = Some 20.0;
    max_ins = 10;
    candidates_per_case = 6;
    words = 4;
    out_dir = None;
    inject = None;
    forge_window = false;
    shrink_max_steps = 400;
    jobs = 1;
  }

type failure = {
  case : int;
  kind : string;
  detail : string;
  gates : int;
  shrink_steps : int;
  bundle_path : string option;
}

type report = {
  cases_run : int;
  checks : int;
  oracle_splits : int;
  window_checks : int;
  accepts : int;
  failures : failure list;
  shrink_steps : int;
  injected_caught : bool;
  jobs : int;
  elapsed_seconds : float;
}

let cases_c = Metrics.counter "fuzz/cases"
let failures_c = Metrics.counter "fuzz/failures"

(* Shrink predicates must reproduce identically at replay time, so they
   depend only on the case seed and these fixed constants — never on
   the campaign config. *)
let pred_words = 4
let pred_candidates = 6
let pred_window_cut = 8

(* PO equivalence of two same-interface circuits: exhaustive whenever
   the pattern set can enumerate the input space, Monte-Carlo with a
   shared derived stream otherwise. *)
let equivalent ?(words = 16) ~seed a b =
  let npis = List.length (Circuit.pis a) in
  let ea = Engine.create a ~words and eb = Engine.create b ~words in
  if npis <= 20 && 1 lsl npis <= 64 * words then begin
    Engine.exhaustive ea;
    Engine.exhaustive eb
  end
  else begin
    Engine.randomize ea (Rng.stream seed "fuzz/equiv");
    Engine.randomize eb (Rng.stream seed "fuzz/equiv")
  end;
  Engine.equivalent_on_patterns ea eb

(* Matches the shape known to exercise the full accept/reject funnel
   (cf. the guard fault-injection tests): default candidate knobs, a
   few rounds, bounded wall clock.  [words = 1] deliberately leaves
   signature aliasing so some candidates reach the exact check and get
   refuted there — that is the path the forged-verdict fault rides. *)
let opt_config ~case_seed ~words ~verify =
  {
    Optimizer.default_config with
    words;
    seed = Rng.derive case_seed "fuzz/opt";
    max_rounds = 4;
    max_substitutions = 50;
    verify_applies = verify;
    check_seconds = Some 2.0;
    round_seconds = None;
    run_seconds = Some 10.0;
  }

let gain_identity_holds (r : Optimizer.report) =
  let summed =
    List.fold_left
      (fun acc (_, st) -> acc +. st.Optimizer.power_gain)
      0.0 r.Optimizer.by_class
  in
  let delta = r.Optimizer.initial_power -. r.Optimizer.final_power in
  Float.abs (summed -. delta)
  <= 1e-6 *. Float.max 1.0 (Float.abs r.Optimizer.initial_power)

(* A failed metamorphic identity of candidate generation: a finding
   classified as [candidates_identity], never a crash. *)
exception Identity_failed of string

(* Test-only: while armed, [candidates_of] drops the class-indexed
   list's last candidate, so its first identity trips. *)
let identity_fault = Atomic.make false
let inject_identity_fault () = Atomic.set identity_fault true
let clear_identity_fault () = Atomic.set identity_fault false

let candidates_of ~case_seed ~words c k =
  let eng = Engine.create c ~words in
  Engine.randomize eng (Rng.stream case_seed "fuzz/pat");
  let est = Power.Estimator.create eng in
  let cfg =
    {
      Powder.Candidates.classes = Powder.Subst.all_klasses;
      per_target = 2;
      pool_limit = 30;
      require_positive = false;
      index = Powder.Candidates.Hash;
    }
  in
  let generate cfg = Powder.Candidates.generate ~config:cfg est in
  let same l1 l2 =
    List.length l1 = List.length l2
    && List.for_all2
         (fun (s1, g1) (s2, g2) ->
           s1 = s2
           && Float.equal (Powder.Subst.total_gain g1)
                (Powder.Subst.total_gain g2))
         l1 l2
  in
  let scan cfg = { cfg with Powder.Candidates.index = Powder.Candidates.Scan } in
  let all = generate cfg in
  let indexed =
    if Atomic.get identity_fault then
      let n = List.length all in
      List.filteri (fun i _ -> i < n - 1) all
    else all
  in
  (* metamorphic: the class-indexed path and the per-signal reference
     scan must emit the identical candidate list *)
  if not (same indexed (generate (scan cfg))) then
    raise (Identity_failed "hash/scan index modes disagree");
  (* the same under positive-gain filtering, where the gain bounds and
     the flood stop skip sources; skipping is exact, so the positive
     list is the unfiltered one without its non-positive candidates *)
  let pos_cfg = { cfg with Powder.Candidates.require_positive = true } in
  let positive = generate pos_cfg in
  if not (same positive (generate (scan pos_cfg))) then
    raise (Identity_failed "hash/scan index modes disagree on positive gains");
  if
    not
      (same positive
         (List.filter (fun (_, g) -> Powder.Subst.total_gain g > 1e-12) all))
  then raise (Identity_failed "positive-gain skips drop a kept candidate");
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  (eng, take k all)

(* ------------------------------------------------------------------ *)
(* Failure predicates (shared between shrinking and bundle replay).    *)
(* ------------------------------------------------------------------ *)

(* One bounded optimizer run on a private clone; reports whether the
   run broke validity or I/O equivalence.  [inject] re-arms the guard
   fault for every evaluation, which is what lets the shrinker hunt for
   the smallest circuit on which the forged apply still corrupts. *)
let optimizer_breaks ?inject ~case_seed ~words c =
  let pre = Circuit.clone c in
  let cl = Circuit.clone c in
  let verify = inject = None in
  (match inject with Some f -> Guard.inject f | None -> ());
  let outcome =
    match Optimizer.optimize ~config:(opt_config ~case_seed ~words ~verify) cl with
    | (_ : Optimizer.report) -> `Finished
    | exception e -> `Crashed (Printexc.to_string e)
  in
  Guard.clear_injection ();
  match outcome with
  | `Crashed _ -> true
  | `Finished -> (
    match Circuit.validate cl with
    | Error _ -> true
    | Ok () -> not (equivalent ~seed:case_seed pre cl))

let injected_fails ~case_seed ~fault c =
  optimizer_breaks ~inject:fault ~case_seed ~words:1 c

let gain_identity_fails ~case_seed c =
  let cl = Circuit.clone c in
  match
    Optimizer.optimize
      ~config:(opt_config ~case_seed ~words:pred_words ~verify:true)
      cl
  with
  | r -> not (gain_identity_holds r)
  | exception _ -> false

(* The candidate list the other predicates check; a tripped identity
   is its own failure kind, so here it leaves nothing to check. *)
let pred_candidates_of ~case_seed c =
  match candidates_of ~case_seed ~words:pred_words c pred_candidates with
  | _, cands -> cands
  | exception Identity_failed _ -> []

let candidates_identity_fails ~case_seed c =
  match candidates_of ~case_seed ~words:pred_words c pred_candidates with
  | _ -> false
  | exception Identity_failed _ -> true

let oracle_split_fails ~case_seed c =
  let cands = pred_candidates_of ~case_seed c in
  List.exists
    (fun (s, _) ->
      (not (Powder.Subst.creates_cycle c s)) && (Oracle.check c s).Oracle.split)
    cands

(* The windowed-vs-global differential: a window proof claims global
   soundness, so it must never contradict a decided global refutation
   (the oracle's three-backend consensus).  With [forge] the window
   prover is armed to lie once — the same comparison must then catch
   the forged proof. *)
let window_differs ~case_seed ?(forge = false) c =
  let cands = pred_candidates_of ~case_seed c in
  if forge then Powder.Check.inject_window_forge ();
  let hit =
    List.exists
      (fun (s, _) ->
        (not (Powder.Subst.creates_cycle c s))
        &&
        match Powder.Check.windowed ~max_cut:pred_window_cut c s with
        | Powder.Check.W_proved ->
          let r = Oracle.check c s in
          r.Oracle.final = Oracle.No && not r.Oracle.split
        | Powder.Check.W_escalated _ -> false
        | exception _ -> false)
      cands
  in
  Powder.Check.clear_window_forge ();
  hit

let predicate_for ~case_seed ~kind ~injected =
  match (kind, injected) with
  | "injected_corruption", Some fault -> Some (injected_fails ~case_seed ~fault)
  | ("optimizer_broke_equivalence" | "optimizer_crash"), _ ->
    Some (optimizer_breaks ~case_seed ~words:pred_words)
  | "gain_identity", _ -> Some (gain_identity_fails ~case_seed)
  | "oracle_split", _ -> Some (oracle_split_fails ~case_seed)
  | "candidates_identity", _ -> Some (candidates_identity_fails ~case_seed)
  | "window_vs_global", _ -> Some (window_differs ~case_seed)
  | "window_forge", _ -> Some (window_differs ~case_seed ~forge:true)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

type case_outcome = {
  co_failures : failure list;
  co_checks : int;
  co_splits : int;
  co_window_checks : int;
  co_accepts : int;
  co_shrink_steps : int;
  co_consumed : bool;  (** the armed fault was consumed by this case *)
  co_detected : bool;  (** ... and the corruption was caught *)
}

let record_failure ~config ~case_seed ~case ~kind ~detail ~injected circ =
  Metrics.incr failures_c;
  let shrunk, (st : Shrink.stats) =
    match predicate_for ~case_seed ~kind ~injected with
    | Some failing ->
      Shrink.minimize ~max_steps:config.shrink_max_steps
        ~deadline:(Obs.Deadline.after ~seconds:15.0)
        ~failing circ
    | None ->
      let g = Circuit.gate_count circ in
      (circ, { Shrink.steps = 0; tried = 0; initial_gates = g; final_gates = g })
  in
  let bundle_path =
    match config.out_dir with
    | None -> None
    | Some dir ->
      let b =
        {
          Bundle.campaign_seed = config.seed;
          case_seed;
          case;
          kind;
          detail;
          injected = Option.map Bundle.fault_name injected;
          blif = Blif.Blif_io.circuit_to_string shrunk;
          original_gates = st.initial_gates;
          shrunk_gates = st.final_gates;
          shrink_steps = st.steps;
        }
      in
      Some (Bundle.save ~dir b)
  in
  {
    case;
    kind;
    detail;
    gates = st.final_gates;
    shrink_steps = st.steps;
    bundle_path;
  }

let run_case ~config ~deadline ~inject ~forge i =
  let case_seed = Rng.derive config.seed (Printf.sprintf "case-%d" i) in
  let spec = Gen.spec_of_seed ~max_ins:config.max_ins case_seed in
  let base = Gen.base spec in
  let circ = Gen.generate spec in
  let failures = ref [] in
  let fail ?injected kind detail =
    failures :=
      record_failure ~config ~case_seed ~case:i ~kind ~detail ~injected circ
      :: !failures
  in
  (* generator properties *)
  (match Circuit.validate circ with
  | Error e -> fail "generator_invalid" e
  | Ok () ->
    if not (equivalent ~seed:case_seed base circ) then
      fail "mutation_changed_function"
        (Printf.sprintf "mutations [%s] changed the I/O function"
           (String.concat "; " (List.map Gen.mutation_name spec.mutations))));
  (* differential oracle *)
  let checks = ref 0 and splits = ref 0 and wchecks = ref 0 in
  let detected = ref false in
  let cands =
    match candidates_of ~case_seed ~words:pred_words circ config.candidates_per_case with
    | eng, cands -> List.map (fun c -> (eng, c)) cands
    | exception Identity_failed msg ->
      fail "candidates_identity" msg;
      []
  in
  (* armed once per case: the forge fires on the first windowed check
     whose honest verdict is a refutation *)
  if forge then Powder.Check.inject_window_forge ();
  List.iter
    (fun (eng, (s, _)) ->
      if not (Powder.Subst.creates_cycle circ s) then begin
        let r = Oracle.check ~deadline circ s in
        incr checks;
        if r.Oracle.split then begin
          incr splits;
          fail "oracle_split"
            (Printf.sprintf "backends disagreed on %s%s"
               (Powder.Subst.describe circ s)
               (match r.Oracle.resolved_by with
               | Some b -> "; resolved by " ^ Oracle.backend_name b
               | None -> "; unresolved"))
        end;
        if r.Oracle.final = Oracle.Yes && Powder.Check.refuted_on_patterns eng s
        then
          fail "proof_vs_patterns"
            (Printf.sprintf "proven permissible yet refuted on patterns: %s"
               (Powder.Subst.describe circ s));
        (* windowed-vs-global differential: a window proof must never
           contradict a decided global refutation; escalations carry no
           claim, so there is nothing to compare *)
        match
          Powder.Check.windowed ~deadline ~max_cut:pred_window_cut circ s
        with
        | Powder.Check.W_escalated _ -> incr wchecks
        | Powder.Check.W_proved ->
          incr wchecks;
          if r.Oracle.final = Oracle.No && not r.Oracle.split then
            if forge then begin
              detected := true;
              fail "window_forge"
                (Printf.sprintf "forged window proof caught on %s"
                   (Powder.Subst.describe circ s))
            end
            else
              fail "window_vs_global"
                (Printf.sprintf "window proved but global refuted: %s"
                   (Powder.Subst.describe circ s))
        | exception e ->
          fail "window_crash"
            (Printf.sprintf "windowed check raised %s on %s"
               (Printexc.to_string e)
               (Powder.Subst.describe circ s))
      end)
    cands;
  let forge_consumed = forge && not (Powder.Check.window_forge_armed ()) in
  Powder.Check.clear_window_forge ();
  (* optimizer metamorphic run *)
  let pre = Circuit.clone circ in
  let opt = Circuit.clone circ in
  let ocfg =
    opt_config ~case_seed
      ~words:(if inject <> None then 1 else config.words)
      ~verify:(inject = None)
  in
  (match inject with Some f -> Guard.inject f | None -> ());
  let opt_result =
    match Optimizer.optimize ~config:ocfg opt with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let consumed =
    match inject with None -> false | Some f -> not (Guard.take_fault f)
  in
  Guard.clear_injection ();
  let accepts = ref 0 in
  (match opt_result with
  | Error msg -> fail "optimizer_crash" ("optimizer raised: " ^ msg)
  | Ok r -> (
    accepts := r.Optimizer.funnel.substitutions;
    let invalid =
      match Circuit.validate opt with Error e -> Some e | Ok () -> None
    in
    let equiv = equivalent ~seed:case_seed pre opt in
    match (invalid, equiv) with
    | None, true ->
      if inject = None && not (gain_identity_holds r) then
        fail "gain_identity"
          (Printf.sprintf "class gains sum to %g but power delta is %g"
             (List.fold_left
                (fun a (_, st) -> a +. st.Optimizer.power_gain)
                0.0 r.Optimizer.by_class)
             (r.Optimizer.initial_power -. r.Optimizer.final_power))
    | invalid, equiv -> (
      let why =
        match invalid with
        | Some e -> "validate failed: " ^ e
        | None -> if equiv then "" else "PO signatures changed"
      in
      match inject with
      | Some f when consumed ->
        detected := true;
        fail ~injected:f "injected_corruption"
          (Printf.sprintf "fault %s slipped past the disabled guard (%s)"
             (Bundle.fault_name f) why)
      | _ -> fail "optimizer_broke_equivalence" why)));
  (* an armed fault that was consumed without breaking anything the
     harness can see is itself a finding: the detection net has a hole *)
  if inject <> None && consumed && not !detected then
    fail "missed_injection"
      "fault consumed but the corruption was not observable";
  {
    co_failures = List.rev !failures;
    co_checks = !checks;
    co_splits = !splits;
    co_window_checks = !wchecks;
    co_accepts = !accepts;
    co_shrink_steps =
      List.fold_left (fun a (f : failure) -> a + f.shrink_steps) 0 !failures;
    co_consumed = consumed || forge_consumed;
    co_detected = !detected;
  }

let run config =
  let t0 = Obs.Clock.now () in
  let deadline = Obs.Deadline.of_option config.budget_seconds in
  (* a campaign needs some bound: cap cases when both dials are open *)
  let case_cap =
    if config.cases > 0 then config.cases
    else if config.budget_seconds <> None then max_int
    else 50
  in
  let pending = ref config.inject in
  (* a forged window verdict can be consumed harmlessly (the lie lands
     on a spurious window cex whose candidate was globally permissible
     anyway), so the forge re-arms until the differential actually
     catches it *)
  let pending_forge = ref config.forge_window in
  let caught = ref false in
  let failures = ref [] in
  let cases_run = ref 0 in
  let checks = ref 0 and splits = ref 0 and accepts = ref 0 in
  let window_checks = ref 0 in
  let shrink_steps = ref 0 in
  (* Injection campaigns race on the process-global one-shot faults in
     [Guard] / [Atpg.Window], so they stay sequential; so does a
     harness nested inside a pool task (the pool rejects nested
     submission). *)
  let jobs =
    if config.inject <> None || config.forge_window || Par.Pool.in_task () then
      1
    else max 1 config.jobs
  in
  let consume o =
    Metrics.incr cases_c;
    incr cases_run;
    failures := !failures @ o.co_failures;
    checks := !checks + o.co_checks;
    splits := !splits + o.co_splits;
    window_checks := !window_checks + o.co_window_checks;
    accepts := !accepts + o.co_accepts;
    shrink_steps := !shrink_steps + o.co_shrink_steps;
    if o.co_consumed then
      if config.forge_window then begin
        if o.co_detected then begin
          caught := true;
          pending_forge := false
        end
      end
      else begin
        pending := None;
        if o.co_detected then caught := true
      end
  in
  (if jobs = 1 then (
     let i = ref 0 in
     while !i < case_cap && not (Obs.Deadline.expired deadline) do
       consume
         (run_case ~config ~deadline ~inject:!pending ~forge:!pending_forge !i);
       incr i
     done)
   else
     (* One case per domain, in waves of [jobs].  Cases are mutually
        independent (each builds its own circuits and engines and
        writes its own bundle files), so outcomes are simply consumed
        in case order — same aggregation, same report, any job count.
        A case whose task was cancelled by the budget deadline never
        ran; consumption stops at the first one, like the sequential
        loop stops at expiry. *)
     Par.Pool.with_pool ~jobs (fun pool ->
         let i = ref 0 in
         let stop = ref false in
         while (not !stop) && !i < case_cap && not (Obs.Deadline.expired deadline)
         do
           let wave = min jobs (case_cap - !i) in
           let base = !i in
           let outs =
             Par.Pool.map pool ~deadline
               ~f:(fun idx ->
                 run_case ~config ~deadline ~inject:None ~forge:false idx)
               (Array.init wave (fun k -> base + k))
           in
           Array.iter
             (fun o ->
               match o with
               | Some o when not !stop -> consume o
               | _ -> stop := true)
             outs;
           i := base + wave
         done));
  {
    cases_run = !cases_run;
    checks = !checks;
    oracle_splits = !splits;
    window_checks = !window_checks;
    accepts = !accepts;
    failures = !failures;
    shrink_steps = !shrink_steps;
    injected_caught = !caught;
    jobs;
    elapsed_seconds = Obs.Clock.now () -. t0;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>fuzz: %d cases in %.1fs (jobs %d)@,\
     oracle: %d checks, %d splits@,\
     window: %d differential checks@,\
     optimizer: %d accepted substitutions@,\
     failures: %d (shrink steps %d)@,"
    r.cases_run r.elapsed_seconds r.jobs r.checks r.oracle_splits
    r.window_checks r.accepts (List.length r.failures) r.shrink_steps;
  List.iter
    (fun f ->
      Format.fprintf fmt "  case %d: %s (%d gates%s)%s@," f.case f.kind f.gates
        (if f.shrink_steps > 0 then
           Printf.sprintf ", %d shrink steps" f.shrink_steps
         else "")
        (match f.bundle_path with Some p -> " -> " ^ p | None -> ""))
    r.failures;
  Format.fprintf fmt "@]"

let report_to_json r =
  Json.Obj
    [
      ("cases_run", Json.Int r.cases_run);
      ("checks", Json.Int r.checks);
      ("oracle_splits", Json.Int r.oracle_splits);
      ("window_checks", Json.Int r.window_checks);
      ("accepts", Json.Int r.accepts);
      ("shrink_steps", Json.Int r.shrink_steps);
      ("injected_caught", Json.Bool r.injected_caught);
      ("jobs", Json.Int r.jobs);
      ("elapsed_seconds", Json.Float r.elapsed_seconds);
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("case", Json.Int f.case);
                   ("kind", Json.String f.kind);
                   ("detail", Json.String f.detail);
                   ("gates", Json.Int f.gates);
                   ("shrink_steps", Json.Int f.shrink_steps);
                   ( "bundle",
                     match f.bundle_path with
                     | Some p -> Json.String p
                     | None -> Json.Null );
                 ])
             r.failures) );
    ]

let replay path =
  match Bundle.load path with
  | Error e -> Error ("cannot load bundle: " ^ e)
  | Ok b -> (
    match Bundle.circuit b with
    | Error e -> Error ("cannot parse bundled BLIF: " ^ e)
    | Ok c -> (
      let injected = Option.bind b.Bundle.injected Bundle.fault_of_name in
      match predicate_for ~case_seed:b.Bundle.case_seed ~kind:b.Bundle.kind ~injected with
      | None -> Error (Printf.sprintf "kind %S is not replayable" b.Bundle.kind)
      | Some failing ->
        if failing c then
          Ok
            (Printf.sprintf "failure %s reproduced on %d gates" b.Bundle.kind
               (Circuit.gate_count c))
        else
          Error
            (Printf.sprintf "failure %s did not reproduce" b.Bundle.kind)))
