module Circuit = Netlist.Circuit
module Engine = Sim.Engine
module Library = Gatelib.Library
module Metrics = Obs.Metrics

type error =
  | Check_timeout
  | Apply_mismatch
  | Validation_failure
  | Budget_exhausted

let error_name = function
  | Check_timeout -> "check_timeout"
  | Apply_mismatch -> "apply_mismatch"
  | Validation_failure -> "validation_failure"
  | Budget_exhausted -> "budget_exhausted"

let m_rollbacks = Metrics.counter "powder.guard.rollbacks"
let m_verified = Metrics.counter "powder.guard.verified_applies"
let m_check_timeout = Metrics.counter "powder.guard.errors.check_timeout"
let m_apply_mismatch = Metrics.counter "powder.guard.errors.apply_mismatch"
let m_validation_failure = Metrics.counter "powder.guard.errors.validation_failure"
let m_budget_exhausted = Metrics.counter "powder.guard.errors.budget_exhausted"

let count_error = function
  | Check_timeout -> Metrics.incr m_check_timeout
  | Apply_mismatch -> Metrics.incr m_apply_mismatch
  | Validation_failure -> Metrics.incr m_validation_failure
  | Budget_exhausted -> Metrics.incr m_budget_exhausted

(* ------------------------------------------------------------------ *)
(* Fault injection (test-only).                                        *)
(* ------------------------------------------------------------------ *)

type fault = Forge_verdict | Corrupt_apply | Expire_deadline

let injected : fault option ref = ref None
let inject f = injected := Some f
let clear_injection () = injected := None

let take_fault f =
  if !injected = Some f then begin
    injected := None;
    true
  end
  else false

(* Guaranteed-detectable corruption: invert the first primary output's
   driver.  The verifier's PO signatures then differ on every pattern,
   so detection does not depend on which random patterns the verifier
   happens to hold. *)
let corrupt circ =
  match Circuit.pos circ with
  | [] -> ()
  | po :: _ ->
    let d = Circuit.po_driver circ po in
    let inv = Library.inverter (Circuit.library circ) in
    let n = Circuit.add_cell circ inv [| d |] in
    Circuit.set_fanin circ po 0 n

(* ------------------------------------------------------------------ *)
(* Transactional apply.                                                *)
(* ------------------------------------------------------------------ *)

type verifier = {
  eng : Engine.t;
  mutable expected : (string * int64 array) list;
}

let make_verifier ~seed ~input_probs circ =
  let eng = Engine.create circ ~words:8 in
  Engine.randomize eng ~input_probs (Sim.Rng.create seed);
  { eng; expected = Engine.po_signatures eng }

let same_signatures a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, sa) (nb, sb) ->
         String.equal na nb
         && Array.length sa = Array.length sb
         && Array.for_all2 Int64.equal sa sb)
       a b

type apply_outcome = Applied of Circuit.node_id | Rolled_back of error

let rolled_back v circ err =
  Circuit.journal_rollback circ;
  (* Re-simulate so the verifier's state matches the restored netlist
     (the rolled-back edit may have touched nodes it simulated). *)
  Engine.resim_all v.eng;
  Metrics.incr m_rollbacks;
  count_error err;
  Rolled_back err

let transactional_apply v circ s =
  Circuit.journal_begin circ;
  match Subst.apply circ s with
  | exception Invalid_argument _ ->
    (* The apply itself refused (e.g. a cycle slipped past screening):
       nothing or only part of it happened; undo whatever did. *)
    rolled_back v circ Validation_failure
  | src -> (
    if take_fault Corrupt_apply then corrupt circ;
    match Circuit.validate circ with
    | Error _ -> rolled_back v circ Validation_failure
    | Ok () ->
      Engine.resim_all v.eng;
      let now = Engine.po_signatures v.eng in
      if same_signatures v.expected now then begin
        Circuit.journal_commit circ;
        v.expected <- now;
        Metrics.incr m_verified;
        Applied src
      end
      else rolled_back v circ Apply_mismatch)
