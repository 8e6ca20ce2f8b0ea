(** PODEM test generation on mapped netlists.

    Decisions are made on primary inputs only, guided by backtrace from
    the current objective; implication is three-valued forward
    simulation; a backtrack limit bounds the search (exceeding it
    yields [Aborted], which POWDER treats as "not permissible", exactly
    as the paper's [check_candidate] does). *)

type give_up =
  | Backtracks  (** the backtrack budget ran out *)
  | Deadline    (** the wall-clock deadline expired *)

type result =
  | Test of (Netlist.Circuit.node_id * bool) list
      (** Assigned PIs (unlisted PIs are don't-care). *)
  | Untestable
  | Aborted of give_up
      (** gave up without an answer; the payload says which limit fired *)

val pp_give_up : Format.formatter -> give_up -> unit

val generate_test :
  ?backtrack_limit:int ->
  ?deadline:Obs.Deadline.t ->
  Netlist.Circuit.t ->
  Fault.t ->
  result
(** Find a test for a single stuck-at fault.  [Untestable] proves the
    fault redundant. *)

val justify_one :
  ?backtrack_limit:int ->
  ?deadline:Obs.Deadline.t ->
  Netlist.Circuit.t ->
  Netlist.Circuit.node_id ->
  result
(** Find a PI assignment setting the given signal to 1; [Untestable]
    proves the signal is constant 0.  Used on miter outputs for the
    permissibility check. *)

