(** A compact CDCL SAT solver used for the exact permissibility check
    on circuits too wide for exhaustive simulation.

    Features: two-watched-literal propagation, first-UIP clause
    learning with backjumping, VSIDS-style activities, geometric
    restarts, and a conflict budget (exceeding it reports [Timeout],
    which POWDER maps to "not proven permissible" just as the paper
    maps ATPG aborts).

    Literal encoding: variable [v >= 0], literal [2*v] (positive) or
    [2*v + 1] (negated).

    {b Memory.} The solver stores only ints: every clause lives in one
    growable [int array] arena (a length word, then the literals), each
    literal's watch list is an int stack of clause offsets, reasons are
    offsets, and values are read from a literal-indexed array.

    {b Pinned trajectory.} The search is a pure function of the clause
    list: same load order, sorted and de-duplicated literals, the same
    watch order (a propagation re-pushes the watchers it keeps in visit
    order, then on a conflict the unvisited rest), the same first-UIP
    literal order, stable level sort, decision heap, restarts and
    limits.  A satisfiable miter's model becomes the counterexample
    the optimizer folds into its signatures and reports, so any change
    to the search changes outputs; the test suite pins verdicts, models
    and conflict counts on random 3-CNF and on real cps miters. *)

type give_up =
  | Conflicts  (** the conflict budget ran out *)
  | Deadline   (** the wall-clock deadline expired *)

type result =
  | Sat of bool array  (** model indexed by variable *)
  | Unsat
  | Timeout of give_up
      (** gave up without an answer; the payload says which limit fired *)

val pp_give_up : Format.formatter -> give_up -> unit

val lit_of : int -> bool -> int

val stall_conflicts : int
(** The conflict count at which {!solve} calls its [on_stall] hook: 1,
    the first conflict at a nonzero decision level. *)

val solve :
  ?conflict_limit:int ->
  ?deadline:Obs.Deadline.t ->
  ?on_stall:(unit -> bool) ->
  num_vars:int ->
  int array list ->
  result
(** Clauses are arrays of literals.  An empty clause makes the problem
    trivially UNSAT.  [deadline] is polled every few dozen conflicts, so
    expiry is detected within one propagation burst, not instantly.
    [on_stall] runs once, when the search reaches {!stall_conflicts}
    conflicts (and only if [conflict_limit] lets it get there): [true]
    means the caller proved the problem UNSAT some other way, and
    [solve] returns [Unsat] at once; [false] resumes the paused search
    exactly where it stood, so its trajectory, model and verdict are
    those of a search without the hook.
    @raise Invalid_argument if a literal's variable is outside
    [0 .. num_vars - 1]. *)
