(** Reduced ordered binary decision diagrams — the "global BDD"
    technology the paper positions itself against (its Section 1: other
    don't-care-exploiting methods require global BDDs; POWDER does not).
    Implemented as a baseline so the benchmark can compare BDD-based
    equivalence checking with the ATPG/SAT route.

    A manager owns the unique table and computed cache; nodes are
    hash-consed, so two equal functions are the same node.  Variables
    are ordered by their integer index.  A node budget guards against
    the exponential blow-ups (multipliers!) that motivated the paper's
    choice. *)

type manager
type t  (** a BDD handle; only meaningful with its manager *)

exception Node_limit_exceeded

val manager : ?node_limit:int -> unit -> manager
(** Default limit 1_000_000 live nodes; exceeding it raises
    {!Node_limit_exceeded} from the constructor that crossed it. *)

val bdd_true : manager -> t
val bdd_false : manager -> t
val var : manager -> int -> t

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor : manager -> t -> t -> t
val ite : manager -> t -> t -> t -> t

val equal : t -> t -> bool
(** Constant-time: hash-consing makes equal functions identical. *)

val is_true : manager -> t -> bool
val is_false : manager -> t -> bool

val eval : manager -> t -> (int -> bool) -> bool
val size : manager -> t -> int
(** Nodes reachable from this root. *)

val any_sat : manager -> t -> (int * bool) list option
(** A satisfying partial assignment (variable, value), or [None] for
    the constant-false function. *)

val sat_fraction : manager -> t -> num_vars:int -> float
(** Fraction of the [2^num_vars] minterms that satisfy the function —
    exact signal probability under uniform inputs. *)
