(** Sum-of-products covers: a list of {!Cube.t} over [num_vars]
    variables.  Used as the input format of the synthesis flow and as
    the function representation of [.names] nodes in BLIF. *)

type t

val create : int -> Cube.t list -> t
(** Contradictory cubes are dropped. *)

val num_vars : t -> int
val cubes : t -> Cube.t list
val num_cubes : t -> int
val num_literals : t -> int

val const_false : int -> t
val const_true : int -> t

val eval : t -> int -> bool
(** Value on a minterm. *)

val to_tt : t -> Tt.t
(** Only for [num_vars <= Tt.max_vars]. *)

val of_tt : Tt.t -> t
(** Minterm-canonical cover (one cube per ON-minterm), then merged. *)

val complement_naive : t -> t
(** De-Morgan expansion with single-cube containment cleanup; meant for
    covers with few cubes (library cells, BLIF nodes). *)

val minimize : t -> t
(** Cheap cover cleanup: drop contained cubes, apply distance-1 merges
    to a fixpoint.  Not a full ESPRESSO; deterministic. *)

val tautology : t -> bool
(** Is the cover identically true?  Unate-recursion (cofactor on the
    most binate variable with unate shortcuts). *)

val covers_cube : t -> Cube.t -> bool
(** [covers_cube t c]: is every minterm of [c] in the cover?  (The
    cover cofactored by [c] is a tautology.) *)

val espresso : t -> t
(** EXPAND (literal removal validated by tautology-based containment)
    followed by IRREDUNDANT (drop cubes covered by the rest), iterated
    to a fixpoint.  Single-output, no external don't-care set;
    deterministic.  Function-preserving for any arity. *)
