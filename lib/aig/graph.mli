(** And-Inverter Graphs with structural hashing and constant folding —
    the technology-independent form the synthesis flow optimizes before
    mapping.

    Literals encode node and phase: [lit = 2*node + (complemented ? 1 : 0)].
    Node 0 is the constant FALSE, so [lit 0] = false and [lit 1] = true. *)

type t
type lit = int

val create : unit -> t

val lit_false : lit
val lit_true : lit
val node_of : lit -> int
val is_complement : lit -> bool
val compl_ : lit -> lit
val lit_of_node : int -> bool -> lit

val add_pi : t -> string -> lit
val pis : t -> (string * lit) list

val and_ : t -> lit -> lit -> lit
(** Structural-hashed and constant-folded conjunction. *)

val or_ : t -> lit -> lit -> lit
val xor : t -> lit -> lit -> lit
val mux : t -> sel:lit -> t1:lit -> e0:lit -> lit
val and_list : t -> lit list -> lit
(** Balanced conjunction tree (empty list = true). *)

val or_list : t -> lit list -> lit
val xor_list : t -> lit list -> lit

val add_po : t -> string -> lit -> unit
val pos : t -> (string * lit) list

val num_nodes : t -> int
(** Allocated nodes including constants and PIs. *)

val num_ands : t -> int

val node_fanins : t -> int -> (lit * lit) option
(** [Some (l0, l1)] for an AND node, [None] for PI/const. *)

val pi_name : t -> int -> string option

val fanout_count : t -> int array
(** Structural fanout references per node (POs included). *)

val eval : t -> bool array -> (string * bool) list
(** Evaluate all POs for PI values given in [pis] order. *)

val level : t -> int array
(** Logic depth per node. *)

val pp_stats : Format.formatter -> t -> unit
