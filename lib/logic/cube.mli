(** Cubes (product terms) over up to 62 variables.

    A cube stores two bitmasks: variables appearing positively and
    variables appearing negatively.  A variable present in both masks
    makes the cube contradictory (identically false). *)

type t = { pos : int; neg : int }

val universe : t
(** The empty product (constant true). *)

val of_literals : (int * bool) list -> t
(** [(i, phase)] adds literal [x_i] ([phase = true]) or [x_i'] to the
    product. *)

val literals : t -> (int * bool) list
(** Ascending by variable index. *)

val is_contradictory : t -> bool
val num_literals : t -> int
val eval : t -> int -> bool
(** [eval c m]: value of the product on minterm [m] (bit [i] of [m] is
    the value of variable [i]). *)

val contains : t -> t -> bool
(** [contains a b] iff every minterm of [b] is a minterm of [a]
    (i.e. [a]'s literals are a subset of [b]'s). *)

val intersect : t -> t -> t option
(** Product of two cubes, [None] if contradictory. *)

val distance : t -> t -> int
(** Number of variables on which the cubes have opposite literals. *)

val merge : t -> t -> t option
(** Consensus merge when distance is 1 and other literals agree:
    [ab + ab' = a]. *)

val to_tt : int -> t -> Tt.t
val to_string : int -> t -> string
(** PLA-style string of the first [n] variables, e.g. ["1-0"]. *)

val of_string : string -> t
(** Inverse of {!to_string}; accepts ['0'], ['1'], ['-']/['x'].
    @raise Invalid_argument on other characters. *)
