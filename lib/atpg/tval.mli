(** Three-valued logic values for test generation, and the composite
    good/faulty pair that forms the classic five-valued D-calculus
    (0, 1, X, D = 1/0, D' = 0/1). *)

type v3 = V0 | V1 | VX

val v3_of_bool : bool -> v3
val to_char : v3 -> char

type t = { good : v3; faulty : v3 }

val x : t
val of_bool : bool -> t
val d : t
(** good 1 / faulty 0 *)

val is_d_or_dbar : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val eval_cell : Logic.Tt.t -> v3 array -> v3
(** Three-valued cell evaluation: definite iff all completions of the X
    inputs agree.  Arity at most {!Logic.Tt.max_vars}. *)
