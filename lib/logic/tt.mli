(** Truth tables over at most {!max_vars} variables, packed in one [int64].

    A table [t] with [n] vars assigns a bit to every minterm
    [m in 0 .. 2^n - 1]; bit [m] of the word is the function value when
    variable [i] takes bit [i] of [m].  All operations are total on
    tables of equal arity; combining tables of different arities raises
    [Invalid_argument]. *)

type t

val max_vars : int
(** Maximum supported number of variables (6). *)

val create : int -> int64 -> t
(** [create n word] is the table over [n] vars whose minterm bits are the
    low [2^n] bits of [word].  Higher bits are ignored.
    @raise Invalid_argument if [n < 0 || n > max_vars]. *)

val num_vars : t -> int

val word : t -> int64
(** Raw minterm word, masked to the low [2^n] bits. *)

val const_false : int -> t
val const_true : int -> t

val var : int -> int -> t
(** [var n i] is the projection on variable [i] among [n] vars. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val nand : t -> t -> t

val eval : t -> bool array -> bool
(** [eval t inputs] with [Array.length inputs = num_vars t]. *)

val eval_int : t -> int -> bool
(** [eval_int t m] is bit [m] of the table. *)

val is_const_false : t -> bool
val is_const_true : t -> bool

val equal : t -> t -> bool

val cofactor : int -> bool -> t -> t
(** [cofactor i v t] fixes variable [i] to [v]; arity is preserved (the
    result no longer depends on var [i]). *)

val depends_on : t -> int -> bool

val support : t -> int list
(** Variables the function actually depends on, ascending. *)

val count_ones : t -> int
(** Number of satisfying minterms. *)

val permute : t -> int array -> t
(** [permute t perm] renames variable [i] of [t] to [perm.(i)].
    [perm] must be a permutation of [0 .. num_vars t - 1]. *)

val project : t -> int list -> t
(** [project t vars] is the table over [List.length vars] variables
    obtained by keeping only [vars] (which must contain the support of
    [t], ascending); new variable [i] is old variable [List.nth vars i]. *)

val of_minterms : int -> int list -> t
(** [of_minterms n ms] has exactly the minterms [ms] set. *)

val minterms : t -> int list

val to_string : t -> string
(** Hex minterm word, e.g. ["6:0x8000000000000001"]. *)

val pp : Format.formatter -> t -> unit
