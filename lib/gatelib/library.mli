(** A gate library: an ordered collection of {!Cell.t} with lookup and
    boolean-matching helpers, plus the built-in [lib2]-style library used
    by the benchmarks. *)

type t

val of_cells : Cell.t list -> t
(** @raise Invalid_argument on duplicate cell names or an empty list. *)

val cells : t -> Cell.t list
val find : t -> string -> Cell.t
(** @raise Not_found *)

val find_opt : t -> string -> Cell.t option
val mem : t -> string -> bool

val inverter : t -> Cell.t
(** The cheapest (by area) cell computing [NOT x].
    @raise Not_found if the library has none. *)

val two_input_cells : t -> Cell.t list
(** All cells of arity 2 whose function depends on both inputs; these
    are the gates OS3/IS3 substitutions may insert. *)

val match_tt : t -> Logic.Tt.t -> (Cell.t * int array) list
(** [match_tt lib f] lists cells [c] (with [arity c = Tt.num_vars f])
    and permutations [perm] such that connecting signal [i] of [f]'s
    input list to cell pin [perm.(i)] realizes [f].  Cheapest (area)
    first. *)

val match_tt_best : t -> Logic.Tt.t -> (Cell.t * int array) option

val default_po_load : float
(** Capacitive load assumed on every primary output (1.0). *)

val lib2 : t
(** Built-in library in the spirit of MCNC [lib2.genlib]: inverter,
    buffer, NAND/NOR/AND/OR 2-4, XOR2/XNOR2, AOI/OAI 21/22, MUX2.
    XOR-class pins carry twice the input capacitance of NAND-class pins,
    matching the worked example of the paper (Figure 2). *)

val lib2_sized : t
(** {!lib2} extended with 2x-drive ("_2x") and half-drive ("_h")
    variants of every cell, for the gate-resizing baseline. *)

val minimal : t
(** Tiny library (INV, NAND2, AND2, OR2, XOR2) for focused tests. *)
