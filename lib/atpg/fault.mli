(** Single stuck-at faults on a mapped netlist: a stem (gate output)
    or a branch (one fanout pin) stuck at 0 or 1. *)

type site =
  | Stem of Netlist.Circuit.node_id
  | Branch of Netlist.Circuit.node_id * int  (** sink node, pin index *)

type t = { site : site; stuck_at : bool }

val stem : Netlist.Circuit.node_id -> bool -> t
val branch : sink:Netlist.Circuit.node_id -> pin:int -> bool -> t

val all_faults : Netlist.Circuit.t -> t list
(** Both polarities on every live stem and, for multi-fanout stems, on
    every branch. *)

val to_string : Netlist.Circuit.t -> t -> string
