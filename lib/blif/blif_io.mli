(** BLIF-subset reader/writer.

    Logic networks use [.model/.inputs/.outputs/.names/.end] with
    PLA-style rows (['0' '1' '-'] columns, output column ['1'] for
    on-set rows or ['0'] for off-set rows — a node mixes only one kind).
    Mapped netlists use [.gate <cell> <pin>=<net> ... O=<net>] lines,
    where cell pins are positionally named [a b c d e f] and the output
    pin is [O].  Line continuations with [\ ] are handled; [#] starts a
    comment. *)

type parse_error = {
  line : int;      (** 1-based physical line where the logical line began;
                       0 when the error has no single source line (e.g.
                       network validation, gate ordering) *)
  context : string;  (** the offending logical line (clipped) or signal *)
  message : string;
}

val error_to_string : parse_error -> string
(** ["line N: <message> (in <context>)"], omitting absent parts. *)

val network_of_string : string -> (Aig.Network.t, parse_error) result
val network_of_file : string -> (Aig.Network.t, parse_error) result
(** An unreadable file is a [line = 0] error ["cannot read file: ..."];
    the [_of_file] readers never raise. *)

val network_to_string : Aig.Network.t -> string

val circuit_of_string :
  Gatelib.Library.t -> string -> (Netlist.Circuit.t, parse_error) result
(** A name defined twice (two PIs, constants or gate outputs sharing
    it, or a repeated output) is an error on the line of its second
    definition. *)

val circuit_of_file :
  Gatelib.Library.t -> string -> (Netlist.Circuit.t, parse_error) result
val circuit_to_string : Netlist.Circuit.t -> string
val circuit_to_file : string -> Netlist.Circuit.t -> unit

val pin_name : int -> string
(** Positional pin naming used in [.gate] lines: 0 -> "a", 1 -> "b", … *)
