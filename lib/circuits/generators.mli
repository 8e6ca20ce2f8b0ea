(** Benchmark-circuit function generators.

    Where an MCNC circuit's function is public knowledge (comparators,
    symmetric rd/sym functions, the 74181 ALU, rotators, parity/Hamming
    networks), the generator reproduces that function; otherwise a
    deterministic seeded two-level (PLA) or multi-level network of
    comparable dimensions stands in.  All generators are pure and
    deterministic. *)

val comparator : width:int -> Aig.Graph.t
(** [gt]/[eq]/[lt] of two unsigned words. *)

val square_plus : width:int -> Aig.Graph.t
(** Arithmetic: low bits of [x*x + x] (z5xp1-style). *)

val clip : in_bits:int -> out_bits:int -> Aig.Graph.t
(** Saturate an unsigned value to [2^out_bits - 1]. *)

val rd : inputs:int -> Aig.Graph.t
(** Symmetric "rate detector": outputs = binary weight of the input
    (rd73, rd84). *)

val sym9 : unit -> Aig.Graph.t
(** 9 inputs; 1 iff between 3 and 6 inputs are high (9sym). *)

val sym9_twolevel : unit -> Aig.Graph.t
(** Same function from its minterm-interval expansion (9symml-style
    alternative structure). *)

val alu181 : unit -> Aig.Graph.t
(** The 74181 4-bit ALU: inputs a0-3, b0-3, s0-3, m, cn; outputs f0-3,
    cout, aeqb, px, gx (alu4's function). *)

val alu_small : unit -> Aig.Graph.t
(** 4-bit ALU with 2 op-select bits: add/and/or/xor (alu2-scale). *)

val priority_interrupt : unit -> Aig.Graph.t
(** 27 request lines gated by 9 enables, grouped 3x9, with group
    priority and an encoded grant (C432-style). *)

val alu8 : unit -> Aig.Graph.t
(** 8-bit ALU with 3 op bits: add/sub/and/or/xor/shl/rot/pass
    (C880-scale). *)

val hamming : unit -> Aig.Graph.t
(** 21-bit received word (16 data + 5 checks): syndrome computation and
    single-error correction (C1355-style XOR-rich network). *)

val rotator : width:int -> Aig.Graph.t
(** Barrel rotator (rot-style). *)

val dual_alu : unit -> Aig.Graph.t
(** Two 8-bit lanes sharing op-select, combined by a final comparator
    (dalu-flavoured). *)

val multiplier : width:int -> Aig.Graph.t
(** Low [2*width] bits of an unsigned multiply (f51m-scale at 4). *)

val adder_pair : width:int -> Aig.Graph.t
(** Two independent adders plus a cross-checksum (pair-flavoured). *)

val feistel : unit -> Aig.Graph.t
(** Two toy Feistel rounds with seeded 4->4 S-boxes over 16+16 data and
    16 key bits (des-flavoured). *)

val pla :
  seed:int -> ins:int -> outs:int -> cubes:int -> lit_lo:int -> lit_hi:int ->
  Aig.Graph.t
(** Seeded random two-level network: shared cube pool, each cube feeds
    one to three outputs. *)

val synth : seed:int -> gates:int -> Netlist.Circuit.t
(** Synthetic mapped circuit of roughly [gates] live cells, built
    directly on {!Gatelib.Library.lib2} (no tech-mapping pass): layered
    two-input gates with locality-biased fanins, deliberately seeded
    duplicate gates (so POWDER's signature matching finds work), and
    OR-reduction trees folding every dangling signal into the primary
    outputs.  Pure and deterministic in [(seed, gates)].  This is the
    10k/100k-gate scale-benchmark family. *)

val multilevel :
  seed:int -> ins:int -> outs:int -> layers:int -> per_layer:int -> fanin:int ->
  Aig.Graph.t
(** Seeded random multi-level network of small SOP nodes. *)

val sym9_chain : unit -> Aig.Graph.t
(** Third structure of the 9sym function: serial bit-by-bit counting
    (9symml stand-in). *)

val t481_bloated : unit -> Aig.Graph.t
(** The same t481-style function Shannon-expanded into four structurally
    distinct cofactor copies behind a mux tree: a deliberately redundant
    starting point mirroring how the paper's t481 row collapses. *)
