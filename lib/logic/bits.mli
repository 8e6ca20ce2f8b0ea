(** Allocation-free bit kernels for simulation signatures: flat
    unboxed word stores, their packing into 62-bit limbs in native ints,
    and popcounts. *)

val popcount62 : int -> int
(** Population count of a value known to fit in 62 bits (a packed
    limb). *)

val limb_mask : int
(** 62 set bits — the all-ones limb. *)

val pack_words : int64 array -> int array
(** Repacks the words as a stream of 62-bit limbs in native ints
    (lowest pattern bits first).  The position bijection is uniform
    across rows, so xor/and/popcount of packed rows equal the
    word-level results; it lets hot loops run entirely on unboxed
    ints. *)

val limbs_for_words : int -> int
(** Limbs {!pack_words} makes of that many words. *)

val unpack_words : int array -> int -> int64 array
(** [unpack_words p n]: the [n] words {!pack_words} packed into [p]. *)

(** {2 Flat word stores} *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed [int64] words side by side.  The kind and layout are part
    of the type, so [b.{i}] compiles to a plain load or store in any
    module (no [Int64] box per word), whatever the cross-module
    optimisation settings. *)

val words_create : int -> words
(** Zero-filled. *)

val words_to_array : words -> int -> int -> int64 array
(** [words_to_array b off len]: a copy of [len] words from [off]. *)

val popcount_slice : words -> int -> int -> int
(** [popcount_slice b off len]: set bits of [len] words from [off]. *)

val pack_slice : words -> int -> int -> int array -> int -> unit
(** [pack_slice b off len dst bit] packs [len] words from [off] into
    [dst] as {!pack_words} would, starting at packed bit position [bit]
    (so a row folded from several stores packs segment by segment:
    [bit] is 64 times the words already packed).  Ors into [dst], whose
    limbs from there on must be 0. *)
