(** Allocation-free bit kernels for simulation signatures.

    All word-vector operations assume the operands have equal length
    (the signature word count is uniform across a store); none of them
    allocate on the OCaml heap beyond the boxed [Int64] reads, which is
    what makes them fit the candidate-generation hot loop. *)

val popcount32 : int -> int
(** Population count of a native int known to fit in 32 bits. *)

val popcount64 : int64 -> int

val popcount_words : int64 array -> int
(** Total set bits across all words. *)

val equal_words : int64 array -> int64 array -> bool
(** Exact word-for-word equality (lengths must match too). *)

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
