(* Allocation-free bit kernels for the simulation hot paths.

   OCaml boxes an [Int64] that is passed to a call or stored in an
   [int64 array], so the trick throughout is to keep words in flat
   stores and to drop to native [int] arithmetic early: an [int64]
   is split into two 32-bit halves (each fits a 63-bit native int) and
   all the SWAR reduction happens in registers.  The signature store
   packs rows ([pack_slice]) straight out of the engines' flat word
   stores ([words]), candidate generation scores packed rows
   ([popcount62]), and the engine counts ones ([popcount_slice]). *)

(* popcount of a value known to fit in 32 bits *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

(* popcount of a value known to fit in 62 bits (a packed limb).  The
   usual 64-bit SWAR with masks truncated to OCaml's 63-bit ints; the
   multiply accumulates the byte sums mod 2^63, which preserves the
   top byte for any count < 128. *)
let popcount62 x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56 land 0x7F

let limb_mask = 0x3FFFFFFFFFFFFFFF (* 62 set bits *)

(* Flat unboxed word store: a [Bigarray] of [int64] with its kind and
   layout fixed in the type, so every read and write compiles to a plain
   load or store, also in a module that cannot inline this one. *)
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let words_create n : words =
  let b = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0L;
  b

let words_of_array a : words =
  Bigarray.Array1.of_array Bigarray.int64 Bigarray.c_layout a

let words_to_array (src : words) off len =
  Array.init len (fun j -> Bigarray.Array1.get src (off + j))

(* The popcount of a word spelled out on the unboxed read: a call
   taking the [int64] would box it *)
let popcount_slice (src : words) off len =
  let acc = ref 0 in
  for j = off to off + len - 1 do
    let x = Bigarray.Array1.get src j in
    acc :=
      !acc
      + popcount32 (Int64.to_int x land 0xFFFFFFFF)
      + popcount32 (Int64.to_int (Int64.shift_right_logical x 32))
  done;
  !acc

let limbs_for_words n = ((64 * n) + 61) / 62

(* int64 words repacked as a stream of 62-bit limbs living in native
   ints.  Pattern positions are redistributed but the bijection is the
   same for every row, so bitwise combination and popcount of packed
   rows are exactly the word-level results — and all the hot-loop
   arithmetic runs on unboxed ints. *)
let pack_slice (src : words) off len (dst : int array) bit =
  let li = ref (bit / 62) and fill = ref (bit mod 62) in
  for j = off to off + len - 1 do
    let w = ref (Bigarray.Array1.get src j) in
    let left = ref 64 in
    while !left > 0 do
      let t = min (62 - !fill) !left in
      let chunk =
        Int64.to_int
          (Int64.logand !w (Int64.sub (Int64.shift_left 1L t) 1L))
      in
      dst.(!li) <- dst.(!li) lor (chunk lsl !fill);
      fill := !fill + t;
      w := Int64.shift_right_logical !w t;
      left := !left - t;
      if !fill = 62 then begin
        incr li;
        fill := 0
      end
    done
  done

let pack_words (a : int64 array) =
  let out = Array.make (limbs_for_words (Array.length a)) 0 in
  pack_slice (words_of_array a) 0 (Array.length a) out 0;
  out

let unpack_words (p : int array) n =
  Array.init n (fun j ->
      let w = ref 0L in
      for b = 63 downto 0 do
        let pos = (64 * j) + b in
        w :=
          Int64.logor (Int64.shift_left !w 1)
            (Int64.of_int ((p.(pos / 62) lsr (pos mod 62)) land 1))
      done;
      !w)
