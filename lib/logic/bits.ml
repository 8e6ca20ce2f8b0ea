(* Allocation-free bit kernels for the simulation hot paths.

   OCaml boxes every [Int64] intermediate, so the trick throughout is
   to drop to native [int] arithmetic as early as possible: an [int64]
   is split into two 32-bit halves (each fits a 63-bit native int) and
   all the SWAR reduction happens in registers.  The signature store
   packs and compares rows ([pack_words], [equal_words]), candidate
   generation scores packed rows ([popcount62]), and the engine and
   the power model count ones ([popcount_words]). *)

(* popcount of a value known to fit in 32 bits *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let popcount64 (x : int64) =
  let lo = Int64.to_int x land 0xFFFFFFFF in
  let hi = Int64.to_int (Int64.shift_right_logical x 32) land 0xFFFFFFFF in
  popcount32 lo + popcount32 hi

(* popcount of an array of words *)
let popcount_words (a : int64 array) =
  let acc = ref 0 in
  for j = 0 to Array.length a - 1 do
    acc := !acc + popcount64 (Array.unsafe_get a j)
  done;
  !acc

let equal_words (a : int64 array) (b : int64 array) =
  let n = Array.length a in
  let rec go j =
    j >= n || (Int64.equal (Array.unsafe_get a j) (Array.unsafe_get b j) && go (j + 1))
  in
  n = Array.length b && go 0

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

(* int64 words repacked as a stream of 62-bit limbs living in native
   ints.  Pattern positions are redistributed but the bijection is the
   same for every row, so bitwise combination and popcount of packed
   rows are exactly the word-level results — and all the hot-loop
   arithmetic runs on unboxed ints. *)
let pack_words (a : int64 array) =
  let nbits = 64 * Array.length a in
  let nlimbs = (nbits + 61) / 62 in
  let out = Array.make nlimbs 0 in
  let li = ref 0 and fill = ref 0 in
  for j = 0 to Array.length a - 1 do
    let w = ref (Array.unsafe_get a j) in
    let left = ref 64 in
    while !left > 0 do
      let t = min (62 - !fill) !left in
      let chunk =
        Int64.to_int
          (Int64.logand !w (Int64.sub (Int64.shift_left 1L t) 1L))
      in
      out.(!li) <- out.(!li) lor (chunk lsl !fill);
      fill := !fill + t;
      w := Int64.shift_right_logical !w t;
      left := !left - t;
      if !fill = 62 then begin
        incr li;
        fill := 0
      end
    done
  done;
  out
