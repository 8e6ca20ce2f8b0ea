type t = { n : int; w : int64 }

let max_vars = 6

let mask n = if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let create n word =
  if n < 0 || n > max_vars then invalid_arg "Tt.create";
  { n; w = Int64.logand word (mask n) }

let num_vars t = t.n
let word t = t.w

let const_false n = create n 0L
let const_true n = create n (-1L)

(* Bit pattern of the projection on variable [i]: bit m is set iff bit i
   of m is set.  These are the classic 0xAAAA.., 0xCCCC.., ... masks. *)
let var_masks =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let var n i =
  if i < 0 || i >= n then invalid_arg "Tt.var";
  create n var_masks.(i)

let check2 a b = if a.n <> b.n then invalid_arg "Tt: arity mismatch"

let not_ a = { a with w = Int64.logand (Int64.lognot a.w) (mask a.n) }
let and_ a b = check2 a b; { a with w = Int64.logand a.w b.w }
let or_ a b = check2 a b; { a with w = Int64.logor a.w b.w }
let xor a b = check2 a b; { a with w = Int64.logxor a.w b.w }
let nand a b = not_ (and_ a b)

let eval_int t m = Int64.logand (Int64.shift_right_logical t.w m) 1L = 1L

let eval t inputs =
  if Array.length inputs <> t.n then invalid_arg "Tt.eval";
  let m = ref 0 in
  for i = 0 to t.n - 1 do
    if inputs.(i) then m := !m lor (1 lsl i)
  done;
  eval_int t !m

let is_const_false t = Int64.equal t.w 0L
let is_const_true t = Int64.equal t.w (mask t.n)

let equal a b = a.n = b.n && Int64.equal a.w b.w

let cofactor i v t =
  if i < 0 || i >= t.n then invalid_arg "Tt.cofactor";
  let vm = var_masks.(i) in
  let shift = 1 lsl i in
  if v then
    let hi = Int64.logand t.w vm in
    { t with w = Int64.logand (Int64.logor hi (Int64.shift_right_logical hi shift)) (mask t.n) }
  else
    let lo = Int64.logand t.w (Int64.lognot vm) in
    { t with w = Int64.logand (Int64.logor lo (Int64.shift_left lo shift)) (mask t.n) }

let depends_on t i = not (equal (cofactor i false t) (cofactor i true t))

let support t =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if depends_on t i then i :: acc else acc)
  in
  loop (t.n - 1) []

let count_ones t =
  let rec pop w acc =
    if Int64.equal w 0L then acc
    else pop (Int64.logand w (Int64.sub w 1L)) (acc + 1)
  in
  pop t.w 0

let swap_adjacent t i =
  if i < 0 || i + 1 >= t.n then invalid_arg "Tt.swap_adjacent";
  (* Minterm bits where var i and var i+1 differ get exchanged. *)
  let lo = 1 lsl i in
  let a = Int64.logand t.w (Int64.logand var_masks.(i) (Int64.lognot var_masks.(i + 1))) in
  let b = Int64.logand t.w (Int64.logand var_masks.(i + 1) (Int64.lognot var_masks.(i))) in
  let keep = Int64.logand t.w (Int64.lognot (Int64.logor
    (Int64.logand var_masks.(i) (Int64.lognot var_masks.(i + 1)))
    (Int64.logand var_masks.(i + 1) (Int64.lognot var_masks.(i))))) in
  { t with
    w = Int64.logor keep
          (Int64.logor (Int64.shift_left a lo) (Int64.shift_right_logical b lo)) }

let permute t perm =
  if Array.length perm <> t.n then invalid_arg "Tt.permute";
  (* Selection-sort by adjacent swaps: move into place one var at a time. *)
  let cur = Array.copy perm in
  let res = ref t in
  for target = 0 to t.n - 1 do
    (* find j >= target with cur.(j) = target, bubble it down to target *)
    let j = ref target in
    while cur.(!j) <> target do incr j done;
    while !j > target do
      res := swap_adjacent !res (!j - 1);
      let tmp = cur.(!j - 1) in
      cur.(!j - 1) <- cur.(!j);
      cur.(!j) <- tmp;
      decr j
    done
  done;
  !res

let project t vars =
  let k = List.length vars in
  if k > max_vars then invalid_arg "Tt.project";
  let vars = Array.of_list vars in
  let w = ref 0L in
  for m = 0 to (1 lsl k) - 1 do
    let full = ref 0 in
    Array.iteri
      (fun i v -> if m land (1 lsl i) <> 0 then full := !full lor (1 lsl v))
      vars;
    if eval_int t !full then w := Int64.logor !w (Int64.shift_left 1L m)
  done;
  create k !w

let of_minterms n ms =
  let w =
    List.fold_left
      (fun acc m ->
        if m < 0 || m >= 1 lsl n then invalid_arg "Tt.of_minterms";
        Int64.logor acc (Int64.shift_left 1L m))
      0L ms
  in
  create n w

let minterms t =
  let rec loop m acc =
    if m < 0 then acc
    else loop (m - 1) (if eval_int t m then m :: acc else acc)
  in
  loop ((1 lsl t.n) - 1) []

let to_string t = Printf.sprintf "%d:0x%Lx" t.n t.w
let pp fmt t = Format.pp_print_string fmt (to_string t)
