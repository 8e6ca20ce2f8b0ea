type v3 = V0 | V1 | VX

let v3_of_bool b = if b then V1 else V0
let to_char = function V0 -> '0' | V1 -> '1' | VX -> 'x'

type t = { good : v3; faulty : v3 }

let x = { good = VX; faulty = VX }
let of_bool b = { good = v3_of_bool b; faulty = v3_of_bool b }
let d = { good = V1; faulty = V0 }

let is_d_or_dbar v =
  match (v.good, v.faulty) with
  | V1, V0 | V0, V1 -> true
  | (V0 | V1 | VX), (V0 | V1 | VX) -> false

let equal a b = a = b

let pp fmt v =
  match (v.good, v.faulty) with
  | V1, V0 -> Format.pp_print_char fmt 'D'
  | V0, V1 -> Format.pp_print_string fmt "D'"
  | g, f when g = f -> Format.pp_print_char fmt (to_char g)
  | g, f -> Format.fprintf fmt "%c/%c" (to_char g) (to_char f)

let eval_cell func inputs =
  let k = Logic.Tt.num_vars func in
  if Array.length inputs <> k then invalid_arg "Tval.eval_cell";
  (* Fold the definite inputs into a base minterm and collect the X
     positions, then scan all completions. *)
  let base = ref 0 in
  let xs = ref [] in
  Array.iteri
    (fun i v ->
      match v with
      | V1 -> base := !base lor (1 lsl i)
      | V0 -> ()
      | VX -> xs := i :: !xs)
    inputs;
  let x_positions = Array.of_list !xs in
  let n_free = Array.length x_positions in
  let seen0 = ref false and seen1 = ref false in
  let rec scan j =
    if (not (!seen0 && !seen1)) && j < 1 lsl n_free then begin
      let m = ref !base in
      Array.iteri
        (fun bit pos -> if j land (1 lsl bit) <> 0 then m := !m lor (1 lsl pos))
        x_positions;
      if Logic.Tt.eval_int func !m then seen1 := true else seen0 := true;
      scan (j + 1)
    end
  in
  scan 0;
  match (!seen0, !seen1) with
  | true, false -> V0
  | false, true -> V1
  | true, true -> VX
  | false, false -> assert false
