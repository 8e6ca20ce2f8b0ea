type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let bits_with_prob t p =
  if p <= 0.0 then 0L
  else if p >= 1.0 then -1L
  else begin
    let w = ref 0L in
    for i = 0 to 63 do
      if next_float t < p then w := Int64.logor !w (Int64.shift_left 1L i)
    done;
    !w
  end

let derive base label =
  let t = create base in
  (* absorb the label one byte per splitmix step, then finalize with
     one more step so even a trailing byte diffuses through the state *)
  String.iter
    (fun ch -> t.state <- Int64.logxor (next t) (Int64.of_int (Char.code ch)))
    label;
  next t

let stream base label = create (derive base label)
