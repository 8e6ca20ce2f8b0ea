(* Hash-consed ROBDD with an ite-based apply and a computed cache. *)

type t = int (* node index; 0 = false, 1 = true *)

exception Node_limit_exceeded

type manager = {
  mutable var_of : int array;   (* per node *)
  mutable low_of : int array;
  mutable high_of : int array;
  mutable count : int;
  unique : (int * int * int, int) Hashtbl.t;  (* (var, low, high) -> node *)
  cache : (int * int * int, int) Hashtbl.t;   (* ite cache *)
  node_limit : int;
}

let leaf_var = max_int

let manager ?(node_limit = 1_000_000) () =
  let m =
    {
      var_of = Array.make 1024 leaf_var;
      low_of = Array.make 1024 0;
      high_of = Array.make 1024 0;
      count = 2;
      unique = Hashtbl.create 4096;
      cache = Hashtbl.create 4096;
      node_limit;
    }
  in
  (* node 0 = false, node 1 = true *)
  m.var_of.(0) <- leaf_var;
  m.var_of.(1) <- leaf_var;
  m

let bdd_false _ = 0
let bdd_true _ = 1

let grow m =
  if m.count = Array.length m.var_of then begin
    let n = 2 * Array.length m.var_of in
    let var' = Array.make n leaf_var in
    let low' = Array.make n 0 in
    let high' = Array.make n 0 in
    Array.blit m.var_of 0 var' 0 m.count;
    Array.blit m.low_of 0 low' 0 m.count;
    Array.blit m.high_of 0 high' 0 m.count;
    m.var_of <- var';
    m.low_of <- low';
    m.high_of <- high'
  end

let mk m v low high =
  if low = high then low
  else
    match Hashtbl.find_opt m.unique (v, low, high) with
    | Some n -> n
    | None ->
      if m.count >= m.node_limit then raise Node_limit_exceeded;
      grow m;
      let n = m.count in
      m.count <- m.count + 1;
      m.var_of.(n) <- v;
      m.low_of.(n) <- low;
      m.high_of.(n) <- high;
      Hashtbl.add m.unique (v, low, high) n;
      n

let var m i = mk m i 0 1

let top_var m f g h =
  let v t = m.var_of.(t) in
  min (v f) (min (v g) (v h))

let cofactors m node v =
  if node <= 1 || m.var_of.(node) <> v then (node, node)
  else (m.low_of.(node), m.high_of.(node))

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else begin
    match Hashtbl.find_opt m.cache (f, g, h) with
    | Some r -> r
    | None ->
      let v = top_var m f g h in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let low = ite m f0 g0 h0 in
      let high = ite m f1 g1 h1 in
      let r = mk m v low high in
      Hashtbl.add m.cache (f, g, h) r;
      r
  end

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor m f g = ite m f (ite m g 0 1) g

let equal (a : t) (b : t) = a = b
let is_true _ f = f = 1
let is_false _ f = f = 0

let rec eval m f assign =
  if f = 0 then false
  else if f = 1 then true
  else if assign m.var_of.(f) then eval m m.high_of.(f) assign
  else eval m m.low_of.(f) assign

let size m f =
  let seen = Hashtbl.create 64 in
  let rec walk f =
    if f > 1 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      walk m.low_of.(f);
      walk m.high_of.(f)
    end
  in
  walk f;
  Hashtbl.length seen + 2

let any_sat m f =
  if f = 0 then None
  else begin
    let rec walk f acc =
      if f = 1 then acc
      else if m.high_of.(f) <> 0 then
        walk m.high_of.(f) ((m.var_of.(f), true) :: acc)
      else walk m.low_of.(f) ((m.var_of.(f), false) :: acc)
    in
    Some (List.rev (walk f []))
  end

let sat_fraction m f ~num_vars =
  let memo = Hashtbl.create 64 in
  let rec frac f =
    if f = 0 then 0.0
    else if f = 1 then 1.0
    else
      match Hashtbl.find_opt memo f with
      | Some x -> x
      | None ->
        let x = 0.5 *. (frac m.low_of.(f) +. frac m.high_of.(f)) in
        Hashtbl.add memo f x;
        x
  in
  ignore num_vars;
  frac f
