module G = Aig.Graph
module Bv = Aig.Bitvec

let comparator ~width =
  let g = G.create () in
  let a = Bv.input g "a" width in
  let b = Bv.input g "b" width in
  let lt = Bv.lt g a b in
  let eq = Bv.eq g a b in
  G.add_po g "lt" lt;
  G.add_po g "eq" eq;
  G.add_po g "gt" (G.and_ g (G.compl_ lt) (G.compl_ eq));
  g

let square_plus ~width =
  let g = G.create () in
  let x = Bv.input g "x" width in
  (* x*x via shift-and-add, truncated to [width] bits *)
  let acc = ref (Bv.const g 0 ~width) in
  for i = 0 to width - 1 do
    let partial =
      Array.init width (fun j ->
          if j < i then G.lit_false else G.and_ g x.(i) x.(j - i))
    in
    let sum, _ = Bv.add g !acc partial in
    acc := sum
  done;
  let result, _ = Bv.add g !acc x in
  Bv.outputs g "f" result;
  g

let clip ~in_bits ~out_bits =
  let g = G.create () in
  let x = Bv.input g "x" in_bits in
  let high = Array.sub x out_bits (in_bits - out_bits) in
  let saturate = Bv.reduce_or g high in
  let out =
    Array.init out_bits (fun i -> G.or_ g saturate x.(i))
  in
  Bv.outputs g "y" out;
  g

let rd ~inputs =
  let g = G.create () in
  let x = Bv.input g "x" inputs in
  let count = Bv.popcount g x in
  Bv.outputs g "cnt" count;
  g

let sym9 () =
  let g = G.create () in
  let x = Bv.input g "x" 9 in
  let count = Bv.popcount g x in
  let pad = Array.init 4 (fun i -> if i < Array.length count then count.(i) else G.lit_false) in
  let ge3 = G.compl_ (Bv.lt g pad (Bv.const g 3 ~width:4)) in
  let le6 = Bv.lt g pad (Bv.const g 7 ~width:4) in
  G.add_po g "f" (G.and_ g ge3 le6);
  g

let sym9_twolevel () =
  (* same symmetric function, built from the union of the elementary
     symmetric "exactly k" terms for k = 3..6, each an OR over
     cardinality comparisons of the two input halves *)
  let g = G.create () in
  let x = Bv.input g "x" 9 in
  let lo = Bv.popcount g (Array.sub x 0 4) in
  let hi = Bv.popcount g (Array.sub x 4 5) in
  let pad v = Array.init 4 (fun i -> if i < Array.length v then v.(i) else G.lit_false) in
  let lo = pad lo and hi = pad hi in
  let eq_const v k = Bv.eq g v (Bv.const g k ~width:4) in
  let terms = ref [] in
  for total = 3 to 6 do
    for in_lo = 0 to min 4 total do
      let in_hi = total - in_lo in
      if in_hi >= 0 && in_hi <= 5 then
        terms := G.and_ g (eq_const lo in_lo) (eq_const hi in_hi) :: !terms
    done
  done;
  G.add_po g "f" (G.or_list g !terms);
  g

let sym9_chain () =
  (* same symmetric function again, counting serially bit-by-bit — a
     third structure for the same truth table (9symml stand-in) *)
  let g = G.create () in
  let x = Bv.input g "x" 9 in
  let acc = ref (Bv.const g 0 ~width:4) in
  Array.iter
    (fun bit ->
      let one = [| bit; G.lit_false; G.lit_false; G.lit_false |] in
      let sum, _ = Bv.add g !acc one in
      acc := sum)
    x;
  let ge3 = G.compl_ (Bv.lt g !acc (Bv.const g 3 ~width:4)) in
  let le6 = Bv.lt g !acc (Bv.const g 7 ~width:4) in
  G.add_po g "f" (G.and_ g ge3 le6);
  g

(* the t481-style core function over 16 literals (lits may be inputs or
   constants, enabling Shannon expansion); [variant] selects a
   structurally different but equivalent XOR decomposition so that
   copies do not merge in the strashed AIG *)
let t481_core g ~variant lits =
  let xor_v a b =
    match variant land 3 with
    | 0 -> G.xor g a b
    | 1 -> G.and_ g (G.or_ g a b) (G.compl_ (G.and_ g a b))
    | 2 -> G.compl_ (G.or_ g (G.and_ g a b) (G.and_ g (G.compl_ a) (G.compl_ b)))
    | _ -> G.or_ g (G.and_ g a (G.compl_ b)) (G.and_ g (G.compl_ a) b)
  in
  let pair i = xor_v lits.(2 * i) lits.(2 * i + 1) in
  let p = Array.init 8 pair in
  let q = Array.init 4 (fun j -> G.or_ g p.(2 * j) p.(2 * j + 1)) in
  let r0 = G.and_ g q.(0) q.(1) in
  let r1 = xor_v q.(2) q.(3) in
  xor_v r0 (G.compl_ r1)

let t481_bloated () =
  (* Shannon-expand on x0 and x1: four structurally distinct cofactor
     copies glued by a mux tree — the redundant starting point the
     paper's t481 row begins from (its huge reduction comes from
     removing exactly this kind of redundancy) *)
  let g = G.create () in
  let x = Bv.input g "x" 16 in
  let cofactor v0 v1 variant =
    let lits = Array.copy x in
    lits.(0) <- (if v0 then G.lit_true else G.lit_false);
    lits.(1) <- (if v1 then G.lit_true else G.lit_false);
    t481_core g ~variant lits
  in
  let f00 = cofactor false false 1 in
  let f01 = cofactor false true 2 in
  let f10 = cofactor true false 3 in
  let f11 = cofactor true true 1 in
  let lo = G.mux g ~sel:x.(1) ~t1:f01 ~e0:f00 in
  let hi = G.mux g ~sel:x.(1) ~t1:f11 ~e0:f10 in
  G.add_po g "f" (G.mux g ~sel:x.(0) ~t1:hi ~e0:lo);
  g

(* The 74181 in active-high logic.  Internal terms per bit i:
   gi = ai + bi*s0 + !bi*s1   (actually classic equations below) *)
let alu181 () =
  let g = G.create () in
  let a = Bv.input g "a" 4 in
  let b = Bv.input g "b" 4 in
  let s = Bv.input g "s" 4 in
  let m = G.add_pi g "m" in
  let cn = G.add_pi g "cn" in
  (* classic internal generate/propagate terms *)
  let gi = Array.init 4 (fun i ->
      G.compl_
        (G.or_list g
           [ a.(i);
             G.and_ g b.(i) s.(0);
             G.and_ g (G.compl_ b.(i)) s.(1) ]))
  in
  let pi_ = Array.init 4 (fun i ->
      G.compl_
        (G.or_list g
           [ G.and_list g [ G.compl_ b.(i) ; s.(2); a.(i) ];
             G.and_list g [ b.(i); s.(3); a.(i) ] ]))
  in
  (* carry chain, suppressed in logic mode (m = 1) *)
  let mbar = G.compl_ m in
  let carries = Array.make 5 G.lit_false in
  carries.(0) <- cn;
  for i = 0 to 3 do
    (* c_{i+1} = g_i' + p_i' c_i  in the active-high reformulation:
       generate when NOT gi, propagate when NOT pi *)
    carries.(i + 1) <-
      G.or_ g (G.compl_ gi.(i)) (G.and_ g (G.compl_ pi_.(i)) carries.(i))
  done;
  (* f_i = (g_i xor p_i) xor (m' & c_i): carries only act in arithmetic
     mode *)
  let f =
    Array.init 4 (fun i ->
        G.xor g (G.xor g gi.(i) pi_.(i)) (G.and_ g mbar carries.(i)))
  in
  Bv.outputs g "f" f;
  G.add_po g "cout" carries.(4);
  G.add_po g "aeqb" (Bv.reduce_and g f);
  G.add_po g "px" (Bv.reduce_and g (Array.map G.compl_ pi_));
  G.add_po g "gx" (Bv.reduce_or g (Array.map G.compl_ gi));
  g

let alu_small () =
  let g = G.create () in
  let a = Bv.input g "a" 4 in
  let b = Bv.input g "b" 4 in
  let op = Bv.input g "op" 2 in
  let sum, cout = Bv.add g a b in
  let and_v = Bv.and_ g a b in
  let or_v = Bv.or_ g a b in
  let xor_v = Bv.xor g a b in
  let sel01 = Bv.mux g op.(0) and_v sum in
  let sel23 = Bv.mux g op.(0) xor_v or_v in
  let f = Bv.mux g op.(1) sel23 sel01 in
  Bv.outputs g "f" f;
  G.add_po g "cout" (G.and_ g cout (G.and_ g (G.compl_ op.(0)) (G.compl_ op.(1))));
  G.add_po g "zero" (G.compl_ (Bv.reduce_or g f));
  g

let priority_interrupt () =
  let g = G.create () in
  let req = Bv.input g "req" 27 in
  let en = Bv.input g "en" 9 in
  let active =
    Array.init 3 (fun grp ->
        Array.init 9 (fun i -> G.and_ g req.((grp * 9) + i) en.(i)))
  in
  let group_any = Array.map (fun a -> Bv.reduce_or g a) active in
  (* group priority: 0 beats 1 beats 2 *)
  let grant =
    [|
      group_any.(0);
      G.and_ g group_any.(1) (G.compl_ group_any.(0));
      G.and_list g [ group_any.(2); G.compl_ group_any.(0); G.compl_ group_any.(1) ];
    |]
  in
  Array.iteri (fun i l -> G.add_po g (Printf.sprintf "grant_%d" i) l) grant;
  (* encoded line of the highest-priority active channel in the chosen
     group: channel priority 0 beats 1 ... *)
  let encode grp =
    let sel = Array.make 9 G.lit_false in
    let blocked = ref G.lit_false in
    for i = 0 to 8 do
      sel.(i) <- G.and_ g active.(grp).(i) (G.compl_ !blocked);
      blocked := G.or_ g !blocked active.(grp).(i)
    done;
    Array.init 4 (fun bit ->
        G.or_list g
          (List.filter_map
             (fun i -> if i land (1 lsl bit) <> 0 then Some sel.(i) else None)
             (List.init 9 (fun i -> i))))
  in
  let e0 = encode 0 and e1 = encode 1 and e2 = encode 2 in
  let enc = Bv.mux g grant.(0) e0 (Bv.mux g grant.(1) e1 e2) in
  Bv.outputs g "line" enc;
  g

let alu8 () =
  let g = G.create () in
  let a = Bv.input g "a" 8 in
  let b = Bv.input g "b" 8 in
  let op = Bv.input g "op" 3 in
  let cin = G.add_pi g "cin" in
  let sum, cadd = Bv.add g ~carry_in:cin a b in
  let diff, csub = Bv.sub g a b in
  let rot = Bv.rotate_left_var g a (Array.sub b 0 3) in
  let shl =
    Array.init 8 (fun i -> if i = 0 then cin else a.(i - 1))
  in
  let f01 = Bv.mux g op.(0) diff sum in
  let f23 = Bv.mux g op.(0) (Bv.or_ g a b) (Bv.and_ g a b) in
  let f45 = Bv.mux g op.(0) shl (Bv.xor g a b) in
  let f67 = Bv.mux g op.(0) a rot in
  let lo = Bv.mux g op.(1) f23 f01 in
  let hi = Bv.mux g op.(1) f67 f45 in
  let f = Bv.mux g op.(2) hi lo in
  Bv.outputs g "f" f;
  G.add_po g "cout" (G.mux g ~sel:op.(0) ~t1:csub ~e0:cadd);
  g

let hamming () =
  (* received word: d0..d15 data + c0..c4 checks; compute the syndrome
     over a fixed parity matrix and correct single-bit data errors *)
  let g = G.create () in
  let d = Bv.input g "d" 16 in
  let c = Bv.input g "c" 5 in
  let parity_sets =
    (* data bit i participates in check j iff bit j of (i+1) pattern *)
    Array.init 5 (fun j ->
        List.filter (fun i -> (i + 3) land (1 lsl j) <> 0) (List.init 16 (fun i -> i)))
  in
  let syndrome =
    Array.init 5 (fun j ->
        let data_par = G.xor_list g (List.map (fun i -> d.(i)) parity_sets.(j)) in
        G.xor g data_par c.(j))
  in
  let corrected =
    Array.init 16 (fun i ->
        (* flip data bit i when the syndrome equals its signature *)
        let signature = i + 3 in
        let match_ =
          G.and_list g
            (List.init 5 (fun j ->
                 if signature land (1 lsl j) <> 0 then syndrome.(j)
                 else G.compl_ syndrome.(j)))
        in
        G.xor g d.(i) match_)
  in
  Bv.outputs g "q" corrected;
  G.add_po g "err" (Bv.reduce_or g syndrome);
  g

let rotator ~width =
  let g = G.create () in
  let v = Bv.input g "v" width in
  let bits_needed =
    let rec bits acc = if 1 lsl acc >= width then acc else bits (acc + 1) in
    bits 0
  in
  let amt = Bv.input g "amt" bits_needed in
  Bv.outputs g "r" (Bv.rotate_left_var g v amt);
  g

let dual_alu () =
  let g = G.create () in
  let a = Bv.input g "a" 8 in
  let b = Bv.input g "b" 8 in
  let op = Bv.input g "op" 2 in
  let sum, _ = Bv.add g a b in
  let lane0 = Bv.mux g op.(0) (Bv.and_ g a b) sum in
  let lane1 = Bv.mux g op.(0) (Bv.xor g a b) (Bv.or_ g a b) in
  let f = Bv.mux g op.(1) lane1 lane0 in
  Bv.outputs g "f" f;
  G.add_po g "eq" (Bv.eq g lane0 lane1);
  g

let multiplier ~width =
  let g = G.create () in
  let a = Bv.input g "a" width in
  let b = Bv.input g "b" width in
  let w2 = 2 * width in
  let acc = ref (Bv.const g 0 ~width:w2) in
  for i = 0 to width - 1 do
    let partial =
      Array.init w2 (fun j ->
          if j < i || j - i >= width then G.lit_false
          else G.and_ g b.(i) a.(j - i))
    in
    let sum, _ = Bv.add g !acc partial in
    acc := sum
  done;
  Bv.outputs g "p" !acc;
  g

let adder_pair ~width =
  let g = G.create () in
  let a = Bv.input g "a" width in
  let b = Bv.input g "b" width in
  let c = Bv.input g "c" width in
  let d = Bv.input g "d" width in
  let s1, c1 = Bv.add g a b in
  let s2, c2 = Bv.add g c d in
  Bv.outputs g "s1" s1;
  Bv.outputs g "s2" s2;
  G.add_po g "carry1" c1;
  G.add_po g "carry2" c2;
  G.add_po g "chk" (Bv.reduce_xor g (Bv.xor g s1 s2));
  g

(* deterministic pseudo-random helper *)
let make_rand seed =
  let state = ref (Int64.of_int (seed * 2 + 1)) in
  fun bound ->
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.rem (Int64.shift_right_logical !state 17) (Int64.of_int bound))

let feistel () =
  let g = G.create () in
  let l = Bv.input g "l" 16 in
  let r = Bv.input g "r" 16 in
  let k = Bv.input g "k" 16 in
  let rand = make_rand 1977 in
  (* four fixed 4->4 S-boxes *)
  let sboxes =
    Array.init 4 (fun _ -> Array.init 16 (fun _ -> rand 16))
  in
  let apply_sbox box (nibble : G.lit array) =
    Array.init 4 (fun bit ->
        let minterms =
          List.filter (fun m -> sboxes.(box).(m) land (1 lsl bit) <> 0)
            (List.init 16 (fun m -> m))
        in
        G.or_list g
          (List.map
             (fun m ->
               G.and_list g
                 (List.init 4 (fun j ->
                      if m land (1 lsl j) <> 0 then nibble.(j)
                      else G.compl_ nibble.(j))))
             minterms))
  in
  let round l r subkey =
    let x = Bv.xor g r subkey in
    let f =
      Array.concat
        (List.init 4 (fun nib -> apply_sbox nib (Array.sub x (nib * 4) 4)))
    in
    (r, Bv.xor g l f)
  in
  let l1, r1 = round l r k in
  let k2 = Array.init 16 (fun i -> k.((i + 5) mod 16)) in
  let l2, r2 = round l1 r1 k2 in
  Bv.outputs g "lo" l2;
  Bv.outputs g "ro" r2;
  g

let pla ~seed ~ins ~outs ~cubes ~lit_lo ~lit_hi =
  let rand = make_rand seed in
  let g = G.create () in
  let x = Bv.input g "x" ins in
  let cube_lits =
    Array.init cubes (fun _ ->
        let n_lits = lit_lo + rand (max 1 (lit_hi - lit_lo + 1)) in
        let chosen = Array.make ins false in
        let lits = ref [] in
        let added = ref 0 in
        while !added < n_lits do
          let v = rand ins in
          if not chosen.(v) then begin
            chosen.(v) <- true;
            let lit = if rand 2 = 0 then x.(v) else G.compl_ x.(v) in
            lits := lit :: !lits;
            incr added
          end
        done;
        G.and_list g !lits)
  in
  let terms_per_out = Array.make outs [] in
  Array.iter
    (fun cube ->
      let n_sinks = 1 + rand 3 in
      for _ = 1 to n_sinks do
        let o = rand outs in
        terms_per_out.(o) <- cube :: terms_per_out.(o)
      done)
    cube_lits;
  Array.iteri
    (fun o terms -> G.add_po g (Printf.sprintf "o_%d" o) (G.or_list g terms))
    terms_per_out;
  g

(* Synthetic mapped circuits for scale benchmarking: built directly on
   [lib2] (no AIG or tech-mapping pass, which would dominate setup time
   at 100k gates).  Locality-biased fanin selection keeps cones shaped
   like real netlists; deliberate duplicate gates and re-derived
   AND/OR-vs-NAND/NOR pairs seed the functional redundancy POWDER's
   signature matching hunts for; dangling signals are folded into
   OR-reduction trees so the whole netlist is live. *)
let synth ~seed ~gates =
  let module Circuit = Netlist.Circuit in
  let module Library = Gatelib.Library in
  let lib = Library.lib2 in
  let cell n = Library.find lib n in
  let base = [| cell "nand2"; cell "nor2"; cell "and2"; cell "or2" |] in
  let xor2 = cell "xor2" in
  let inv = cell "inv1" in
  let rand = make_rand (seed * 37 + gates) in
  let c = Circuit.create lib in
  let n_pis = max 32 (gates / 25) in
  let signals = ref [] in
  let push id = signals := id :: !signals in
  let pis =
    Array.init n_pis (fun i ->
        let id = Circuit.add_pi c ~name:(Printf.sprintf "pi%d" i) in
        push id;
        id)
  in
  (* Layered, like a mapped combinational benchmark: logic depth stays
     roughly constant as [gates] grows.  A depth-proportional circuit
     (e.g. locality-chained construction) drives internal observability
     — and with it the care bits of the optimizer's signature masks —
     exponentially towards zero, which collapses most signals into a
     few giant compatibility classes and makes candidate generation
     quadratic in circuit size.  Wide-and-shallow keeps the candidate
     funnel realistic at 100k gates. *)
  let n_layers = 12 in
  let per_layer = max 8 (gates / n_layers) in
  let prev1 = ref pis and prev2 = ref [||] in
  let pick () =
    (* mostly the previous layer, sometimes the one before, and a
       steady trickle of PIs to keep support sets overlapping *)
    match rand 8 with
    | 0 -> pis.(rand (Array.length pis))
    | 1 | 2 when Array.length !prev2 > 0 -> !prev2.(rand (Array.length !prev2))
    | _ -> !prev1.(rand (Array.length !prev1))
  in
  (* Functional-alias tracking.  Replayed duplicates and inverter
     chains make some signals provably equal (or complementary) to
     older ones; a 2-input gate fed two aliases of one signal collapses
     to a constant or a buffer, and constants cascade (and2(0,x) = 0,
     xor2(0,x) = x) into huge constant cones whose zero observability
     empties the optimizer's signature care masks — every such target
     then "matches" the entire store and candidate generation drowns.
     Requiring distinct representatives keeps every gate
     non-degenerate. *)
  let alias = Hashtbl.create 64 in
  let rep id =
    match Hashtbl.find_opt alias id with Some r -> r | None -> id
  in
  (* Structural hashing (phase-insensitive): replayed duplicates AND
     chance duplicates — two gates independently drawing the same cell
     and fanin pair, which at layer widths of hundreds happens
     constantly — map to one representative, so the distinctness check
     below also catches xor2(a,b) meeting xor2(b,a) three layers
     later. *)
  let struct_tbl = Hashtbl.create 256 in
  let register id (cl : Gatelib.Cell.t) fs =
    let k =
      if Array.length fs = 1 then (cl.Gatelib.Cell.name, rep fs.(0), -1)
      else begin
        let ra = rep fs.(0) and rb = rep fs.(1) in
        (cl.Gatelib.Cell.name, min ra rb, max ra rb)
      end
    in
    match Hashtbl.find_opt struct_tbl k with
    | Some r -> Hashtbl.replace alias id r
    | None -> Hashtbl.replace struct_tbl k (rep id)
  in
  (* Output taps: a sample of every layer feeds the final xor fold
     directly, the way real mapped benchmarks have primary outputs at
     every logic depth.  Without them observability decays
     multiplicatively over the layers, and the heavy tail of
     near-zero-care signals matches most of the signature store by
     chance — quadratic candidate generation again. *)
  let taps = Hashtbl.create 64 in
  let budget = ref gates in
  while !budget > 0 do
    let width = min per_layer !budget in
    let recent = ref [] in
    let layer =
      Array.init width (fun _ ->
          let f1 = pick () in
          let f2 =
            let rec distinct tries =
              let f = pick () in
              if rep f <> rep f1 || tries > 16 then f else distinct (tries + 1)
            in
            distinct 0
          in
          let id =
            (* xor-dominated mix, for two scale-bench reasons: and/or
               gates drift signal probabilities towards 0/1 (saturating
               signatures into huge compatibility classes) AND
               attenuate observability along every path (draining the
               care masks, so unrelated signals match by chance); both
               effects make candidate generation quadratic with a large
               constant.  xor/inv propagate unconditionally, keeping
               probabilities centred and care masks dense, so the
               signature hits are dominated by the deliberately
               replayed duplicates. *)
            match rand 16 with
            | 0 | 1 -> Circuit.add_cell c inv [| f1 |]
            | 2 | 3 | 4 | 5 | 6 | 7 -> Circuit.add_cell c xor2 [| f1; f2 |]
            | 8 | 9 -> (
              (* replay a recent gate verbatim: a guaranteed
                 equivalent pair for signature matching to find *)
              match !recent with
              | (cl, fs) :: _ -> Circuit.add_cell c cl (Array.copy fs)
              | [] -> Circuit.add_cell c base.(rand 4) [| f1; f2 |])
            | _ -> Circuit.add_cell c base.(rand 4) [| f1; f2 |]
          in
          (match Circuit.kind c id with
          | Circuit.Cell (cl, fs) ->
            (* an inverter is a pure phase change: same representative *)
            if Array.length fs = 1 then Hashtbl.replace alias id (rep fs.(0));
            register id cl fs;
            recent := (cl, fs) :: (if rand 4 = 0 then [] else !recent);
            if List.length !recent > 8 then
              recent := List.filteri (fun i _ -> i < 8) !recent
          | _ -> ());
          if rand 8 = 0 then Hashtbl.replace taps id ();
          push id;
          decr budget;
          id)
    in
    prev2 := !prev1;
    prev1 := layer
  done;
  (* fold every dangling signal, plus the per-layer taps, into XOR
     trees and emit them as POs; xor (not or) so the fold neither
     saturates signatures nor creates provably-equivalent wide cones a
     single substitution could kill *)
  (* one fold leaf per representative: folding two aliases (equal or
     complementary signals) into the same xor tree would cancel them
     into a constant cone *)
  let folded = Hashtbl.create 64 in
  let dangling =
    List.filter
      (fun id ->
        (Circuit.num_fanouts c id = 0 || Hashtbl.mem taps id)
        && (match Circuit.kind c id with
           | Circuit.Cell _ -> true
           | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> false)
        &&
        let r = rep id in
        if Hashtbl.mem folded r then false
        else begin
          Hashtbl.replace folded r ();
          true
        end)
      (List.rev !signals)
  in
  let n_pos = max 8 (gates / 200) in
  let rec reduce = function
    | [] -> []
    | [ x ] -> [ x ]
    | l when List.length l <= n_pos -> l
    | l ->
      let rec pair = function
        | x :: y :: rest -> Circuit.add_cell c xor2 [| x; y |] :: pair rest
        | tail -> tail
      in
      reduce (pair l)
  in
  List.iteri
    (fun i root -> ignore (Circuit.add_po c ~name:(Printf.sprintf "po%d" i) root))
    (reduce dangling);
  c

let multilevel ~seed ~ins ~outs ~layers ~per_layer ~fanin =
  let rand = make_rand seed in
  let g = G.create () in
  let x = Bv.input g "x" ins in
  let pool = ref (Array.to_list x) in
  let last_layers = ref [] in
  for _ = 1 to layers do
    let arr = Array.of_list !pool in
    let fresh =
      List.init per_layer (fun _ ->
          (* pick [k] distinct signals, biased towards recent layers *)
          let pick () =
            let n = Array.length arr in
            let idx = min (rand n) (rand n) in
            let l = arr.(idx) in
            if rand 2 = 0 then l else G.compl_ l
          in
          let k = 2 + rand (max 1 (fanin - 1)) in
          let rec distinct acc tries =
            if List.length acc >= k || tries > 4 * k then acc
            else
              let l = pick () in
              if List.exists (fun m -> G.node_of m = G.node_of l) acc then
                distinct acc (tries + 1)
              else distinct (l :: acc) (tries + 1)
          in
          let inputs = distinct [] 0 in
          let n_terms = 2 + rand 2 in
          let terms =
            List.init n_terms (fun _ ->
                let subset = List.filter (fun _ -> rand 3 > 0) inputs in
                let subset = if subset = [] then inputs else subset in
                G.and_list g subset)
          in
          G.or_list g terms)
    in
    last_layers := fresh @ !last_layers;
    pool := fresh @ !pool
  done;
  (* outputs drawn from the generated layers (most recent first) so the
     cones stay deep *)
  let candidates = Array.of_list !last_layers in
  for o = 0 to outs - 1 do
    let pickable = max 1 (min (2 * per_layer) (Array.length candidates)) in
    G.add_po g (Printf.sprintf "o_%d" o) candidates.(rand pickable)
  done;
  g
