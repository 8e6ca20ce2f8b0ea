module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell
module Tt = Logic.Tt

type verdict =
  | Equivalent
  | Different of (string * bool) list
  | Unknown

(* Virtual comparison cells; they never enter power/timing accounting
   because miters are throw-away reasoning structures. *)
let vcell name func =
  Cell.make ~name ~func ~area:0.0
    ~pin_caps:(Array.make (Tt.num_vars func) 0.0)
    ~tau:0.0 ~drive_res:0.0 ()

let xor_cell = vcell "miter_xor2" (Tt.xor (Tt.var 2 0) (Tt.var 2 1))
let or_cell = vcell "miter_or2" (Tt.or_ (Tt.var 2 0) (Tt.var 2 1))

let sorted_names of_list circ = List.sort String.compare (List.map (Circuit.name circ) (of_list circ))

let check_exhaustive ca cb =
  let n = List.length (Circuit.pis ca) in
  let words = max 1 ((1 lsl n) / 64) in
  let ea = Sim.Engine.create ca ~words and eb = Sim.Engine.create cb ~words in
  Sim.Engine.exhaustive ea;
  Sim.Engine.exhaustive eb;
  let sb = Sim.Engine.po_signatures eb in
  let mismatch =
    List.find_map
      (fun (name, va) ->
        match List.assoc_opt name sb with
        | None -> Some 0 (* should not happen: PO sets were checked *)
        | Some vb ->
          let rec scan j =
            if j >= Array.length va then None
            else
              let d = Int64.logxor va.(j) vb.(j) in
              if Int64.equal d 0L then scan (j + 1)
              else begin
                let bit = ref 0 in
                while
                  Int64.equal (Int64.logand (Int64.shift_right_logical d !bit) 1L) 0L
                do
                  incr bit
                done;
                Some ((j * 64) + !bit)
              end
          in
          scan 0)
      (Sim.Engine.po_signatures ea)
  in
  match mismatch with
  | None -> Equivalent
  | Some pattern ->
    let assignment =
      List.mapi
        (fun i pi -> (Circuit.name ca pi, (pattern lsr i) land 1 = 1))
        (Circuit.pis ca)
    in
    Different assignment

let sweep_metrics = Sweep.metrics "equiv"

(* Both netlists hashed into one sweep graph over shared inputs: [ca]
   as it is, then [cb] node by node, each new node merged into the
   oldest node it agrees with on every pattern once a pair proof shows
   them equal, and last the per-output XORs, swept against constant 0.
   What is left of the miter output is solved under the caller's cap;
   a pattern that already sets it is a counterexample at once. *)
let check_swept ~conflict_limit ca cb =
  let t0 = Obs.Clock.now () in
  Obs.Metrics.incr sweep_metrics.escalations;
  let names = sorted_names Circuit.pis ca in
  let g = Sweep.create ~npis:(List.length names) sweep_metrics in
  let inputs = Hashtbl.create 64 in
  List.iteri (fun k name -> Hashtbl.add inputs name (Sweep.input g k)) names;
  (* the oldest nodes, so every node that simulates constant is tried
     against a constant *)
  let zero = Sweep.const g false in
  ignore (Sweep.const g true);
  let sweep_new before n = if n >= before then Sweep.sweep_node g n else n in
  let load circ ~sweep =
    let map = Array.make (Circuit.num_nodes circ) (-1) in
    List.iter
      (fun pi -> map.(pi) <- Hashtbl.find inputs (Circuit.name circ pi))
      (Circuit.pis circ);
    Array.iter
      (fun id ->
        match Circuit.kind circ id with
        | Circuit.Pi | Circuit.Po _ -> ()
        | Circuit.Const b -> map.(id) <- Sweep.const g b
        | Circuit.Cell (c, fs) ->
          let before = Sweep.num_nodes g in
          let n = Sweep.gate g c (Array.map (fun f -> map.(f)) fs) in
          map.(id) <- (if sweep then sweep_new before n else n))
      (Circuit.topo_order circ);
    fun name ->
      match Circuit.find_by_name circ name with
      | Some po -> map.(Circuit.po_driver circ po)
      | None -> invalid_arg "Equiv.check: PO name mismatch"
  in
  let da = load ca ~sweep:false in
  let db = load cb ~sweep:true in
  let out =
    List.fold_left
      (fun acc name ->
        let before = Sweep.num_nodes g in
        let d = sweep_new before (Sweep.gate g xor_cell [| da name; db name |]) in
        Sweep.gate g or_cell [| acc; d |])
      zero (sorted_names Circuit.pos ca)
  in
  let different p = Different (List.mapi (fun k name -> (name, p.(k))) names) in
  let verdict =
    if Sweep.is_const g out false then Equivalent
    else
      match Sweep.first_one g out with
      | Some p -> different p
      | None -> (
        match Sweep.justify ~conflict_limit g out with
        | `Unsat -> Equivalent
        | `Sat p -> different p
        | `Unknown -> Unknown)
  in
  if verdict = Equivalent then Obs.Metrics.incr sweep_metrics.proved;
  Obs.Metrics.observe sweep_metrics.seconds (Obs.Clock.now () -. t0);
  verdict

let check ?(backtrack_limit = 20_000) ?(exhaustive_limit = 14) ca cb =
  let pis_a = sorted_names Circuit.pis ca and pis_b = sorted_names Circuit.pis cb in
  if pis_a <> pis_b then invalid_arg "Equiv.check: PI name mismatch";
  if sorted_names Circuit.pos ca <> sorted_names Circuit.pos cb then
    invalid_arg "Equiv.check: PO name mismatch";
  if List.length pis_a <= exhaustive_limit then check_exhaustive ca cb
  else check_swept ~conflict_limit:(10 * backtrack_limit) ca cb
