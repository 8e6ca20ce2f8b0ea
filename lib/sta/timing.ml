module Circuit = Netlist.Circuit
module Cell = Gatelib.Cell

type t = {
  circ : Circuit.t;
  arrival : float array;
  required : float array;
  delay : float;
  req_time : float;
}

let delay_with_load circ id load =
  match Circuit.kind circ id with
  | Circuit.Cell (c, _) -> c.Cell.tau +. (c.Cell.drive_res *. load)
  | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> 0.0

let gate_delay circ id = delay_with_load circ id (Circuit.load_of circ id)

let m_analyses = Obs.Metrics.counter "sta.analyses"

let analyze ?required_time circ =
  Obs.Metrics.incr m_analyses;
  let n = Circuit.num_nodes circ in
  let arrival = Array.make n 0.0 in
  let order = Circuit.topo_order circ in
  Array.iter
    (fun id ->
      match Circuit.kind circ id with
      | Circuit.Pi | Circuit.Const _ -> arrival.(id) <- 0.0
      | Circuit.Po d -> arrival.(id) <- arrival.(d)
      | Circuit.Cell (_, fs) ->
        let inputs_ready =
          Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0.0 fs
        in
        arrival.(id) <- inputs_ready +. gate_delay circ id)
    order;
  let delay =
    List.fold_left
      (fun acc po -> Float.max acc arrival.(Circuit.po_driver circ po))
      0.0 (Circuit.pos circ)
  in
  let req_time = match required_time with Some r -> r | None -> delay in
  let required = Array.make n infinity in
  List.iter
    (fun po ->
      let d = Circuit.po_driver circ po in
      required.(d) <- Float.min required.(d) req_time;
      required.(po) <- req_time)
    (Circuit.pos circ);
  for k = Array.length order - 1 downto 0 do
    let id = order.(k) in
    List.iter
      (fun p ->
        let s = p.Circuit.sink in
        if Circuit.is_live circ s && not (Circuit.is_po_node circ s) then
          required.(id) <-
            Float.min required.(id) (required.(s) -. gate_delay circ s))
      (Circuit.fanouts circ id)
  done;
  { circ; arrival; required; delay; req_time }

let m_updates = Obs.Metrics.counter "sta.incremental_updates"

(* Incremental re-analysis after structural edits.  [dirty] is the
   circuit edit-log suffix covering every mutation since this snapshot
   was produced; the update recomputes arrival/required only from those
   seeds outward, stopping wherever a recomputed value is bitwise equal
   to the stored one.  Because max/min folds over non-NaN floats are
   order-independent and every node's value is a pure function of its
   neighbours' values plus its own load, the result is bit-equal, over
   live nodes, to a fresh [analyze ?required_time] — the property
   test_sta.ml asserts.  Dead nodes keep stale entries. *)
let update ?required_time t ~dirty =
  Obs.Metrics.incr m_updates;
  let circ = t.circ in
  let n = Circuit.num_nodes circ in
  let grow default a =
    if Array.length a >= n then a
    else begin
      let b = Array.make (max n (2 * Array.length a)) default in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  let arrival = grow 0.0 t.arrival in
  let required = grow infinity t.required in
  let order = Circuit.topo_order circ in
  let fwd = Array.make n false in
  let bwd = Array.make n false in
  List.iter
    (fun id ->
      (* ids can be dead or (after a rolled-back alloc) out of range *)
      if id >= 0 && id < n then begin
        fwd.(id) <- true;
        bwd.(id) <- true;
        (* a logged node's load (hence gate delay) may have changed,
           which shifts the required times of its fanins *)
        match Circuit.kind circ id with
        | Circuit.Cell (_, fs) -> Array.iter (fun f -> bwd.(f) <- true) fs
        | Circuit.Po d -> bwd.(d) <- true
        | Circuit.Pi | Circuit.Const _ -> ()
      end)
    dirty;
  (* forward pass: arrival times, change-pruned along the TFO *)
  Array.iter
    (fun id ->
      if fwd.(id) then begin
        let a =
          match Circuit.kind circ id with
          | Circuit.Pi | Circuit.Const _ -> 0.0
          | Circuit.Po d -> arrival.(d)
          | Circuit.Cell (_, fs) ->
            Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0.0 fs
            +. gate_delay circ id
        in
        if a <> arrival.(id) then begin
          arrival.(id) <- a;
          List.iter
            (fun p ->
              let s = p.Circuit.sink in
              if Circuit.is_live circ s && not (Circuit.is_po_node circ s)
              then fwd.(s) <- true)
            (Circuit.fanouts circ id)
        end
      end)
    order;
  let delay =
    List.fold_left
      (fun acc po -> Float.max acc arrival.(Circuit.po_driver circ po))
      0.0 (Circuit.pos circ)
  in
  let req_time = match required_time with Some r -> r | None -> delay in
  if req_time <> t.req_time then begin
    (* the PO deadline itself moved (unconstrained mode after a delay
       change): every required time shifts, so redo the backward pass *)
    Array.fill required 0 (Array.length required) infinity;
    List.iter
      (fun po ->
        let d = Circuit.po_driver circ po in
        required.(d) <- Float.min required.(d) req_time;
        required.(po) <- req_time)
      (Circuit.pos circ);
    for k = Array.length order - 1 downto 0 do
      let id = order.(k) in
      List.iter
        (fun p ->
          let s = p.Circuit.sink in
          if Circuit.is_live circ s && not (Circuit.is_po_node circ s) then
            required.(id) <-
              Float.min required.(id) (required.(s) -. gate_delay circ s))
        (Circuit.fanouts circ id)
    done
  end
  else begin
    (* deadline unchanged: required times move only under changed sink
       loads / fanout sets; walk reverse-topologically, change-pruned *)
    for k = Array.length order - 1 downto 0 do
      let id = order.(k) in
      if bwd.(id) then begin
        let r =
          List.fold_left
            (fun acc p ->
              let s = p.Circuit.sink in
              if Circuit.is_po_node circ s then Float.min acc req_time
              else if Circuit.is_live circ s then
                Float.min acc (required.(s) -. gate_delay circ s)
              else acc)
            infinity
            (Circuit.fanouts circ id)
        in
        if r <> required.(id) then begin
          required.(id) <- r;
          match Circuit.kind circ id with
          | Circuit.Cell (_, fs) -> Array.iter (fun f -> bwd.(f) <- true) fs
          | Circuit.Pi | Circuit.Const _ | Circuit.Po _ -> ()
        end
      end
    done;
    (* PO nodes carry the deadline directly (fresh POs start at inf) *)
    List.iter
      (fun id ->
        if id >= 0 && id < n && Circuit.is_po_node circ id then
          required.(id) <- req_time)
      dirty
  end;
  { t with arrival; required; delay; req_time }

let circuit t = t.circ
let arrival t id = t.arrival.(id)
let required t id = t.required.(id)
let slack t id = t.required.(id) -. t.arrival.(id)
let circuit_delay t = t.delay
let required_time t = t.req_time

let critical_path t =
  let circ = t.circ in
  let worst_po =
    List.fold_left
      (fun acc po ->
        let d = Circuit.po_driver circ po in
        match acc with
        | None -> Some d
        | Some best -> if t.arrival.(d) > t.arrival.(best) then Some d else acc)
      None (Circuit.pos circ)
  in
  let rec walk id acc =
    let acc = id :: acc in
    let fs = Circuit.fanins circ id in
    if Array.length fs = 0 then acc
    else begin
      let eps = 1e-9 in
      let target = t.arrival.(id) -. gate_delay circ id in
      let pred =
        Array.fold_left
          (fun best f ->
            match best with
            | Some _ -> best
            | None ->
              if Float.abs (t.arrival.(f) -. target) < eps then Some f else None)
          None fs
      in
      match pred with
      | Some f -> walk f acc
      | None ->
        (* numeric fallback: take the latest fanin *)
        let f =
          Array.fold_left
            (fun best f ->
              match best with
              | None -> Some f
              | Some b -> if t.arrival.(f) > t.arrival.(b) then Some f else best)
            None fs
        in
        (match f with Some f -> walk f acc | None -> acc)
    end
  in
  match worst_po with None -> [] | Some d -> walk d []
