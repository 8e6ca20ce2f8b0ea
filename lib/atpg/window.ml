module Circuit = Netlist.Circuit

type t = {
  internal : (Circuit.node_id, unit) Hashtbl.t;
  changed : (Circuit.node_id, unit) Hashtbl.t;
  order : Circuit.node_id array;
  cut : Circuit.node_id array;
  escapes : Circuit.node_id array;
}

let is_internal w id = Hashtbl.mem w.internal id
let is_changed w id = Hashtbl.mem w.changed id
let cut_size w = Array.length w.cut

let m_extracted = Obs.Metrics.counter "window.extracted"
let m_overflow = Obs.Metrics.counter "window.overflow"

let extract circ ~roots ~support ~max_cut ~max_volume =
  let is_cell id =
    match Circuit.kind circ id with Circuit.Cell _ -> true | _ -> false
  in
  let internal = Hashtbl.create 64 in
  (* phase 1: the truncated TFO of the roots.  Roots always go in (a
     branch retarget must see its sink); deeper fanout is admitted
     breadth-first until the volume budget runs out.  Truncation is
     sound: a changed node whose fanout leaves the window becomes an
     escape, compared old-vs-new at the boundary. *)
  let q = Queue.create () in
  List.iter
    (fun r ->
      if Circuit.is_live circ r && is_cell r && not (Hashtbl.mem internal r)
      then begin
        Hashtbl.replace internal r ();
        Queue.add r q
      end)
    roots;
  let vol = ref (Hashtbl.length internal) in
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    List.iter
      (fun p ->
        let s = p.Circuit.sink in
        if
          !vol < max_volume && Circuit.is_live circ s && is_cell s
          && not (Hashtbl.mem internal s)
        then begin
          Hashtbl.replace internal s ();
          incr vol;
          Queue.add s q
        end)
      (Circuit.fanouts circ id)
  done;
  (* phase 2: initial cut = the support signals plus every fanin of an
     internal node that is not itself internal *)
  let cut = Hashtbl.create 64 in
  let add_cut id =
    if not (Hashtbl.mem internal id) && not (Hashtbl.mem cut id) then
      Hashtbl.replace cut id ()
  in
  List.iter add_cut support;
  Hashtbl.iter
    (fun id () -> Array.iter add_cut (Circuit.fanins circ id))
    internal;
  (* phase 3: greedy TFI growth, lowest id first.  Internalizing a cut
     cell replaces one cut signal by its not-yet-seen fanins, buying the
     proof structural context upstream of the change; a cut node in the
     target's truncated fanout is still sound as a shared free input,
     because every difference reaching it must cross an escape that the
     miter proves silent. *)
  let grew = ref true in
  while !grew do
    grew := false;
    let cands =
      List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) cut [])
    in
    List.iter
      (fun c ->
        if Hashtbl.mem cut c && is_cell c && Circuit.is_live circ c then begin
          let fresh =
            Array.fold_left
              (fun n f ->
                if Hashtbl.mem internal f || Hashtbl.mem cut f then n
                else n + 1)
              0 (Circuit.fanins circ c)
          in
          if
            !vol + 1 <= max_volume
            && Hashtbl.length cut - 1 + fresh <= max_cut
          then begin
            Hashtbl.remove cut c;
            Hashtbl.replace internal c ();
            incr vol;
            Array.iter add_cut (Circuit.fanins circ c);
            grew := true
          end
        end)
      cands
  done;
  if Hashtbl.length cut > 2 * max_cut then begin
    Obs.Metrics.incr m_overflow;
    None
  end
  else begin
    (* phase 4: changed = nodes reachable from the roots inside the
       window (the part that gets duplicated with the substitution) *)
    let changed = Hashtbl.create 64 in
    let q = Queue.create () in
    List.iter
      (fun r ->
        if Hashtbl.mem internal r && not (Hashtbl.mem changed r) then begin
          Hashtbl.replace changed r ();
          Queue.add r q
        end)
      roots;
    while not (Queue.is_empty q) do
      let id = Queue.pop q in
      List.iter
        (fun p ->
          let s = p.Circuit.sink in
          if Hashtbl.mem internal s && not (Hashtbl.mem changed s) then begin
            Hashtbl.replace changed s ();
            Queue.add s q
          end)
        (Circuit.fanouts circ id)
    done;
    (* phase 5: escapes = changed nodes observable outside the window
       (a fanout pin to a non-internal sink, which includes POs) *)
    let escapes =
      Hashtbl.fold
        (fun id () acc ->
          if
            List.exists
              (fun p -> not (Hashtbl.mem internal p.Circuit.sink))
              (Circuit.fanouts circ id)
          then id :: acc
          else acc)
        changed []
      |> List.sort compare |> Array.of_list
    in
    (* phase 6: topological order of the internal nodes (fanins first),
       by DFS restricted to the window *)
    let order = ref [] in
    let seen = Hashtbl.create 64 in
    let rec visit id =
      if Hashtbl.mem internal id && not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        Array.iter visit (Circuit.fanins circ id);
        order := id :: !order
      end
    in
    List.iter visit
      (List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) internal []));
    let order = Array.of_list (List.rev !order) in
    let cut =
      List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) cut [])
      |> Array.of_list
    in
    Obs.Metrics.incr m_extracted;
    Some { internal; changed; order; cut; escapes }
  end
