module Cell = Gatelib.Cell
module Library = Gatelib.Library

type node_id = int

type kind =
  | Pi
  | Const of bool
  | Cell of Gatelib.Cell.t * node_id array
  | Po of node_id

type pin = { sink : node_id; pin_index : int }

type node = {
  id : node_id;
  mutable name : string;
  mutable kind : kind;
  mutable fanouts : pin list;
  mutable live : bool;
}

(* Inverse edits recorded while a journal is open.  Replayed in reverse
   (most recent first) by [journal_rollback]. *)
type journal_op =
  | U_set_fanin of { sink : node_id; pin : int; old_driver : node_id }
  | U_replace_stem of { a : node_id; moved : pin list }
  | U_set_cell of { id : node_id; old_cell : Cell.t }
  | U_alloc of node_id
  | U_kill of node_id

type journal = { mutable ops : journal_op list; saved_fresh : int }

(* Memoized topological order of one structural version, with each
   node's position in it ([max_int] for nodes outside the order: POs
   and dead nodes). *)
type topo_memo = { topo_version : int; order : node_id array; pos : int array }

type t = {
  lib : Library.t;
  mutable nodes : node array;
  mutable count : int;
  mutable pis_rev : node_id list;
  mutable pos_rev : node_id list;
  names : (string, node_id) Hashtbl.t;
  mutable fresh : int;
  mutable version : int;
  mutable topo_cache : topo_memo option;
  mutable journal : journal option;
  (* Edit log: every structural mutation appends the ids whose local
     timing/power inputs (fanins, fanout loads, cell, liveness) may have
     changed.  Consumers hold a cursor and pull the suffix; a wholesale
     [overwrite] bumps the generation, invalidating all cursors. *)
  mutable edits : node_id list;
  mutable edits_len : int;
  mutable edits_gen : int;
}

let dummy_node = { id = -1; name = ""; kind = Pi; fanouts = []; live = false }

let create lib =
  {
    lib;
    nodes = Array.make 64 dummy_node;
    count = 0;
    pis_rev = [];
    pos_rev = [];
    names = Hashtbl.create 64;
    fresh = 0;
    version = 0;
    topo_cache = None;
    journal = None;
    edits = [];
    edits_len = 0;
    edits_gen = 0;
  }

let record t op =
  match t.journal with None -> () | Some j -> j.ops <- op :: j.ops

let log_edit t id =
  t.edits <- id :: t.edits;
  t.edits_len <- t.edits_len + 1

type edit_cursor = { cur_gen : int; cur_len : int }

let edit_cursor t = { cur_gen = t.edits_gen; cur_len = t.edits_len }

let edits_since t cur =
  if cur.cur_gen <> t.edits_gen then None
  else begin
    let n = t.edits_len - cur.cur_len in
    let rec take acc k l =
      if k = 0 then acc
      else match l with [] -> acc | x :: rest -> take (x :: acc) (k - 1) rest
    in
    Some (take [] n t.edits)
  end

let library t = t.lib
let num_nodes t = t.count

let node t id =
  if id < 0 || id >= t.count then invalid_arg "Circuit: bad node id";
  t.nodes.(id)

let grow t =
  if t.count = Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) dummy_node in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end

let fresh_name t prefix =
  let rec try_next () =
    let candidate = Printf.sprintf "%s%d" prefix t.fresh in
    t.fresh <- t.fresh + 1;
    if Hashtbl.mem t.names candidate then try_next () else candidate
  in
  try_next ()

let register_name t name id =
  if Hashtbl.mem t.names name then
    invalid_arg ("Circuit: duplicate name " ^ name);
  Hashtbl.add t.names name id

let touch t =
  t.version <- t.version + 1;
  t.topo_cache <- None

let alloc t ~name kind =
  touch t;
  grow t;
  let id = t.count in
  register_name t name id;
  t.nodes.(id) <- { id; name; kind; fanouts = []; live = true };
  t.count <- t.count + 1;
  record t (U_alloc id);
  log_edit t id;
  id

let add_pi t ~name =
  let id = alloc t ~name Pi in
  t.pis_rev <- id :: t.pis_rev;
  id

let add_const t ?name b =
  let name =
    match name with
    | Some n -> n
    | None -> fresh_name t (if b then "const1_" else "const0_")
  in
  alloc t ~name (Const b)

let add_fanout t driver pin =
  let d = node t driver in
  log_edit t driver;
  d.fanouts <- pin :: d.fanouts

let remove_fanout t driver pin =
  let d = node t driver in
  log_edit t driver;
  let rec drop_one = function
    | [] -> invalid_arg "Circuit: fanout pin not found"
    | p :: rest ->
      if p.sink = pin.sink && p.pin_index = pin.pin_index then rest
      else p :: drop_one rest
  in
  d.fanouts <- drop_one d.fanouts

let add_cell t ?name cell fanins =
  if Array.length fanins <> Cell.arity cell then
    invalid_arg "Circuit.add_cell: arity mismatch";
  let name = match name with Some n -> n | None -> fresh_name t "n" in
  Array.iter (fun f -> if not (node t f).live then invalid_arg "Circuit.add_cell: dead fanin") fanins;
  let id = alloc t ~name (Cell (cell, Array.copy fanins)) in
  Array.iteri (fun i f -> add_fanout t f { sink = id; pin_index = i }) fanins;
  id

let add_po t ~name driver =
  ignore (node t driver);
  let id = alloc t ~name (Po driver) in
  add_fanout t driver { sink = id; pin_index = 0 };
  t.pos_rev <- id :: t.pos_rev;
  id

let pis t = List.rev t.pis_rev
let pos t = List.rev t.pos_rev
let kind t id = (node t id).kind
let name t id = (node t id).name
let find_by_name t n = Hashtbl.find_opt t.names n
let is_live t id = (node t id).live
let fanouts t id = (node t id).fanouts
let num_fanouts t id = List.length (node t id).fanouts

let fanins t id =
  match (node t id).kind with
  | Pi | Const _ -> [||]
  | Cell (_, fs) -> fs
  | Po d -> [| d |]

let cell_of t id =
  match (node t id).kind with
  | Cell (c, _) -> c
  | Pi | Const _ | Po _ -> invalid_arg "Circuit.cell_of: not a cell"

let po_driver t id =
  match (node t id).kind with
  | Po d -> d
  | Pi | Const _ | Cell _ -> invalid_arg "Circuit.po_driver: not a PO"

let is_po_node t id = match (node t id).kind with Po _ -> true | Pi | Const _ | Cell _ -> false

let drives_po t id =
  List.exists (fun p -> is_po_node t p.sink) (node t id).fanouts

let iter_live t f =
  for id = 0 to t.count - 1 do
    if t.nodes.(id).live then f id
  done

let live_gates t =
  let acc = ref [] in
  for id = t.count - 1 downto 0 do
    let n = t.nodes.(id) in
    match n.kind with
    | Cell _ when n.live -> acc := id :: !acc
    | Cell _ | Pi | Const _ | Po _ -> ()
  done;
  !acc

let clone t =
  let nodes =
    Array.map
      (fun n ->
        { n with
          kind =
            (match n.kind with
            | Cell (c, fs) -> Cell (c, Array.copy fs)
            | (Pi | Const _ | Po _) as k -> k);
          fanouts = n.fanouts })
      t.nodes
  in
  {
    t with
    nodes;
    names = Hashtbl.copy t.names;
    journal = None;
  }

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let compute_topo_order t =
  (* Kahn over live non-PO nodes. *)
  let indeg = Array.make t.count 0 in
  iter_live t (fun id ->
      match (node t id).kind with
      | Cell (_, fs) -> indeg.(id) <- Array.length fs
      | Pi | Const _ -> indeg.(id) <- 0
      | Po _ -> indeg.(id) <- -1 (* excluded *));
  let queue = Queue.create () in
  iter_live t (fun id -> if indeg.(id) = 0 then Queue.add id queue);
  let order = Array.make t.count 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order.(!k) <- id;
    incr k;
    List.iter
      (fun p ->
        if (node t p.sink).live && indeg.(p.sink) > 0 then begin
          indeg.(p.sink) <- indeg.(p.sink) - 1;
          if indeg.(p.sink) = 0 then Queue.add p.sink queue
        end)
      (node t id).fanouts
  done;
  Array.sub order 0 !k

let topo_memo t =
  match t.topo_cache with
  | Some m when m.topo_version = t.version -> m
  | Some _ | None ->
    let order = compute_topo_order t in
    let pos = Array.make t.count max_int in
    Array.iteri (fun k id -> pos.(id) <- k) order;
    let m = { topo_version = t.version; order; pos } in
    t.topo_cache <- Some m;
    m

let topo_order t = (topo_memo t).order

let tfo t s =
  let marked = Array.make t.count false in
  let rec visit id =
    List.iter
      (fun p ->
        if (node t p.sink).live && not marked.(p.sink) then begin
          marked.(p.sink) <- true;
          visit p.sink
        end)
      (node t id).fanouts
  in
  visit s;
  marked

let tfi t s =
  let marked = Array.make t.count false in
  let rec visit id =
    Array.iter
      (fun f ->
        if not marked.(f) then begin
          marked.(f) <- true;
          visit f
        end)
      (fanins t id)
  in
  visit s;
  marked

(* Per-domain traversal scratch.  A node is visited by the current
   traversal iff [stamp.(id) = epoch], so starting a traversal costs an
   epoch bump instead of clearing (or allocating) an N-sized array, and
   the walks below cost O(cone), not O(circuit).  Each walk pushes a
   node at most once, so the stack never outgrows [stamp].  Domain-local,
   so pool tasks never share one; no walk calls another while it holds
   it. *)
type scratch = {
  mutable stamp : int array;
  mutable pending : int array;  (* [dominated_members]: pins left to count *)
  mutable found : node_id array; (* [dominated_members]: the members so far *)
  mutable stack : node_id array;
  mutable epoch : int;
  mutable sp : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { stamp = [||]; pending = [||]; found = [||]; stack = [||]; epoch = 0; sp = 0 })

let scratch_for t =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.stamp < t.count then begin
    let n = max t.count (2 * Array.length sc.stamp) in
    sc.stamp <- Array.make n 0;
    sc.pending <- Array.make n 0;
    sc.found <- Array.make n 0;
    sc.stack <- Array.make n 0;
    sc.epoch <- 0
  end;
  sc.epoch <- sc.epoch + 1;
  sc.sp <- 0;
  sc

let push sc id =
  sc.stack.(sc.sp) <- id;
  sc.sp <- sc.sp + 1

let pop sc =
  sc.sp <- sc.sp - 1;
  sc.stack.(sc.sp)

let reaches t a b =
  a = b
  || begin
    ignore (node t a);
    (* A node at or after [b] in a topological order cannot reach it, so
       with a current memo the walk never expands one.  The memo is only
       read: [reaches] runs inside pool tasks and inside edits, where
       recomputing it would race or see a half-made edit. *)
    let pos, limit =
      match t.topo_cache with
      | Some m when m.topo_version = t.version && b >= 0 && b < t.count ->
        (m.pos, m.pos.(b))
      | Some _ | None -> ([||], max_int)
    in
    let expands id = limit = max_int || pos.(id) < limit in
    let sc = scratch_for t in
    let found = ref false in
    sc.stamp.(a) <- sc.epoch;
    if expands a then push sc a;
    while (not !found) && sc.sp > 0 do
      let id = pop sc in
      List.iter
        (fun p ->
          let x = p.sink in
          if (not !found) && t.nodes.(x).live && sc.stamp.(x) <> sc.epoch
          then begin
            sc.stamp.(x) <- sc.epoch;
            if x = b then found := true else if expands x then push sc x
          end)
        t.nodes.(id).fanouts
    done;
    !found
  end

(* A node is dominated iff it has fanouts and every fanout sink is a
   dominated non-PO node.  Walking back from [s], each fanin counts down
   its fanout pins into the region and joins it when the last one is
   counted: the same fixed point as a reverse-topological sweep of
   TFI(s), but the walk costs O(|Dom(s)| + boundary) and allocates only
   the member array. *)
let dominated_members t s =
  let n = node t s in
  let sc = scratch_for t in
  let nm = ref 1 in
  sc.found.(0) <- s;
  let is_po = match n.kind with Po _ -> true | Pi | Const _ | Cell _ -> false in
  sc.stamp.(s) <- sc.epoch;
  sc.pending.(s) <- 0;
  if n.live && not is_po then push sc s;
  while sc.sp > 0 do
    let d = pop sc in
    Array.iter
      (fun f ->
        if sc.stamp.(f) <> sc.epoch then begin
          sc.stamp.(f) <- sc.epoch;
          sc.pending.(f) <- List.length t.nodes.(f).fanouts
        end;
        sc.pending.(f) <- sc.pending.(f) - 1;
        if sc.pending.(f) = 0 then begin
          sc.found.(!nm) <- f;
          incr nm;
          push sc f
        end)
      (fanins t d)
  done;
  let members = Array.sub sc.found 0 !nm in
  Array.sort Int.compare members;
  members

(* One region mask per domain, all false between calls: a call sets the
   members' entries and clears exactly those again, so a stem costs
   O(|Dom(s)|), not an O(circuit) mask. *)
type region_mask = { mutable mask : bool array; mutable held : bool }

let region_mask_key = Domain.DLS.new_key (fun () -> { mask = [||]; held = false })

let with_dominated_region t s f =
  let rm = Domain.DLS.get region_mask_key in
  if rm.held then invalid_arg "Circuit.with_dominated_region: nested call";
  if Array.length rm.mask < t.count then
    rm.mask <- Array.make (max t.count (2 * Array.length rm.mask)) false;
  let mask = rm.mask and members = ref [||] in
  let region () =
    if Array.length !members = 0 then begin
      members := dominated_members t s;
      Array.iter (fun id -> mask.(id) <- true) !members
    end;
    (mask, !members)
  in
  rm.held <- true;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun id -> mask.(id) <- false) !members;
      rm.held <- false)
    (fun () -> f region)

let dominated_region t s =
  with_dominated_region t s (fun region -> Array.sub (fst (region ())) 0 t.count)

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)
(* ------------------------------------------------------------------ *)

let would_cycle_pin t sink _pin b =
  (* New edge b -> sink: cycle iff sink reaches b. *)
  (not (is_po_node t sink)) && reaches t sink b

let would_cycle_stem t a b =
  a = b
  || List.exists
       (fun p -> (not (is_po_node t p.sink)) && reaches t p.sink b)
       (node t a).fanouts

(* Edits validate before they [touch]: a rejected edit keeps the
   topological memo (and with it [reaches]' pruning) intact. *)
let set_fanin t sink pin b =
  let n = node t sink in
  if not (node t b).live then invalid_arg "Circuit.set_fanin: dead driver";
  match n.kind with
  | Cell (c, fs) ->
    if pin < 0 || pin >= Array.length fs then
      invalid_arg "Circuit.set_fanin: bad pin";
    if fs.(pin) = b then ()
    else begin
      if would_cycle_pin t sink pin b then
        invalid_arg "Circuit.set_fanin: would create a cycle";
      touch t;
      record t (U_set_fanin { sink; pin; old_driver = fs.(pin) });
      log_edit t sink;
      remove_fanout t fs.(pin) { sink; pin_index = pin };
      fs.(pin) <- b;
      n.kind <- Cell (c, fs);
      add_fanout t b { sink; pin_index = pin }
    end
  | Po d ->
    if pin <> 0 then invalid_arg "Circuit.set_fanin: bad PO pin";
    if d = b then ()
    else begin
      touch t;
      record t (U_set_fanin { sink; pin = 0; old_driver = d });
      log_edit t sink;
      remove_fanout t d { sink; pin_index = 0 };
      n.kind <- Po b;
      add_fanout t b { sink; pin_index = 0 }
    end
  | Pi | Const _ -> invalid_arg "Circuit.set_fanin: node has no fanins"

let replace_stem t a b =
  if a = b then invalid_arg "Circuit.replace_stem: a = b";
  if not (node t b).live then invalid_arg "Circuit.replace_stem: dead driver";
  if would_cycle_stem t a b then
    invalid_arg "Circuit.replace_stem: would create a cycle";
  touch t;
  let moved = (node t a).fanouts in
  record t (U_replace_stem { a; moved });
  log_edit t a;
  (node t a).fanouts <- [];
  List.iter
    (fun p ->
      let s = node t p.sink in
      log_edit t p.sink;
      (match s.kind with
      | Cell (c, fs) ->
        fs.(p.pin_index) <- b;
        s.kind <- Cell (c, fs)
      | Po _ -> s.kind <- Po b
      | Pi | Const _ -> assert false);
      add_fanout t b p)
    moved

let set_cell t id cell =
  touch t;
  let n = node t id in
  match n.kind with
  | Cell (old_cell, fs) ->
    if Cell.arity cell <> Cell.arity old_cell then
      invalid_arg "Circuit.set_cell: arity mismatch";
    record t (U_set_cell { id; old_cell });
    log_edit t id;
    Array.iter (fun f -> log_edit t f) fs;
    n.kind <- Cell (cell, fs)
  | Pi | Const _ | Po _ -> invalid_arg "Circuit.set_cell: not a cell"

let sweep t =
  touch t;
  let killed = ref [] in
  let rec kill id =
    let n = node t id in
    if n.live && n.fanouts = [] then
      match n.kind with
      | Cell (_, fs) ->
        n.live <- false;
        Hashtbl.remove t.names n.name;
        record t (U_kill id);
        log_edit t id;
        killed := id :: !killed;
        Array.iteri
          (fun i f ->
            remove_fanout t f { sink = id; pin_index = i };
            kill f)
          fs
      | Const _ ->
        n.live <- false;
        Hashtbl.remove t.names n.name;
        record t (U_kill id);
        log_edit t id;
        killed := id :: !killed
      | Pi | Po _ -> ()
  in
  for id = 0 to t.count - 1 do
    kill id
  done;
  !killed

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let journal_active t = t.journal <> None

let journal_begin t =
  if journal_active t then invalid_arg "Circuit.journal_begin: journal already open";
  t.journal <- Some { ops = []; saved_fresh = t.fresh }

let journal_commit t =
  match t.journal with
  | None -> invalid_arg "Circuit.journal_commit: no open journal"
  | Some _ -> t.journal <- None

(* Undo one alloc.  Allocations are undone strictly LIFO (every alloc in
   a transaction is journaled), so the node being removed is always the
   topmost slot and the id space shrinks back exactly. *)
let undo_alloc t id =
  if id <> t.count - 1 then
    invalid_arg "Circuit journal: alloc undo out of order";
  touch t;
  log_edit t id;
  let n = t.nodes.(id) in
  (match n.kind with
  | Cell (_, fs) ->
    Array.iteri (fun i f -> remove_fanout t f { sink = id; pin_index = i }) fs
  | Const _ -> ()
  | Pi -> t.pis_rev <- List.tl t.pis_rev
  | Po d ->
    remove_fanout t d { sink = id; pin_index = 0 };
    t.pos_rev <- List.tl t.pos_rev);
  Hashtbl.remove t.names n.name;
  t.nodes.(id) <- dummy_node;
  t.count <- t.count - 1

(* Resurrect a node removed by [sweep].  Its fanins are already live
   (kill records sinks before their fanins, so reverse replay restores
   fanins first).  Fanout-list positions within each fanin are not
   byte-identical to the pre-kill order — only membership is — which is
   fine for every consumer (validate, simulation, traversals). *)
let resurrect t id =
  touch t;
  let n = t.nodes.(id) in
  n.live <- true;
  log_edit t id;
  register_name t n.name id;
  match n.kind with
  | Cell (_, fs) ->
    Array.iteri (fun i f -> add_fanout t f { sink = id; pin_index = i }) fs
  | Const _ -> ()
  | Pi | Po _ -> assert false

let unreplace_stem t a moved =
  touch t;
  List.iter
    (fun p ->
      let s = node t p.sink in
      log_edit t p.sink;
      (match s.kind with
      | Cell (c, fs) ->
        remove_fanout t fs.(p.pin_index) p;
        fs.(p.pin_index) <- a;
        s.kind <- Cell (c, fs)
      | Po d ->
        remove_fanout t d p;
        s.kind <- Po a
      | Pi | Const _ -> assert false);
      add_fanout t a p)
    (List.rev moved)

let undo_op t = function
  | U_set_fanin { sink; pin; old_driver } -> set_fanin t sink pin old_driver
  | U_replace_stem { a; moved } -> unreplace_stem t a moved
  | U_set_cell { id; old_cell } -> set_cell t id old_cell
  | U_alloc id -> undo_alloc t id
  | U_kill id -> resurrect t id

let journal_rollback t =
  match t.journal with
  | None -> invalid_arg "Circuit.journal_rollback: no open journal"
  | Some j ->
    (* Disable recording before replay so inverse edits are not
       themselves journaled. *)
    t.journal <- None;
    List.iter (undo_op t) j.ops;
    t.fresh <- j.saved_fresh;
    touch t

let overwrite dst src =
  if journal_active dst then
    invalid_arg "Circuit.overwrite: destination has an open journal";
  if dst.lib != src.lib then
    invalid_arg "Circuit.overwrite: library mismatch";
  dst.nodes <- src.nodes;
  dst.count <- src.count;
  dst.pis_rev <- src.pis_rev;
  dst.pos_rev <- src.pos_rev;
  Hashtbl.reset dst.names;
  Hashtbl.iter (fun k v -> Hashtbl.add dst.names k v) src.names;
  dst.fresh <- src.fresh;
  dst.edits <- [];
  dst.edits_len <- 0;
  dst.edits_gen <- dst.edits_gen + 1;
  touch dst

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let area t =
  let total = ref 0.0 in
  iter_live t (fun id ->
      match (node t id).kind with
      | Cell (c, _) -> total := !total +. c.Cell.area
      | Pi | Const _ | Po _ -> ());
  !total

let gate_count t =
  let n = ref 0 in
  iter_live t (fun id ->
      match (node t id).kind with
      | Cell _ -> incr n
      | Pi | Const _ | Po _ -> ());
  !n

let pin_cap t p =
  match (node t p.sink).kind with
  | Cell (c, _) -> c.Cell.pin_caps.(p.pin_index)
  | Po _ -> Library.default_po_load
  | Pi | Const _ -> 0.0

let load_of t id =
  let own =
    match (node t id).kind with
    | Cell (c, _) -> c.Cell.out_cap
    | Pi | Const _ | Po _ -> 0.0
  in
  List.fold_left (fun acc p -> acc +. pin_cap t p) own (node t id).fanouts

(* ------------------------------------------------------------------ *)
(* Validation and printing                                             *)
(* ------------------------------------------------------------------ *)

let validate t =
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_node id =
    let n = t.nodes.(id) in
    if not n.live then Ok ()
    else begin
      (* every fanin edge has a matching fanout entry *)
      let fanin_ok =
        Array.to_list (fanins t id)
        |> List.for_all (fun f ->
               (t.nodes.(f)).live
               && List.exists
                    (fun p -> p.sink = id)
                    (t.nodes.(f)).fanouts)
      in
      if not fanin_ok then error "node %s: fanin/fanout inconsistency" n.name
      else begin
        (* every fanout entry points back via the right pin *)
        let fanout_ok =
          List.for_all
            (fun p ->
              (t.nodes.(p.sink)).live
              &&
              match (t.nodes.(p.sink)).kind with
              | Cell (_, fs) ->
                p.pin_index >= 0
                && p.pin_index < Array.length fs
                && fs.(p.pin_index) = id
              | Po d -> p.pin_index = 0 && d = id
              | Pi | Const _ -> false)
            n.fanouts
        in
        if not fanout_ok then error "node %s: dangling fanout" n.name
        else Ok ()
      end
    end
  in
  let rec check_all id =
    if id >= t.count then Ok ()
    else match check_node id with Ok () -> check_all (id + 1) | Error e -> Error e
  in
  match check_all 0 with
  | Error e -> Error e
  | Ok () ->
    (* acyclicity: topo order must reach all live non-PO nodes *)
    let live_non_po = ref 0 in
    iter_live t (fun id -> if not (is_po_node t id) then incr live_non_po);
    if Array.length (topo_order t) <> !live_non_po then
      Error "cycle detected: topological order is incomplete"
    else Ok ()

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  iter_live t (fun id ->
      let n = t.nodes.(id) in
      match n.kind with
      | Pi -> Format.fprintf fmt "input %s@," n.name
      | Const b -> Format.fprintf fmt "const %s = %b@," n.name b
      | Po d -> Format.fprintf fmt "output %s <- %s@," n.name (t.nodes.(d)).name
      | Cell (c, fs) ->
        Format.fprintf fmt "%s = %s(%s)@," n.name c.Cell.name
          (String.concat ", "
             (Array.to_list (Array.map (fun f -> (t.nodes.(f)).name) fs))));
  Format.fprintf fmt "@]"

let pp_stats fmt t =
  Format.fprintf fmt "gates=%d area=%.0f pis=%d pos=%d" (gate_count t)
    (area t) (List.length t.pis_rev) (List.length t.pos_rev)
