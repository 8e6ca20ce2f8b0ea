(* Self-profiler: aggregates the [Trace] span stream into an
   attributed call-tree profile.

   The profiler is just another sink consumer — it sees exactly the
   events a JSONL trace would record, in the same deterministic order
   ([Par.Pool] flushes task buffers in commit order), so a [--jobs N]
   profile is identical to [--jobs 1] modulo the timing/allocation
   fields.  Every [span_end] event carries its full path, duration and
   allocation delta; the tree is keyed by path, inclusive time and
   counts accumulate per node, and exclusive time falls out at export
   as inclusive minus the children's inclusive.

   Point events feed two side tables: the per-round candidate funnel
   (round / accept / reject events) and the per-round GC samples. *)

type node = {
  name : string;
  mutable count : int;
  mutable inclusive_s : float;
  mutable alloc_bytes : float;
  children : (string, node) Hashtbl.t;
}

let make_node name =
  { name; count = 0; inclusive_s = 0.0; alloc_bytes = 0.0; children = Hashtbl.create 4 }

type round_row = {
  round : int;
  pool : int;
  mutable accepted : int;
  mutable rejects : (string * int) list;  (* reason -> count, unsorted *)
}

type t = {
  root : node;  (* synthetic root; its children are the top-level spans *)
  mutable events : int;
  mutable spans : int;
  mutable rounds : round_row list;  (* newest first *)
  mutable gc : (string * Json.t) list list;  (* newest first *)
}

let create () =
  { root = make_node ""; events = 0; spans = 0; rounds = []; gc = [] }

let child_of parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
    let n = make_node name in
    Hashtbl.add parent.children name n;
    n

let float_field fields k =
  match List.assoc_opt k fields with
  | Some (Trace.Float f) -> Some f
  | Some (Trace.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field fields k =
  match List.assoc_opt k fields with Some (Trace.Int i) -> Some i | _ -> None

let string_field fields k =
  match List.assoc_opt k fields with Some (Trace.String s) -> Some s | _ -> None

let add_event t (e : Trace.event) =
  t.events <- t.events + 1;
  match e.Trace.name with
  | "span_begin" -> ()
  | "span_end" ->
    t.spans <- t.spans + 1;
    (* the path includes the span itself as its last element *)
    let node = List.fold_left child_of t.root e.Trace.path in
    node.count <- node.count + 1;
    node.inclusive_s <-
      node.inclusive_s
      +. Option.value ~default:0.0 (float_field e.Trace.fields "dur_s");
    node.alloc_bytes <-
      node.alloc_bytes
      +. Option.value ~default:0.0 (float_field e.Trace.fields "alloc_b")
  | "round" ->
    let round = Option.value ~default:0 (int_field e.Trace.fields "round") in
    let pool = Option.value ~default:0 (int_field e.Trace.fields "pool") in
    t.rounds <- { round; pool; accepted = 0; rejects = [] } :: t.rounds
  | "accept" -> (
    match t.rounds with
    | row :: _ -> row.accepted <- row.accepted + 1
    | [] -> ())
  | "reject" -> (
    match t.rounds with
    | row :: _ ->
      let reason =
        Option.value ~default:"other" (string_field e.Trace.fields "reason")
      in
      let n = Option.value ~default:0 (List.assoc_opt reason row.rejects) in
      row.rejects <- (reason, n + 1) :: List.remove_assoc reason row.rejects
    | [] -> ())
  | "gc" ->
    t.gc <-
      List.map (fun (k, v) -> (k, Trace.json_of_value v)) e.Trace.fields :: t.gc
  | _ -> ()

let sink t = Trace.make_sink ~emit:(add_event t) ~close:(fun () -> ())

(* ------------------------------------------------------------------ *)
(* Tree traversal and exports.                                         *)
(* ------------------------------------------------------------------ *)

let sorted_children n =
  Hashtbl.fold (fun _ c acc -> c :: acc) n.children []
  |> List.sort (fun a b -> compare a.name b.name)

let children_inclusive n =
  Hashtbl.fold (fun _ c acc -> acc +. c.inclusive_s) n.children 0.0

let exclusive_s n = n.inclusive_s -. children_inclusive n

(* Depth-first fold over real nodes, parents before children, siblings
   name-sorted; [path] is outermost-first and includes the node. *)
let fold f init t =
  let rec go acc path n =
    List.fold_left
      (fun acc c ->
        let path = path @ [ c.name ] in
        go (f acc ~path c) path c)
      acc (sorted_children n)
  in
  go init [] t.root

let total_seconds t = children_inclusive t.root

let iter_nodes t f =
  fold
    (fun () ~path n ->
      f ~path ~count:n.count ~inclusive_s:n.inclusive_s
        ~exclusive_s:(exclusive_s n) ~alloc_bytes:n.alloc_bytes
        ~children_inclusive_s:(children_inclusive n))
    () t

let rec node_to_json n =
  Json.Obj
    [
      ("name", Json.String n.name);
      ("count", Json.Int n.count);
      ("inclusive_s", Json.Float n.inclusive_s);
      ("exclusive_s", Json.Float (exclusive_s n));
      ("alloc_bytes", Json.Float n.alloc_bytes);
      ("children", Json.List (List.map node_to_json (sorted_children n)));
    ]

let rounds_to_json t =
  Json.List
    (List.rev_map
       (fun r ->
         Json.Obj
           [
             ("round", Json.Int r.round);
             ("pool", Json.Int r.pool);
             ("accepted", Json.Int r.accepted);
             ( "rejected",
               Json.Obj
                 (List.map (fun (k, n) -> (k, Json.Int n))
                    (List.sort compare r.rejects)) );
           ])
       t.rounds)

let to_json ?run t =
  Json.Obj
    ((("schema_version", Json.Int Runinfo.schema_version)
      ::
      (match run with Some r -> [ ("run", r) ] | None -> []))
    @ [
        ("events", Json.Int t.events);
        ("spans", Json.Int t.spans);
        ("total_seconds", Json.Float (total_seconds t));
        ("tree", Json.List (List.map node_to_json (sorted_children t.root)));
        ("rounds", rounds_to_json t);
        ("gc", Json.List (List.rev_map (fun fs -> Json.Obj fs) t.gc));
      ])

(* Timing, allocation and environment keys: everything allowed to
   differ between two runs of the same deterministic work.  Stripping
   these (recursively) must make a [--jobs 4] profile byte-identical
   to [--jobs 1], span and event counts included. *)
let volatile_keys =
  [ "inclusive_s"; "exclusive_s"; "alloc_bytes"; "total_seconds"; "run"; "gc" ]

let rec strip_volatile = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k volatile_keys then None else Some (k, strip_volatile v))
         fields)
  | Json.List xs -> Json.List (List.map strip_volatile xs)
  | other -> other

(* Flamegraph-compatible collapsed stacks: one "a;b;c <value>" line per
   node, value = exclusive time in integer microseconds (clamped at 0:
   clock steps can make a leaf-heavy parent marginally negative). *)
let to_folded t =
  let buf = Buffer.create 1024 in
  let lines =
    fold
      (fun acc ~path n ->
        let us = int_of_float (Float.max 0.0 (exclusive_s n) *. 1e6 +. 0.5) in
        (String.concat ";" path ^ " " ^ string_of_int us) :: acc)
      [] t
  in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (List.sort compare lines);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export.                                          *)
(* ------------------------------------------------------------------ *)

(* Complete ("X") events reconstruct the span from its end record:
   start = ts - dur.  Using X instead of B/E pairs keeps the export
   correct even for events replayed from [Par.Pool] task buffers,
   whose timestamps interleave non-monotonically with the main
   domain's. *)
let chrome_event (e : Trace.event) =
  let us f = Json.Float (f *. 1e6) in
  let base ph ts =
    [
      ("name", Json.String e.Trace.name);
      ("ph", Json.String ph);
      ("ts", us ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int 0);
    ]
  in
  let args extra =
    ( "args",
      Json.Obj
        (extra
        @ List.map
            (fun (k, v) -> (k, Trace.json_of_value v))
            e.Trace.fields) )
  in
  match e.Trace.name with
  | "span_begin" -> None
  | "span_end" ->
    let dur =
      Option.value ~default:0.0 (float_field e.Trace.fields "dur_s")
    in
    let name =
      match List.rev e.Trace.path with last :: _ -> last | [] -> "span"
    in
    Some
      (Json.Obj
         ([
            ("name", Json.String name);
            ("cat", Json.String "span");
            ("ph", Json.String "X");
            ("ts", us (e.Trace.ts -. dur));
            ("dur", us dur);
            ("pid", Json.Int 0);
            ("tid", Json.Int 0);
          ]
         @ [ args [ ("path", Json.String (String.concat "/" e.Trace.path)) ] ]))
  | name ->
    Some
      (Json.Obj
         (base "i" e.Trace.ts
         @ [
             ("s", Json.String "t");
             ("cat", Json.String (if name = "run_start" then "meta" else "event"));
             args [ ("path", Json.String (String.concat "/" e.Trace.path)) ];
           ]))

(* Streaming writer: events are serialized as they arrive, so the
   export costs no memory proportional to the trace. *)
type chrome_writer = {
  oc : out_channel;
  buf : Buffer.t;
  mutable first : bool;
  mutable closed : bool;
}

let chrome_writer oc =
  output_string oc "{\"traceEvents\":[";
  { oc; buf = Buffer.create 256; first = true; closed = false }

let chrome_emit w e =
  match chrome_event e with
  | None -> ()
  | Some j ->
    if w.first then w.first <- false else output_char w.oc ',';
    Buffer.clear w.buf;
    Json.to_buffer w.buf j;
    Buffer.output_buffer w.oc w.buf

let chrome_close w =
  if not w.closed then begin
    w.closed <- true;
    output_string w.oc "],\"displayTimeUnit\":\"ms\"}\n";
    close_out w.oc
  end

let chrome_sink oc =
  let w = chrome_writer oc in
  Trace.make_sink ~emit:(chrome_emit w) ~close:(fun () -> chrome_close w)
