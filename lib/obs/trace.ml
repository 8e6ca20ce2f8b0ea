type value = Bool of bool | Int of int | Float of float | String of string

type event = {
  ts : float;
  name : string;
  path : string list;
  fields : (string * value) list;
}

type sink = { emit : event -> unit; close : unit -> unit; is_null : bool }

let make_sink ~emit ~close = { emit; close; is_null = false }
let null_sink = { emit = (fun _ -> ()); close = (fun () -> ()); is_null = true }

let tee_sink sinks =
  make_sink
    ~emit:(fun e -> List.iter (fun s -> s.emit e) sinks)
    ~close:(fun () -> List.iter (fun s -> s.close ()) sinks)

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | String s -> Json.String s

let json_of_event e =
  Json.Obj
    (("ts", Json.Float e.ts)
     :: ("ev", Json.String e.name)
     :: ("path", Json.String (String.concat "/" e.path))
     :: List.map (fun (k, v) -> (k, json_of_value v)) e.fields)

let jsonl_sink file =
  let oc = open_out file in
  let buf = Buffer.create 256 in
  make_sink
    ~emit:(fun e ->
      Buffer.clear buf;
      Json.to_buffer buf (json_of_event e);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
    ~close:(fun () -> close_out oc)

let current_sink = ref null_sink

let set_sink s =
  let old = !current_sink in
  current_sink := s;
  old.close ()

let close_sink () = set_sink null_sink
let active () = not !current_sink.is_null

(* innermost-first; reversed when an event captures its path.  Kept in
   domain-local storage so worker domains never share a stack; within a
   domain, pool tasks additionally swap in a fresh stack (see
   [activate_buffer]) so a caller-helping main domain does not leak its
   own span path into the task's events. *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span_stack () = Domain.DLS.get stack_key
let current_path () = List.rev !(span_stack ())

(* Per-task event buffer.  While installed, events queue up in memory
   instead of reaching the (main-domain-owned, not thread-safe) sink;
   the pool flushes them on the main domain when the task's result is
   consumed, in commit order. *)
type buffer = { mutable events : event list (* newest first *) }

let buffer_key : buffer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let create_buffer () = { events = [] }

type saved_context = { prev_stack : string list ref; prev_buffer : buffer option }

let activate_buffer b =
  let saved =
    { prev_stack = Domain.DLS.get stack_key; prev_buffer = Domain.DLS.get buffer_key }
  in
  Domain.DLS.set stack_key (ref []);
  Domain.DLS.set buffer_key (Some b);
  saved

let deactivate_buffer saved =
  Domain.DLS.set stack_key saved.prev_stack;
  Domain.DLS.set buffer_key saved.prev_buffer

let flush_buffer b =
  List.iter (fun e -> !current_sink.emit e) (List.rev b.events);
  b.events <- []

let emit name fields =
  let e = { ts = Clock.since_start (); name; path = current_path (); fields } in
  match Domain.DLS.get buffer_key with
  | Some b -> b.events <- e :: b.events
  | None -> !current_sink.emit e

let event name fields = if active () then emit name fields
let event_f name mk_fields = if active () then emit name (mk_fields ())

let span_histogram name = Metrics.histogram ("span." ^ name)

(* Words this domain has allocated so far: every minor allocation
   ([Gc.minor_words] counts the minor heap's current fill too) plus the
   blocks allocated directly in the major heap, which are the major
   words that were not promoted from the minor heap. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

let with_span ?(fields = []) name f =
  let h = span_histogram name in
  let t0 = Clock.now () in
  (* allocation delta is only sampled when a sink is recording, so the
     null-sink fast path keeps its two-clock-reads cost; a sink
     installed mid-span yields one meaningless delta, nothing worse *)
  let a0 = if active () then allocated_words () else Float.nan in
  (* capture the ref: the finally-pop must hit the same stack even if a
     pool task swaps the domain's stack while [f] runs (caller help) *)
  let st = span_stack () in
  st := name :: !st;
  if active () then emit "span_begin" fields;
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.now () -. t0 in
      Metrics.observe h dt;
      if active () then begin
        let da =
          if Float.is_nan a0 then 0.0
          else (allocated_words () -. a0) *. float_of_int (Sys.word_size / 8)
        in
        emit "span_end" (("dur_s", Float dt) :: ("alloc_b", Float da) :: fields)
      end;
      st := List.tl !st)
    f

let span_seconds name = Metrics.histogram_sum (span_histogram name)
let span_count name = Metrics.histogram_count (span_histogram name)
