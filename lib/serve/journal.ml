(* Frame: body length (u32 LE), MD5 of the body (16 bytes), body.
   Bodies: 'Q' queue; 'P' job key payload; 'D' job key; 'F' job and its
   result files (a u16 count of name, contents pairs).  Job, key and
   file names carry a u16 LE length prefix, file contents a u32 one.
   An empty key in a drop means every key of the job. *)

let header_bytes = 20

(* compaction starts once dead bytes exceed max(floor, ratio * live) *)
let compact_floor = 8 * 1024 * 1024
let compact_ratio = 4

let m_appends = Obs.Metrics.counter "serve.journal.appends"
let m_bytes = Obs.Metrics.counter "serve.journal.appended_bytes"
let m_compactions = Obs.Metrics.counter "serve.journal.compactions"
let h_compact = Obs.Metrics.histogram "serve.journal.compact_seconds"

type record =
  | Queue of string
  | Put of { job : string; key : string; payload : string }
  | Drop of { job : string; key : string }
  | Finish of { job : string; files : (string * string) list }

let body_size r =
  let field s =
    if String.length s > 0xffff then
      invalid_arg "Serve.Journal: job, key or file name too long";
    2 + String.length s
  in
  match r with
  | Queue payload -> 1 + String.length payload
  | Put { job; key; payload } -> 1 + field job + field key + String.length payload
  | Drop { job; key } -> 1 + field job + field key
  | Finish { job; files } ->
    if List.length files > 0xffff then
      invalid_arg "Serve.Journal: too many result files";
    List.fold_left
      (fun acc (name, contents) -> acc + field name + 4 + String.length contents)
      (1 + field job + 2) files

(* The frame is built in place in one allocation: queue snapshots are
   the bulk of what a drain appends. *)
let frame r =
  let n = body_size r in
  let f = Bytes.create (header_bytes + n) in
  let pos = ref header_bytes in
  let str s =
    Bytes.blit_string s 0 f !pos (String.length s);
    pos := !pos + String.length s
  in
  let tag c =
    Bytes.set f !pos c;
    incr pos
  in
  let u16 v =
    Bytes.set_uint16_le f !pos v;
    pos := !pos + 2
  in
  let field s =
    u16 (String.length s);
    str s
  in
  (match r with
  | Queue payload ->
    tag 'Q';
    str payload
  | Put { job; key; payload } ->
    tag 'P';
    field job;
    field key;
    str payload
  | Drop { job; key } ->
    tag 'D';
    field job;
    field key
  | Finish { job; files } ->
    tag 'F';
    field job;
    u16 (List.length files);
    List.iter
      (fun (name, contents) ->
        field name;
        Bytes.set_int32_le f !pos (Int32.of_int (String.length contents));
        pos := !pos + 4;
        str contents)
      files);
  Bytes.set_int32_le f 0 (Int32.of_int n);
  Bytes.blit_string (Digest.subbytes f header_bytes n) 0 f 4 16;
  Bytes.unsafe_to_string f

let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xffff_ffff

(* [None]: not a record this module wrote — treated like a torn frame *)
let parse_body s =
  let n = String.length s in
  let sized width get pos =
    if pos + width > n then None
    else
      let len = get s pos in
      if len > n - pos - width then None
      else Some (String.sub s (pos + width) len, pos + width + len)
  in
  let field = sized 2 String.get_uint16_le in
  let job_key () =
    Option.bind (field 1) (fun (job, pos) ->
        Option.map (fun (key, pos) -> (job, key, pos)) (field pos))
  in
  let rec files k pos acc =
    if k = 0 then if pos = n then Some (List.rev acc) else None
    else
      Option.bind (field pos) (fun (name, pos) ->
          Option.bind (sized 4 get_u32 pos) (fun (contents, pos) ->
              files (k - 1) pos ((name, contents) :: acc)))
  in
  if n = 0 then None
  else
    match s.[0] with
    | 'Q' -> Some (Queue (String.sub s 1 (n - 1)))
    | 'P' ->
      Option.map
        (fun (job, key, pos) ->
          Put { job; key; payload = String.sub s pos (n - pos) })
        (job_key ())
    | 'D' ->
      Option.bind (job_key ()) (fun (job, key, pos) ->
          if pos = n then Some (Drop { job; key }) else None)
    | 'F' ->
      Option.bind (field 1) (fun (job, pos) ->
          if pos + 2 > n then None
          else
            Option.map
              (fun files -> Finish { job; files })
              (files (String.get_uint16_le s pos) (pos + 2) []))
    | _ -> None

(* The intact record at [pos] and its frame length, or [None] at the
   end of the file or at a torn or garbled frame. *)
let next_record s pos =
  let n = String.length s in
  if pos + header_bytes > n then None
  else
    let len = get_u32 s pos in
    if len > n - pos - header_bytes then None
    else
      let b = String.sub s (pos + header_bytes) len in
      if not (String.equal (Digest.string b) (String.sub s (pos + 4) 16)) then
        None
      else Option.map (fun r -> (r, header_bytes + len)) (parse_body b)

(* ---- the live state ---- *)

(* A live record: where its frame sits in the file, and the payload a
   reader asks for (queue and puts only; a result record's files are
   on disk). *)
type live = { payload : string; mutable off : int; bytes : int }

type state = {
  mutable queue : live option;
  puts : (string * string, live) Hashtbl.t;
  finished : (string, live) Hashtbl.t;
  mutable live_bytes : int;
}

let empty_state () =
  {
    queue = None;
    puts = Hashtbl.create 16;
    finished = Hashtbl.create 64;
    live_bytes = 0;
  }

let forget st (k : string * string) =
  match Hashtbl.find_opt st.puts k with
  | Some l ->
    st.live_bytes <- st.live_bytes - l.bytes;
    Hashtbl.remove st.puts k
  | None -> ()

let forget_job st job =
  Hashtbl.fold (fun (j, k) _ acc -> if j = job then (j, k) :: acc else acc) st.puts []
  |> List.iter (forget st)

let has_puts st job = Hashtbl.fold (fun (j, _) _ acc -> acc || j = job) st.puts false

let apply st r ~off ~bytes =
  let live payload =
    st.live_bytes <- st.live_bytes + bytes;
    { payload; off; bytes }
  in
  match r with
  | Queue payload ->
    Option.iter (fun l -> st.live_bytes <- st.live_bytes - l.bytes) st.queue;
    st.queue <- Some (live payload)
  | Put { job; key; payload } ->
    forget st (job, key);
    Hashtbl.replace st.puts (job, key) (live payload)
  | Drop { job; key = "" } -> forget_job st job
  | Drop { job; key } -> forget st (job, key)
  | Finish { job; _ } ->
    forget_job st job;
    Option.iter
      (fun l -> st.live_bytes <- st.live_bytes - l.bytes)
      (Hashtbl.find_opt st.finished job);
    Hashtbl.replace st.finished job (live "")

(* Replay [s] into a fresh state: the state, the length of the intact
   prefix, the number of intact records, and each finished job's files
   (the last result record per job). *)
let replay s =
  let st = empty_state () in
  let results = Hashtbl.create 64 in
  let rec go off records =
    match next_record s off with
    | Some (r, bytes) ->
      apply st r ~off ~bytes;
      (match r with
      | Finish { job; files } -> Hashtbl.replace results job files
      | _ -> ());
      go (off + bytes) (records + 1)
    | None -> (off, records)
  in
  let intact, records = go 0 0 in
  (st, intact, records, results)

(* every live record, in the order compaction writes them *)
let live_records st =
  let sorted tbl =
    Hashtbl.fold (fun k l acc -> (k, l) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  Option.to_list st.queue @ sorted st.puts @ sorted st.finished

(* ---- the journal file ---- *)

type t = {
  path : string;
  lock : Mutex.t;
  st : state;
  mutable fd : Unix.file_descr;
  mutable size : int;
  mutable compactions : int;
  torn_bytes : int;
}

let open_append path =
  Unix.openfile path [ O_WRONLY; O_APPEND; O_CREAT; O_CLOEXEC ] 0o644

(* Copy the live frames to a fresh file, one at a time; one rename puts
   it in place.  Caller holds the lock (or owns [t] exclusively, as
   [open_] does). *)
let compact t =
  let t0 = Obs.Clock.now () in
  let src = Unix.openfile t.path [ O_RDONLY; O_CLOEXEC ] 0 in
  let live = live_records t.st in
  (Fun.protect ~finally:(fun () -> Unix.close src) @@ fun () ->
   let buf = Bytes.create 65536 in
   Powder.Persist.write_atomic_with t.path (fun dst ->
       List.iter
         (fun l ->
           ignore (Unix.lseek src l.off SEEK_SET);
           let left = ref l.bytes in
           while !left > 0 do
             let n = Unix.read src buf 0 (min !left (Bytes.length buf)) in
             if n = 0 then failwith "Serve.Journal: journal shrank under compaction";
             let w = ref 0 in
             while !w < n do
               w := !w + Unix.write dst buf !w (n - !w)
             done;
             left := !left - n
           done)
         live));
  (* the new file is in place: the live frames now sit back to back *)
  let size =
    List.fold_left
      (fun off l ->
        l.off <- off;
        off + l.bytes)
      0 live
  in
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- open_append t.path;
  t.size <- size;
  t.compactions <- t.compactions + 1;
  Obs.Metrics.incr m_compactions;
  Obs.Metrics.observe h_compact (Obs.Clock.now () -. t0)

let needs_compaction t =
  t.size - t.st.live_bytes > max compact_floor (compact_ratio * t.st.live_bytes)

let dir t = Filename.dirname t.path

(* Result files are written without an fsync: the result record makes
   them durable, and a file that an fsync has not pinned is cheap to
   unlink later. *)
let write_results t files =
  List.iter
    (fun (name, contents) ->
      Powder.Persist.write_atomic ~durable:false
        (Filename.concat (dir t) name) contents)
    files

let open_ path =
  let existed = Sys.file_exists path in
  let contents =
    if not existed then ""
    else
      match Powder.Persist.read_file path with
      | Ok s -> s
      | Error e -> failwith ("Serve.Journal: " ^ e)
  in
  let st, intact, _, results = replay contents in
  let fd = open_append path in
  if not existed then Powder.Persist.fsync_dir (Filename.dirname path);
  let t =
    {
      path;
      lock = Mutex.create ();
      st;
      fd;
      size = String.length contents;
      compactions = 0;
      torn_bytes = String.length contents - intact;
    }
  in
  (* a torn tail must go before anything is appended behind it, and
     dead records are cheapest to drop while nothing else runs *)
  if t.size > t.st.live_bytes then compact t;
  (* a kill can beat the page cache to the disk: put back any result
     file that is missing or differs from its record *)
  Hashtbl.iter
    (fun _ files ->
      List.filter
        (fun (name, contents) ->
          match Powder.Persist.read_file (Filename.concat (dir t) name) with
          | Ok s -> not (String.equal s contents)
          | Error _ -> true)
        files
      |> write_results t)
    results;
  t

let close t = Mutex.protect t.lock (fun () -> Unix.close t.fd)

(* One append plus one fsync.  A failed write is cut back off, so a
   later append never lands behind a torn frame. *)
let append t r =
  let f = frame r in
  let bytes = String.length f in
  Mutex.protect t.lock @@ fun () ->
  (try
     Powder.Persist.write_all t.fd f;
     Unix.fsync t.fd
   with e ->
     (try Unix.ftruncate t.fd t.size with Unix.Unix_error _ -> ());
     raise e);
  apply t.st r ~off:t.size ~bytes;
  t.size <- t.size + bytes;
  Obs.Metrics.incr m_appends;
  Obs.Metrics.add m_bytes bytes;
  if needs_compaction t then compact t

let queue t =
  Mutex.protect t.lock (fun () -> Option.map (fun l -> l.payload) t.st.queue)

let set_queue t payload = append t (Queue payload)

let find t ~job ~key =
  Mutex.protect t.lock (fun () ->
      Option.map (fun l -> l.payload) (Hashtbl.find_opt t.st.puts (job, key)))

let put t ~job ~key payload =
  if key = "" then invalid_arg "Serve.Journal.put: empty key";
  append t (Put { job; key; payload })

let has_job t job = Mutex.protect t.lock (fun () -> has_puts t.st job)

let drop t ~job ?(key = "") () =
  let present =
    Mutex.protect t.lock (fun () ->
        if key = "" then has_puts t.st job else Hashtbl.mem t.st.puts (job, key))
  in
  if present then append t (Drop { job; key })

let finish t ~job files =
  append t (Finish { job; files });
  write_results t files

let finished t job = Mutex.protect t.lock (fun () -> Hashtbl.mem t.st.finished job)

let checkpoints t ~job =
  let module C = Powder.Checkpoint in
  {
    C.load = (fun key -> Option.map C.decode (find t ~job ~key));
    save = (fun key c -> put t ~job ~key (C.encode c));
    drop = (fun key -> drop t ~job ~key ());
  }

type stats = {
  size : int;
  live : int;
  compactions : int;
  torn_bytes : int;
}

let stats (t : t) =
  Mutex.protect t.lock (fun () ->
      {
        size = t.size;
        live = t.st.live_bytes;
        compactions = t.compactions;
        torn_bytes = t.torn_bytes;
      })

type image = {
  queue : string option;
  puts : ((string * string) * string) list;
  finished : string list;
  records : int;
  intact : int;
  bytes : int;
}

let read path =
  match Powder.Persist.read_file path with
  | Error e -> Error e
  | Ok s ->
    let st, intact, records, _ = replay s in
    let sorted l = List.sort compare l in
    Ok
      {
        queue = Option.map (fun l -> l.payload) st.queue;
        puts =
          sorted (Hashtbl.fold (fun k l acc -> (k, l.payload) :: acc) st.puts []);
        finished = sorted (Hashtbl.fold (fun j _ acc -> j :: acc) st.finished []);
        records;
        intact;
        bytes = String.length s;
      }
