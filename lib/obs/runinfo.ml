(* The run manifest: everything needed to decide whether two profiles,
   traces or bench records are comparable.  Embedded as the first JSONL
   record of every trace ([run_start]), as the ["run"] field of report
   and profile JSON, and as the manifest of every powderbench repeat. *)

let schema_version = 1

type t = {
  tool : string;
  hostname : string;
  pid : int;
  cores : int;
  ocaml_version : string;
  word_size : int;
  os_type : string;
  timestamp : float;  (* unix seconds at manifest creation *)
  jobs : int;
  seed : int64;
  circuit : string;
  options : (string * string) list;  (* canonical, name-sorted *)
  options_hash : string;             (* md5 hex of the canonical options *)
}

let hash_options options =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) options)))

let create ?(tool = "powder") ~jobs ~seed ~circuit ~options () =
  let options = List.sort compare options in
  {
    tool;
    hostname = Unix.gethostname ();
    pid = Unix.getpid ();
    cores = Domain.recommended_domain_count ();
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    os_type = Sys.os_type;
    timestamp = Unix.gettimeofday ();
    jobs;
    seed;
    circuit;
    options;
    options_hash = hash_options options;
  }

(* Fields that legitimately differ between two runs of the same
   experiment: the machine, the moment, and the parallelism width.
   [json_check --compare-reports] and the profile identity tests strip
   exactly this list, so keep it in one place. *)
let volatile_fields =
  [
    "hostname"; "pid"; "cores"; "ocaml_version"; "word_size"; "os_type";
    "timestamp"; "jobs";
  ]

let to_json m =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("tool", Json.String m.tool);
      ("hostname", Json.String m.hostname);
      ("pid", Json.Int m.pid);
      ("cores", Json.Int m.cores);
      ("ocaml_version", Json.String m.ocaml_version);
      ("word_size", Json.Int m.word_size);
      ("os_type", Json.String m.os_type);
      ("timestamp", Json.Float m.timestamp);
      ("jobs", Json.Int m.jobs);
      ("seed", Json.String (Int64.to_string m.seed));
      ("circuit", Json.String m.circuit);
      ("options", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) m.options));
      ("options_hash", Json.String m.options_hash);
    ]

(* The [run_start] trace header: the manifest flattened to event
   fields (options as one canonical string, so the event stays a flat
   record like every other trace line). *)
let to_fields m =
  [
    ("schema_version", Trace.Int schema_version);
    ("tool", Trace.String m.tool);
    ("hostname", Trace.String m.hostname);
    ("pid", Trace.Int m.pid);
    ("cores", Trace.Int m.cores);
    ("ocaml_version", Trace.String m.ocaml_version);
    ("word_size", Trace.Int m.word_size);
    ("os_type", Trace.String m.os_type);
    ("timestamp", Trace.Float m.timestamp);
    ("jobs", Trace.Int m.jobs);
    ("seed", Trace.String (Int64.to_string m.seed));
    ("circuit", Trace.String m.circuit);
    ( "options",
      Trace.String
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) m.options)) );
    ("options_hash", Trace.String m.options_hash);
  ]

let emit_run_start m = Trace.event "run_start" (to_fields m)

(* Strip the machine/moment/width fields from a manifest JSON object,
   leaving the comparable identity (tool, seed, circuit, options). *)
let strip_volatile = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter (fun (k, _) -> not (List.mem k volatile_fields)) fields)
  | other -> other
