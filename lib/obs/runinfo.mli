(** The run manifest: host, toolchain and configuration identity
    embedded in every report, trace and bench record so runs are
    comparable across machines and PRs.

    A manifest answers "may these two artifacts be diffed?": same
    [tool], [seed], [circuit] and [options_hash] means the runs did the
    same deterministic work, and everything else ({!volatile_fields})
    is allowed to differ — machine, moment, and [--jobs] width. *)

val schema_version : int
(** Version of the manifest/profile/bench schema; bumped on breaking
    shape changes so downstream diff tools can refuse mismatches. *)

type t = {
  tool : string;
  hostname : string;
  pid : int;
  cores : int;  (** [Domain.recommended_domain_count] at run time *)
  ocaml_version : string;
  word_size : int;
  os_type : string;
  timestamp : float;  (** unix seconds at manifest creation *)
  jobs : int;
  seed : int64;
  circuit : string;  (** circuit name, input file, or suite label *)
  options : (string * string) list;  (** canonical (name-sorted) options *)
  options_hash : string;  (** md5 hex of the canonical options *)
}

val create :
  ?tool:string ->
  jobs:int ->
  seed:int64 ->
  circuit:string ->
  options:(string * string) list ->
  unit ->
  t
(** Snapshot the current host and the given run configuration.
    [options] is sorted and hashed; pass every knob that changes the
    deterministic result (words, delay mode, classes, engine, ...). *)

val volatile_fields : string list
(** Manifest fields that may differ between two comparable runs
    (hostname, pid, cores, ocaml_version, word_size, os_type,
    timestamp, jobs).  [json_check --compare-reports] and the profile
    identity tests strip exactly these. *)

val to_json : t -> Json.t
val strip_volatile : Json.t -> Json.t
(** Drop {!volatile_fields} from a manifest JSON object. *)

val emit_run_start : t -> unit
(** Emit the [run_start] header event carrying the manifest as flat
    trace-event fields.  Call
    immediately after installing a trace sink so the header is the
    first record of the stream. *)
