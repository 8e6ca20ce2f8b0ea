(** Serve's durable state: one append-only journal file.

    Every durable write — a queue snapshot, a checkpoint put keyed by
    job and key, a checkpoint drop, a finished job's result files — is
    one framed record appended and fsync'd under a mutex (the worker
    slots checkpoint concurrently).
    A frame is the body length (u32, little-endian), the [Digest] of
    the body and the body.  Nothing is renamed over, truncated or
    unlinked on the append path: replacing or unlinking a file whose
    data was fsync'd frees blocks, which on some file systems costs
    tens of milliseconds, while an append and an fsync cost well under
    one.

    Recovery replays the file and keeps the last intact record of each
    key (the last queue snapshot; per job and key the last put, unless
    a later drop or result removed it; per job its result); it stops at
    the first frame that is cut short or fails its digest, and ignores
    everything after it.

    Result files live as ordinary files beside the journal, written
    without an fsync: their result record is the durable copy, and
    {!open_} rewrites any file that is missing or differs from it.  A
    result record stays live as long as the journal does.

    Space comes back only through compaction: the live records are
    written to a fresh file, fsync'd and renamed over the journal
    ({!Powder.Persist.write_atomic_with}).  It runs on {!open_} when the
    file holds dead records or a torn tail, and after an append once
    the dead bytes exceed max(8 MiB, 4 x the live bytes). *)

type t

val open_ : string -> t
(** Open the journal at this path, creating it if absent, and recover
    its state; compacts first if anything in the file is dead or torn,
    then puts back result files that are missing or differ.
    @raise Failure if the file exists but cannot be read. *)

val close : t -> unit

(** {2 Records}

    Each write below returns once its record is fsync'd. *)

val queue : t -> string option
(** The latest queue snapshot. *)

val set_queue : t -> string -> unit
(** Append a queue snapshot; it replaces the previous one. *)

val find : t -> job:string -> key:string -> string option
(** The latest payload put under [(job, key)], unless dropped since. *)

val put : t -> job:string -> key:string -> string -> unit
(** @raise Invalid_argument on an empty key. *)

val drop : t -> job:string -> ?key:string -> unit -> unit
(** Drop one key of the job, or with no [key] every key of it.  Appends
    nothing when there is nothing to drop. *)

val has_job : t -> string -> bool
(** Has the job at least one live put? *)

val finish : t -> job:string -> (string * string) list -> unit
(** [finish t ~job files]: append the job's result record, which also
    drops every checkpoint of the job, then write each [(name,
    contents)] to [name] relative to the journal's directory (through
    [Powder.Persist.write_atomic ~durable:false]; the directory must
    exist). *)

val finished : t -> string -> bool
(** Does the journal hold a result record for the job? *)

val checkpoints : t -> job:string -> Powder.Checkpoint.store
(** The job's checkpoints as a store: key [k] is the record
    [(job, k)], payloads are {!Powder.Checkpoint.encode}d. *)

type stats = {
  size : int;  (** bytes in the file *)
  live : int;  (** bytes a compaction would keep *)
  compactions : int;  (** since {!open_}, the one on open included *)
  torn_bytes : int;  (** cut off the tail on open *)
}

val stats : t -> stats

(** {2 Reading without opening} *)

type image = {
  queue : string option;
  puts : ((string * string) * string) list;
      (** live [((job, key), payload)], sorted by key *)
  finished : string list;  (** jobs with a result record, sorted *)
  records : int;  (** intact records replayed *)
  intact : int;  (** bytes of the intact prefix *)
  bytes : int;  (** bytes in the file *)
}

val read : string -> (image, string) result
(** Replay a journal file as {!open_} would, without writing anything. *)
