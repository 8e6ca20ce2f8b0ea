(** Optimizer checkpoints: everything needed to continue an interrupted
    run, serialized as a single JSON object (the netlist rides along as
    an embedded BLIF string).

    Determinism contract: the optimizer re-canonicalizes its own state
    (serialize -> reparse -> rebuild engines -> replay counterexamples)
    at every checkpoint boundary, because a BLIF round-trip renumbers
    nodes and candidate generation iterates in node-id order.  A run
    resumed from a checkpoint therefore continues exactly like an
    uninterrupted run that checkpoints at the same cadence. *)

type t = {
  round : int;
  status : string;
      (** ["running"] while the loop was still live at save time;
          otherwise the final [stopped_by] label ([converged],
          [max_substitutions], [degradation], ...) — resuming such a
          checkpoint returns the finished report without extra rounds *)
  substitutions : int;
  seed : int64;
  blif : string;
  cex : (string * bool) list list;  (** oldest first, for in-order replay *)
  cex_cursor : int;
  candidates_generated : int;
  checks_run : int;
  rejected_by_delay : int;
  rejected_by_atpg : int;
  rejected_by_giveup : int;
  rejected_by_timeout : int;
  rejected_by_cex : int;
  sig_hits : int;
  sig_filtered : int;
  sig_resim_nodes : int;
  is3_candidates : int;
  rolled_back : int;
  verified_applies : int;
  window_checks : int;
  window_proved : int;
  window_escalated : int;
  giveup_breakdown : (string * int) list;
  by_class : (string * (int * float * float)) list;
      (** class name -> (accepted, power_gain, area_gain) *)
  initial_power : float;
  initial_area : float;
  initial_delay : float;
  initial_glitch_power : float option;
      (** measured at the original run start under the glitch cost
          model; [None] under zero-delay cost.  Restored on resume so
          the resumed report's glitch accounting matches the
          uninterrupted run byte for byte. *)
  degradation_level : int;
}

val version : int

val to_json : t -> Obs.Json.t

type error =
  | Io of string
      (** the file cannot be opened or read (missing, permissions, ...) *)
  | Corrupt of string
      (** truncated or garbled contents: invalid JSON, bad magic,
          missing or mistyped fields *)
  | Bad_version of { found : int; expected : int }

val error_to_string : error -> string

val encode : t -> string
(** The serialized form: one JSON object ({!save} adds a newline). *)

val decode : string -> (t, error) result
(** Inverse of {!encode}; never raises: empty, truncated or garbled text
    comes back as [Corrupt], a schema mismatch as [Bad_version]. *)

val save : string -> t -> unit
(** Crash-atomic and durable ({!Persist.write_atomic}): write to
    [file ^ ".tmp"], fsync, rename over [file], fsync the directory.  A
    kill or power cut at any instant leaves either the previous complete
    checkpoint or the new one — never a torn write.  Raises
    [Unix.Unix_error] / [Sys_error] only on real I/O failure (disk full,
    bad path). *)

val load : string -> (t, error) result
(** Never raises: unreadable files come back as [Io], truncated or
    garbled ones as [Corrupt], schema mismatches as [Bad_version]. *)

(** {2 Stores}

    One interface for every resume layer: a store holds checkpoints by
    key.  The CLI's [--checkpoint-dir] keeps one file per key
    ({!dir_store}); the serve supervisor keeps them as records of its
    journal, keyed by job and point. *)

type store = {
  load : string -> (t, error) result option;
      (** [None]: nothing saved under the key, or it was dropped;
          [Some (Error _)]: the saved checkpoint does not decode *)
  save : string -> t -> unit;
      (** durable when it returns *)
  drop : string -> unit;  (** a no-op on an absent key *)
}

val dir_store : string -> store
(** Key [k] is the file [dir/k.json]; [dir] is created eagerly. *)
