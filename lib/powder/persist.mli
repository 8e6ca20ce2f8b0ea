(** Crash-atomic durable file writes: the one tmp + fsync + rename +
    directory-fsync discipline behind checkpoint files, the serve
    journal's compaction and (without the fsyncs) serve's result
    files. *)

val write_atomic : ?durable:bool -> string -> string -> unit
(** [write_atomic path contents]: write [path ^ ".tmp"], fsync, rename
    over [path], then best-effort fsync the directory.  A kill at any
    instant leaves either the old complete file or the new one.

    [~durable:false] skips both fsyncs: readers still never see a
    partial file, but a power cut may lose it, so the caller must hold
    a durable copy elsewhere (serve's result files, whose copy is a
    journal record).  On some file systems a file that was fsync'd
    costs tens of milliseconds to unlink or replace later, and one
    that was not costs nothing.

    A write that lands on an existing [path] counts [persist.replaced]:
    replacing a file frees its blocks. *)

val write_atomic_with :
  ?durable:bool -> string -> (Unix.file_descr -> unit) -> unit
(** {!write_atomic} with the contents written by the callback into the
    tmp file's descriptor, for contents too large to build in memory
    first. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory, so a create or rename in it is
    durable; filesystems that refuse it are ignored. *)

val read_file : string -> (string, string) result
(** Whole-file read; [Error] carries the system message. *)
