let m_replaced = Obs.Metrics.counter "persist.replaced"

(* durability of a rename or a create is best-effort: some filesystems
   refuse to fsync a directory fd *)
let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 with
  | dirfd ->
    (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
    (try Unix.close dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let write_atomic_with ?(durable = true) path write =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let closed = ref false in
  Fun.protect
    ~finally:(fun () -> if not !closed then try Unix.close fd with _ -> ())
    (fun () ->
      write fd;
      if durable then Unix.fsync fd;
      Unix.close fd;
      closed := true);
  if Sys.file_exists path then Obs.Metrics.incr m_replaced;
  Sys.rename tmp path;
  if durable then fsync_dir (Filename.dirname path)

let write_atomic ?durable path contents =
  write_atomic_with ?durable path (fun fd -> write_all fd contents)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception End_of_file -> Error (path ^ ": truncated read"))
