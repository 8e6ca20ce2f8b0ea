module J = Obs.Json

(* Bump when the schema changes; load refuses other versions. *)
let version = 4

let magic = "powder-checkpoint"

type t = {
  round : int;
  status : string;
      (** ["running"] while the loop was still live at save time;
          otherwise the final [stopped_by] label — resume returns the
          finished report instead of re-running an empty round *)
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
      (** measured at the original run start under [--cost glitch];
          [None] under the zero-delay cost model *)
  degradation_level : int;
}

let to_json c =
  J.Obj
    [
      ("magic", J.String magic);
      ("version", J.Int version);
      ("round", J.Int c.round);
      ("status", J.String c.status);
      ("substitutions", J.Int c.substitutions);
      ("seed", J.String (Int64.to_string c.seed));
      ("blif", J.String c.blif);
      ( "cex",
        J.List
          (List.map
             (fun assignment ->
               J.Obj
                 (List.map (fun (name, v) -> (name, J.Bool v)) assignment))
             c.cex) );
      ("cex_cursor", J.Int c.cex_cursor);
      ("candidates_generated", J.Int c.candidates_generated);
      ("checks_run", J.Int c.checks_run);
      ("rejected_by_delay", J.Int c.rejected_by_delay);
      ("rejected_by_atpg", J.Int c.rejected_by_atpg);
      ("rejected_by_giveup", J.Int c.rejected_by_giveup);
      ("rejected_by_timeout", J.Int c.rejected_by_timeout);
      ("rejected_by_cex", J.Int c.rejected_by_cex);
      ("sig_hits", J.Int c.sig_hits);
      ("sig_filtered", J.Int c.sig_filtered);
      ("sig_resim_nodes", J.Int c.sig_resim_nodes);
      ("is3_candidates", J.Int c.is3_candidates);
      ("rolled_back", J.Int c.rolled_back);
      ("verified_applies", J.Int c.verified_applies);
      ("window_checks", J.Int c.window_checks);
      ("window_proved", J.Int c.window_proved);
      ("window_escalated", J.Int c.window_escalated);
      ( "giveup_breakdown",
        J.Obj (List.map (fun (k, n) -> (k, J.Int n)) c.giveup_breakdown) );
      ( "by_class",
        J.Obj
          (List.map
             (fun (k, (acc, pg, ag)) ->
               ( k,
                 J.Obj
                   [
                     ("accepted", J.Int acc);
                     ("power_gain", J.Float pg);
                     ("area_gain", J.Float ag);
                   ] ))
             c.by_class) );
      ("initial_power", J.Float c.initial_power);
      ("initial_area", J.Float c.initial_area);
      ("initial_delay", J.Float c.initial_delay);
      ( "initial_glitch_power",
        match c.initial_glitch_power with None -> J.Null | Some g -> J.Float g
      );
      ("degradation_level", J.Int c.degradation_level);
    ]

type error =
  | Io of string
  | Corrupt of string
  | Bad_version of { found : int; expected : int }

let error_to_string = function
  | Io m -> "checkpoint: " ^ m
  | Corrupt m -> "checkpoint: corrupt: " ^ m
  | Bad_version { found; expected } ->
    Printf.sprintf "checkpoint: version %d, expected %d" found expected

let encode c = J.to_string (to_json c)

(* Crash-atomic and durable through [Persist.write_atomic]: a kill or
   power cut at any instant leaves either the complete old checkpoint
   or the complete new one — and [load] rejects anything else with a
   typed error. *)
let save file c = Persist.write_atomic file (encode c ^ "\n")

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None ->
    Error (Corrupt (Printf.sprintf "missing or invalid field %S" name))

let of_json j =
  let* m = field "magic" J.get_string j in
  if m <> magic then Error (Corrupt "bad magic")
  else
    let* v = field "version" J.get_int j in
    if v <> version then Error (Bad_version { found = v; expected = version })
    else
      let* round = field "round" J.get_int j in
      let* status = field "status" J.get_string j in
      let* substitutions = field "substitutions" J.get_int j in
      let* seed_s = field "seed" J.get_string j in
      let* seed =
        match Int64.of_string_opt seed_s with
        | Some s -> Ok s
        | None -> Error (Corrupt "bad seed")
      in
      let* blif = field "blif" J.get_string j in
      let* cex_json = field "cex" J.get_list j in
      let* cex =
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            match entry with
            | J.Obj fields ->
              let* assignment =
                List.fold_left
                  (fun acc (name, v) ->
                    let* acc = acc in
                    match J.get_bool v with
                    | Some b -> Ok ((name, b) :: acc)
                    | None -> Error (Corrupt "non-bool cex value"))
                  (Ok []) fields
              in
              Ok (List.rev assignment :: acc)
            | _ -> Error (Corrupt "cex entry is not an object"))
          (Ok []) cex_json
      in
      let cex = List.rev cex in
      let* cex_cursor = field "cex_cursor" J.get_int j in
      let* candidates_generated = field "candidates_generated" J.get_int j in
      let* checks_run = field "checks_run" J.get_int j in
      let* rejected_by_delay = field "rejected_by_delay" J.get_int j in
      let* rejected_by_atpg = field "rejected_by_atpg" J.get_int j in
      let* rejected_by_giveup = field "rejected_by_giveup" J.get_int j in
      let* rejected_by_timeout = field "rejected_by_timeout" J.get_int j in
      let* rejected_by_cex = field "rejected_by_cex" J.get_int j in
      let* sig_hits = field "sig_hits" J.get_int j in
      let* sig_filtered = field "sig_filtered" J.get_int j in
      let* sig_resim_nodes = field "sig_resim_nodes" J.get_int j in
      let* is3_candidates = field "is3_candidates" J.get_int j in
      let* rolled_back = field "rolled_back" J.get_int j in
      let* verified_applies = field "verified_applies" J.get_int j in
      let* window_checks = field "window_checks" J.get_int j in
      let* window_proved = field "window_proved" J.get_int j in
      let* window_escalated = field "window_escalated" J.get_int j in
      let* giveup_breakdown =
        match J.member "giveup_breakdown" j with
        | Some (J.Obj fields) ->
          List.fold_left
            (fun acc (k, v) ->
              let* acc = acc in
              match J.get_int v with
              | Some n -> Ok ((k, n) :: acc)
              | None -> Error (Corrupt "bad giveup_breakdown"))
            (Ok []) fields
          |> Result.map List.rev
        | _ -> Error (Corrupt "missing giveup_breakdown")
      in
      let* by_class =
        match J.member "by_class" j with
        | Some (J.Obj fields) ->
          List.fold_left
            (fun acc (k, v) ->
              let* acc = acc in
              let* accepted = field "accepted" J.get_int v in
              let* pg = field "power_gain" J.get_float v in
              let* ag = field "area_gain" J.get_float v in
              Ok ((k, (accepted, pg, ag)) :: acc))
            (Ok []) fields
          |> Result.map List.rev
        | _ -> Error (Corrupt "missing by_class")
      in
      let* initial_power = field "initial_power" J.get_float j in
      let* initial_area = field "initial_area" J.get_float j in
      let* initial_delay = field "initial_delay" J.get_float j in
      let* initial_glitch_power =
        match J.member "initial_glitch_power" j with
        | Some J.Null -> Ok None
        | Some v -> (
          match J.get_float v with
          | Some g -> Ok (Some g)
          | None -> Error (Corrupt "bad initial_glitch_power"))
        | None -> Error (Corrupt "missing initial_glitch_power")
      in
      let* degradation_level = field "degradation_level" J.get_int j in
      Ok
        {
          round;
          status;
          substitutions;
          seed;
          blif;
          cex;
          cex_cursor;
          candidates_generated;
          checks_run;
          rejected_by_delay;
          rejected_by_atpg;
          rejected_by_giveup;
          rejected_by_timeout;
          rejected_by_cex;
          sig_hits;
          sig_filtered;
          sig_resim_nodes;
          is3_candidates;
          rolled_back;
          verified_applies;
          window_checks;
          window_proved;
          window_escalated;
          giveup_breakdown;
          by_class;
          initial_power;
          initial_area;
          initial_delay;
          initial_glitch_power;
          degradation_level;
        }

let decode = function
  | "" -> Error (Corrupt "empty file")
  | text -> (
    match J.of_string (String.trim text) with
    | Error e -> Error (Corrupt ("invalid JSON: " ^ e))
    | Ok j -> of_json j)

let load file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Io e)
  | exception End_of_file -> Error (Corrupt "truncated file")
  | text -> decode text

type store = {
  load : string -> (t, error) result option;
  save : string -> t -> unit;
  drop : string -> unit;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let dir_store dir =
  mkdir_p dir;
  let file key = Filename.concat dir (key ^ ".json") in
  {
    load =
      (fun key ->
        let f = file key in
        if Sys.file_exists f then Some (load f) else None);
    save = (fun key c -> save (file key) c);
    drop = (fun key -> try Sys.remove (file key) with Sys_error _ -> ());
  }
