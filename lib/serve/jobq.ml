module J = Obs.Json

type entry = {
  job : Protocol.job;
  mutable attempts : int;
  mutable retries : int;
  mutable preemptions : int;
  mutable consumed : float;
  mutable not_before : float;
  mutable resumable : bool;
  seq : int;
}

type t = { mutable entries : entry list; mutable next_seq : int }

let create () = { entries = []; next_seq = 0 }
let length t = List.length t.entries
let is_empty t = t.entries = []
let mem t id = List.exists (fun e -> e.job.Protocol.id = id) t.entries

let submit t job =
  let e =
    {
      job;
      attempts = 0;
      retries = 0;
      preemptions = 0;
      consumed = 0.0;
      not_before = 0.0;
      resumable = false;
      seq = t.next_seq;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.entries <- t.entries @ [ e ];
  e

let better a b =
  a.job.Protocol.priority > b.job.Protocol.priority
  || (a.job.Protocol.priority = b.job.Protocol.priority && a.seq < b.seq)

let find_best t ~now =
  List.fold_left
    (fun best e ->
      if e.not_before > now then best
      else
        match best with
        | Some b when better b e -> best
        | _ -> Some e)
    None t.entries

let pop_runnable t ~now =
  match find_best t ~now with
  | None -> None
  | Some e ->
    t.entries <- List.filter (fun e' -> e' != e) t.entries;
    Some e

let requeue t e = t.entries <- t.entries @ [ e ]

let next_wakeup t ~now =
  match find_best t ~now with
  | Some _ -> None
  | None ->
    List.fold_left
      (fun acc e ->
        if e.not_before <= now then acc
        else
          match acc with
          | Some w when w <= e.not_before -> acc
          | _ -> Some e.not_before)
      None t.entries

let entry_to_json e =
  J.Obj
    [
      ("job", Protocol.job_to_json e.job);
      ("attempts", J.Int e.attempts);
      ("retries", J.Int e.retries);
      ("preemptions", J.Int e.preemptions);
      ("consumed_s", J.Float e.consumed);
      ("resumable", J.Bool e.resumable);
    ]

let to_list t = List.sort (fun a b -> compare a.seq b.seq) t.entries

let to_json ?(extra = []) t =
  (* seq order = submission order; of_json re-numbers from zero *)
  let es =
    List.sort (fun a b -> compare a.seq b.seq) (extra @ t.entries)
  in
  J.Obj [ ("pending", J.List (List.map entry_to_json es)) ]

let ( let* ) = Result.bind

let entry_of_json t j =
  match j with
  | J.Obj fields ->
    let mem k = List.assoc_opt k fields in
    let* job =
      match mem "job" with
      | None -> Error (Protocol.Missing_field "job")
      | Some v -> Protocol.job_of_json v
    in
    let int_field k =
      match Option.bind (mem k) J.get_int with Some n -> n | None -> 0
    in
    let e = submit t job in
    e.attempts <- int_field "attempts";
    e.retries <- int_field "retries";
    e.preemptions <- int_field "preemptions";
    (e.consumed <-
       (match Option.bind (mem "consumed_s") J.get_float with
       | Some c -> c
       | None -> 0.0));
    (e.resumable <-
       (match Option.bind (mem "resumable") J.get_bool with
       | Some b -> b
       | None -> false));
    Ok ()
  | _ -> Error Protocol.Not_an_object

let of_json j =
  match j with
  | J.Obj fields -> (
    match List.assoc_opt "pending" fields with
    | Some (J.List items) ->
      let t = create () in
      let* () =
        List.fold_left
          (fun acc item ->
            let* () = acc in
            entry_of_json t item)
          (Ok ()) items
      in
      Ok t
    | Some _ -> Error (Protocol.Bad_field ("pending", "must be a list"))
    | None -> Error (Protocol.Missing_field "pending"))
  | _ -> Error Protocol.Not_an_object
