type state = Queued | Running | Retrying | Preempted | Done | Failed

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Retrying -> "retrying"
  | Preempted -> "preempted"
  | Done -> "done"
  | Failed -> "failed"

let all_states = [ Queued; Running; Retrying; Preempted; Done; Failed ]

type t = {
  states : (string, state) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable latencies : float list;  (* unordered; sorted on demand *)
  mutable latency_count : int;
  mutable latency_sum : float;
}

let create () =
  {
    states = Hashtbl.create 64;
    counters = Hashtbl.create 16;
    latencies = [];
    latency_count = 0;
    latency_sum = 0.0;
  }

let transition t ~id state = Hashtbl.replace t.states id state
let state_of t ~id = Hashtbl.find_opt t.states id

let state_count t s =
  Hashtbl.fold (fun _ s' n -> if s = s' then n + 1 else n) t.states 0

let queue_depth t =
  state_count t Queued + state_count t Retrying + state_count t Preempted

let jobs_total t = Hashtbl.length t.states

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let count t name = incr (counter_ref t name)
let observe_latency t secs =
  t.latencies <- secs :: t.latencies;
  t.latency_count <- t.latency_count + 1;
  t.latency_sum <- t.latency_sum +. secs

let latency_count t = t.latency_count

let sorted_latencies t = List.sort Float.compare t.latencies

let latency_quantile t q =
  if t.latency_count = 0 then 0.0
  else
    let xs = Array.of_list (sorted_latencies t) in
    let n = Array.length xs in
    (* nearest-rank: the smallest observation covering a q fraction *)
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    xs.(max 0 (min (n - 1) (rank - 1)))

let to_json t =
  let jobs =
    Json.Obj
      (("total", Json.Int (jobs_total t))
      :: ("queue_depth", Json.Int (queue_depth t))
      :: List.map
           (fun s -> (state_name s, Json.Int (state_count t s)))
           all_states)
  in
  let counters =
    Hashtbl.fold (fun k r acc -> (k, Json.Int !r) :: acc) t.counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let latency =
    Json.Obj
      [
        ("count", Json.Int t.latency_count);
        ( "mean_s",
          Json.Float
            (if t.latency_count = 0 then 0.0
             else t.latency_sum /. float_of_int t.latency_count) );
        ("p50_s", Json.Float (latency_quantile t 0.5));
        ("p90_s", Json.Float (latency_quantile t 0.9));
        ("p99_s", Json.Float (latency_quantile t 0.99));
        ("max_s", Json.Float (latency_quantile t 1.0));
      ]
  in
  Json.Obj
    [ ("jobs", jobs); ("counters", Json.Obj counters); ("latency", latency) ]
