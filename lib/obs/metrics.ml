type counter = { cname : string; mutable count : int }
type gauge = { gname : string; mutable gvalue : float }

let num_buckets = 64
let bucket_base = 1e-6 (* 1 microsecond *)

type histogram = {
  hname : string;
  mutable obs_count : int;
  mutable obs_sum : float;
  mutable obs_max : float;
  bins : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* The process-global registry.  Only ever touched from the domain that
   owns the run (the "main" domain): worker domains spawned by
   [Par.Pool] write through a shard installed in domain-local storage
   instead, and shards are merged back on the main domain at commit
   points.  That discipline — not a lock — is what makes the registry
   domain-safe. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* ------------------------------------------------------------------ *)
(* Shards: domain-local collectors for worker domains.                 *)
(* ------------------------------------------------------------------ *)

type shard = (string, metric) Hashtbl.t

let shard_key : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let create_shard () : shard = Hashtbl.create 16
let current_shard () = Domain.DLS.get shard_key

let install_shard sh =
  let prev = Domain.DLS.get shard_key in
  Domain.DLS.set shard_key (Some sh);
  prev

let restore_shard prev = Domain.DLS.set shard_key prev

let kind_error name what =
  invalid_arg ("Obs.Metrics: " ^ name ^ " already registered, not a " ^ what)

let counter_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name "counter"
  | None ->
    let c = { cname = name; count = 0 } in
    Hashtbl.add tbl name (Counter c);
    c

let gauge_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name "gauge"
  | None ->
    let g = { gname = name; gvalue = 0.0 } in
    Hashtbl.add tbl name (Gauge g);
    g

let histogram_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (Histogram h) -> h
  | Some _ -> kind_error name "histogram"
  | None ->
    let h =
      {
        hname = name;
        obs_count = 0;
        obs_sum = 0.0;
        obs_max = 0.0;
        bins = Array.make num_buckets 0;
      }
    in
    Hashtbl.add tbl name (Histogram h);
    h

(* Get-or-create resolves against the installed shard when there is
   one, so instrumentation running inside a pool task never writes the
   global Hashtbl. *)
let counter name =
  match current_shard () with
  | Some sh -> counter_in sh name
  | None -> counter_in registry name

let gauge name =
  match current_shard () with
  | Some sh -> gauge_in sh name
  | None -> gauge_in registry name

let histogram name =
  match current_shard () with
  | Some sh -> histogram_in sh name
  | None -> histogram_in registry name

(* Write paths re-resolve by name when a shard is installed: handles
   are hoisted at module init on the main domain, but the update must
   land in the current domain's collector. *)
let incr c =
  match current_shard () with
  | None -> c.count <- c.count + 1
  | Some sh ->
    let c' = counter_in sh c.cname in
    c'.count <- c'.count + 1

let add c n =
  match current_shard () with
  | None -> c.count <- c.count + n
  | Some sh ->
    let c' = counter_in sh c.cname in
    c'.count <- c'.count + n

let counter_value c = c.count

let set_gauge g v =
  match current_shard () with
  | None -> g.gvalue <- v
  | Some sh ->
    let g' = gauge_in sh g.gname in
    g'.gvalue <- v

let gauge_value g = g.gvalue

let bucket_of v =
  if v <= bucket_base then 0
  else
    let i = int_of_float (Float.ceil (Float.log2 (v /. bucket_base))) in
    if i >= num_buckets then num_buckets - 1 else if i < 0 then 0 else i

let bucket_upper i = bucket_base *. Float.pow 2.0 (float_of_int i)

let observe_in h v =
  h.obs_count <- h.obs_count + 1;
  h.obs_sum <- h.obs_sum +. v;
  if v > h.obs_max then h.obs_max <- v;
  let i = bucket_of v in
  h.bins.(i) <- h.bins.(i) + 1

let observe h v =
  match current_shard () with
  | None -> observe_in h v
  | Some sh -> observe_in (histogram_in sh h.hname) v

let histogram_count h = h.obs_count
let histogram_sum h = h.obs_sum
let histogram_max h = h.obs_max

(* Quantile estimate from the log buckets: the upper bound of the
   bucket holding the q-th observation, clamped by the exact maximum.
   One power-of-two bucket of relative error — plenty for "is p99 a
   millisecond or a second" questions without storing samples. *)
let histogram_quantile h q =
  if h.obs_count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int h.obs_count))) in
    let rec walk i cum =
      if i >= num_buckets then h.obs_max
      else
        let cum = cum + h.bins.(i) in
        if cum >= target then Float.min (bucket_upper i) h.obs_max
        else walk (i + 1) cum
    in
    walk 0 0
  end

let quantile_points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let histogram_buckets h =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if h.bins.(i) > 0 then acc := (bucket_upper i, h.bins.(i)) :: !acc
  done;
  !acc

let sorted_names tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

(* Merge is additive for counters and histograms, last-write for
   gauges, and registers any name the shard created.  Iterating
   name-sorted makes the merge order — and therefore the global
   floating-point sums — independent of Hashtbl layout. *)
let merge_shard (sh : shard) =
  (match current_shard () with
  | Some _ -> invalid_arg "Obs.Metrics.merge_shard: a shard is installed"
  | None -> ());
  List.iter
    (fun name ->
      match Hashtbl.find sh name with
      | Counter c ->
        let g = counter_in registry name in
        g.count <- g.count + c.count
      | Gauge gv ->
        let g = gauge_in registry name in
        g.gvalue <- gv.gvalue
      | Histogram h ->
        let g = histogram_in registry name in
        g.obs_count <- g.obs_count + h.obs_count;
        g.obs_sum <- g.obs_sum +. h.obs_sum;
        if h.obs_max > g.obs_max then g.obs_max <- h.obs_max;
        Array.iteri (fun i n -> g.bins.(i) <- g.bins.(i) + n) h.bins)
    (sorted_names sh)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.count <- 0
      | Gauge g -> g.gvalue <- 0.0
      | Histogram h ->
        h.obs_count <- 0;
        h.obs_sum <- 0.0;
        h.obs_max <- 0.0;
        Array.fill h.bins 0 num_buckets 0)
    registry

let find name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> Some (`Counter c.count)
  | Some (Gauge g) -> Some (`Gauge g.gvalue)
  | Some (Histogram h) -> Some (`Histogram (h.obs_count, h.obs_sum))
  | None -> None

let names () = sorted_names registry

let pp_duration fmt s =
  if s < 1e-3 then Format.fprintf fmt "%.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%.2fms" (s *. 1e3)
  else Format.fprintf fmt "%.3fs" s

let dump fmt () =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun name ->
      match Hashtbl.find registry name with
      | Counter c -> Format.fprintf fmt "%-40s %d@," name c.count
      | Gauge g -> Format.fprintf fmt "%-40s %g@," name g.gvalue
      | Histogram h ->
        let mean =
          if h.obs_count = 0 then 0.0
          else h.obs_sum /. float_of_int h.obs_count
        in
        Format.fprintf fmt "%-40s count=%d sum=%a mean=%a@," name h.obs_count
          pp_duration h.obs_sum pp_duration mean;
        if h.obs_count > 0 then begin
          Format.fprintf fmt "%-40s " "";
          List.iter
            (fun (label, q) ->
              Format.fprintf fmt "%s=%a " label pp_duration
                (histogram_quantile h q))
            quantile_points;
          Format.fprintf fmt "max=%a@," pp_duration h.obs_max;
          Format.fprintf fmt "%-40s " "";
          List.iter
            (fun (ub, n) -> Format.fprintf fmt "le(%a)=%d " pp_duration ub n)
            (histogram_buckets h);
          Format.fprintf fmt "@,"
        end)
    (names ());
  Format.fprintf fmt "@]"
