type give_up = Conflicts | Deadline

type result = Sat of bool array | Unsat | Timeout of give_up

let pp_give_up fmt = function
  | Conflicts -> Format.pp_print_string fmt "conflicts"
  | Deadline -> Format.pp_print_string fmt "deadline"

let lit_of v sign = (2 * v) lor (if sign then 0 else 1)
let var_of l = l lsr 1
let neg l = l lxor 1

(* values: 0 unassigned, 1 true, 2 false (for the literal's variable) *)

type clause = { mutable lits : int array; mutable activity : float }

type solver = {
  nvars : int;
  mutable clauses : clause array;
  mutable n_clauses : int;
  watches : clause list array; (* indexed by literal *)
  assign : int array;          (* per var: 0 / 1 (true) / 2 (false) *)
  level : int array;
  reason : clause option array;
  trail : int array;           (* assigned literals in order *)
  mutable trail_len : int;
  trail_lim : int array;       (* trail length at each decision level *)
  mutable decision_level : int;
  activity : float array;
  (* decision order: an indexed binary max-heap of variables by
     activity, lower index first on ties — exactly the variable a
     linear scan for the first maximum picks.  Every unassigned
     variable is in the heap; assigned ones leave it lazily, when they
     surface at the top. *)
  heap : int array;
  mutable heap_len : int;
  heap_pos : int array; (* per var: index into [heap], -1 if absent *)
  mutable var_inc : float;
  mutable conflicts : int;
  seen : bool array;
}

let value s l =
  let v = s.assign.(var_of l) in
  if v = 0 then 0 else if (v = 1) = (l land 1 = 0) then 1 else 2

let watch s l c = s.watches.(l) <- c :: s.watches.(l)

let enqueue s l reason =
  let v = var_of l in
  s.assign.(v) <- (if l land 1 = 0 then 1 else 2);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

exception Conflict_found of clause

(* propagate all pending assignments; raises Conflict_found *)
let propagate s qhead_start =
  let qhead = ref qhead_start in
  while !qhead < s.trail_len do
    let l = s.trail.(!qhead) in
    incr qhead;
    let falsified = neg l in
    let old_watch = s.watches.(falsified) in
    s.watches.(falsified) <- [];
    let rec go = function
      | [] -> ()
      | c :: rest -> (
        (* ensure falsified is at position 1 *)
        let lits = c.lits in
        if Array.length lits >= 2 && lits.(0) = falsified then begin
          lits.(0) <- lits.(1);
          lits.(1) <- falsified
        end;
        if Array.length lits >= 1 && value s lits.(0) = 1 then begin
          (* clause already satisfied; keep watching *)
          watch s falsified c;
          go rest
        end
        else begin
          (* look for a new literal to watch *)
          let found = ref false in
          let i = ref 2 in
          let n = Array.length lits in
          while (not !found) && !i < n do
            if value s lits.(!i) <> 2 then begin
              let tmp = lits.(1) in
              lits.(1) <- lits.(!i);
              lits.(!i) <- tmp;
              watch s lits.(1) c;
              found := true
            end;
            incr i
          done;
          if !found then go rest
          else begin
            (* unit or conflicting *)
            watch s falsified c;
            if n = 0 || value s lits.(0) = 2 then begin
              (* conflict: restore remaining watches first *)
              List.iter (fun c' -> watch s falsified c') rest;
              raise (Conflict_found c)
            end
            else begin
              enqueue s lits.(0) (Some c);
              go rest
            end
          end
        end)
    in
    go old_watch
  done

let before s a b =
  let x = s.activity.(a) and y = s.activity.(b) in
  x > y || (x = y && a < b)

let heap_set s i v =
  s.heap.(i) <- v;
  s.heap_pos.(v) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = s.heap.(i) and pv = s.heap.(parent) in
    if before s v pv then begin
      heap_set s parent v;
      heap_set s i pv;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 in
  if l < s.heap_len then begin
    let r = l + 1 in
    let c = if r < s.heap_len && before s s.heap.(r) s.heap.(l) then r else l in
    let v = s.heap.(i) and cv = s.heap.(c) in
    if before s cv v then begin
      heap_set s i cv;
      heap_set s c v;
      heap_down s c
    end
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    heap_set s s.heap_len v;
    s.heap_len <- s.heap_len + 1;
    heap_up s (s.heap_len - 1)
  end

let heap_pop s =
  s.heap_pos.(s.heap.(0)) <- -1;
  s.heap_len <- s.heap_len - 1;
  if s.heap_len > 0 then begin
    heap_set s 0 s.heap.(s.heap_len);
    heap_down s 0
  end

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    (* rescaling can round distinct activities into ties, which the
       index order must now break: rebuild the heap bottom-up *)
    for i = (s.heap_len / 2) - 1 downto 0 do
      heap_down s i
    done
  end
  else if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* first-UIP learning *)
let analyze s conflict =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let backtrack_level = ref 0 in
  let index = ref (s.trail_len - 1) in
  let reason_lits c p =
    (* all literals except p *)
    Array.to_list c.lits |> List.filter (fun l -> l <> p)
  in
  let process_clause c pivot =
    List.iter
      (fun q ->
        let v = var_of q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          bump s v;
          if s.level.(v) >= s.decision_level then incr counter
          else begin
            learnt := q :: !learnt;
            if s.level.(v) > !backtrack_level then backtrack_level := s.level.(v)
          end
        end)
      (reason_lits c pivot)
  in
  process_clause conflict (-1);
  let uip = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (* find next seen literal on the trail *)
    while not s.seen.(var_of s.trail.(!index)) do
      decr index
    done;
    p := s.trail.(!index);
    let v = var_of !p in
    s.seen.(v) <- false;
    decr counter;
    decr index;
    if !counter = 0 then begin
      uip := neg !p;
      continue_ := false
    end
    else begin
      match s.reason.(v) with
      | Some c -> process_clause c !p
      | None -> (* decision reached with counter > 0: shouldn't happen *) ()
    end
  done;
  List.iter (fun q -> s.seen.(var_of q) <- false) !learnt;
  (!uip :: !learnt, !backtrack_level)

let backtrack s lvl =
  let target = if lvl < Array.length s.trail_lim then s.trail_lim.(lvl) else s.trail_len in
  for i = s.trail_len - 1 downto target do
    let v = var_of s.trail.(i) in
    s.assign.(v) <- 0;
    s.reason.(v) <- None;
    heap_insert s v
  done;
  s.trail_len <- target;
  s.decision_level <- lvl

let add_clause s lits =
  let c = { lits = Array.of_list lits; activity = 0.0 } in
  (match c.lits with
  | [||] -> ()
  | [| l |] -> watch s l c (* degenerate; handled at solve start *)
  | _ ->
    watch s c.lits.(0) c;
    watch s c.lits.(1) c);
  if s.n_clauses = Array.length s.clauses then begin
    let bigger = Array.make (max 16 (2 * Array.length s.clauses)) c in
    Array.blit s.clauses 0 bigger 0 s.n_clauses;
    s.clauses <- bigger
  end;
  s.clauses.(s.n_clauses) <- c;
  s.n_clauses <- s.n_clauses + 1;
  c

(* the unassigned variable of highest activity, lowest index on ties;
   -1 when every variable is assigned *)
let rec pick_branch s =
  if s.heap_len = 0 then -1
  else
    let v = s.heap.(0) in
    if s.assign.(v) = 0 then v
    else begin
      heap_pop s;
      pick_branch s
    end

let m_solve_seconds = Obs.Metrics.histogram "atpg.sat.solve_seconds"
let m_conflicts = Obs.Metrics.counter "atpg.sat.conflicts"
let m_solves = Obs.Metrics.counter "atpg.sat.solves"
let m_giveups = Obs.Metrics.counter "atpg.sat.giveups"

(* Poll the wall-clock deadline only every [deadline_stride] conflicts:
   a gettimeofday per conflict would dominate easy instances. *)
let deadline_stride = 64

let solve ?(conflict_limit = 200_000) ?(deadline = Obs.Deadline.never)
    ~num_vars clauses =
  let t0 = Obs.Clock.now () in
  let s =
    {
      nvars = num_vars;
      clauses = Array.make 16 { lits = [||]; activity = 0.0 };
      n_clauses = 0;
      watches = Array.make (2 * num_vars) [];
      assign = Array.make num_vars 0;
      level = Array.make num_vars 0;
      reason = Array.make num_vars None;
      trail = Array.make (num_vars + 1) 0;
      trail_len = 0;
      trail_lim = Array.make (num_vars + 1) 0;
      decision_level = 0;
      activity = Array.make num_vars 0.0;
      (* equal activities: ascending index is already a valid heap *)
      heap = Array.init num_vars Fun.id;
      heap_len = num_vars;
      heap_pos = Array.init num_vars Fun.id;
      var_inc = 1.0;
      conflicts = 0;
      seen = Array.make num_vars false;
    }
  in
  (* load clauses; handle trivial cases *)
  let trivially_unsat = ref false in
  let units = ref [] in
  List.iter
    (fun lits ->
      let lits = Array.to_list lits |> List.sort_uniq compare in
      let tautology =
        List.exists (fun l -> List.mem (neg l) lits) lits
      in
      if not tautology then
        match lits with
        | [] -> trivially_unsat := true
        | [ l ] -> units := l :: !units
        | _ -> ignore (add_clause s lits))
    clauses;
  let result =
    if !trivially_unsat then Unsat
    else begin
    (* assert unit clauses at level 0 *)
    let conflict0 =
      List.exists
        (fun l ->
          match value s l with
          | 1 -> false
          | 2 -> true
          | _ ->
            enqueue s l None;
            false)
        !units
    in
    if conflict0 then Unsat
    else begin
      let qhead = ref 0 in
      let restart_interval = ref 100 in
      let conflicts_since_restart = ref 0 in
      let rec loop () =
        match propagate s !qhead with
        | () ->
          qhead := s.trail_len;
          let finish () =
            let model = Array.init s.nvars (fun v -> s.assign.(v) = 1) in
            (* belt and braces: a model must satisfy every clause *)
            for i = 0 to s.n_clauses - 1 do
              let c = s.clauses.(i) in
              let sat =
                Array.exists
                  (fun l -> model.(var_of l) = (l land 1 = 0))
                  c.lits
              in
              if not sat then failwith "Sat.solve: internal model check failed"
            done;
            Sat model
          in
          if s.trail_len = s.nvars then finish ()
          else begin
            let v = pick_branch s in
            if v < 0 then finish ()
            else begin
              s.trail_lim.(s.decision_level) <- s.trail_len;
              s.decision_level <- s.decision_level + 1;
              (* phase saving would go here; default to false first *)
              enqueue s (lit_of v false) None;
              loop ()
            end
          end
        | exception Conflict_found c ->
          s.conflicts <- s.conflicts + 1;
          incr conflicts_since_restart;
          if s.conflicts > conflict_limit then Timeout Conflicts
          else if
            s.conflicts mod deadline_stride = 0 && Obs.Deadline.expired deadline
          then Timeout Deadline
          else if s.decision_level = 0 then Unsat
          else begin
            let learnt, back_lvl = analyze s c in
            backtrack s back_lvl;
            qhead := s.trail_len;
            (match learnt with
            | [] -> ()
            | [ l ] ->
              if value s l = 0 then enqueue s l None
            | l :: rest ->
              (* watch the asserting literal and a max-level literal so
                 both watches unassign together on future backtracks *)
              let rest =
                List.sort
                  (fun a b ->
                    Int.compare s.level.(var_of b) s.level.(var_of a))
                  rest
              in
              let cl = add_clause s (l :: rest) in
              if value s l = 0 then enqueue s l (Some cl));
            s.var_inc <- s.var_inc *. 1.05;
            if !conflicts_since_restart > !restart_interval then begin
              conflicts_since_restart := 0;
              restart_interval := !restart_interval * 3 / 2;
              backtrack s 0;
              qhead := s.trail_len
            end;
            loop ()
          end
      in
      loop ()
    end
  end
  in
  Obs.Metrics.observe m_solve_seconds (Obs.Clock.now () -. t0);
  Obs.Metrics.incr m_solves;
  Obs.Metrics.add m_conflicts s.conflicts;
  (match result with
  | Timeout _ -> Obs.Metrics.incr m_giveups
  | Sat _ | Unsat -> ());
  result
