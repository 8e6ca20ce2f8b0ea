type give_up = Conflicts | Deadline

type result = Sat of bool array | Unsat | Timeout of give_up

(* Unchecked int-array access for the search.  Every index is a literal
   or variable of a clause [load] range-checked, a clause offset, or a
   trail, heap or level position the solver's own invariants bound. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let lit_of v sign = (2 * v) lor (if sign then 0 else 1)
let var_of l = l lsr 1
let neg l = l lxor 1

(* Everything the search touches is an int.  A clause is an offset [c]
   into [arena]: [arena.(c)] is its length [n], its literals sit at
   [c + 1 .. c + n], and the two watched ones are the first two.  A
   literal's watch list is an int stack of clause offsets in
   [watches.(l)] (its first [wlen.(l)] entries, top last); reasons are
   clause offsets, -1 for none; values are per literal: 0 unassigned,
   1 true, 2 false. *)
type solver = {
  nvars : int;
  mutable arena : int array;
  mutable arena_len : int;
  watches : int array array;
  wlen : int array;
  value : int array;
  level : int array;
  reason : int array;
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
  (* [analyze]'s learnt literals below the conflict level, in the order
     it meets them *)
  learnt : int array;
  mutable learnt_len : int;
}

let push s l c =
  let n = s.wlen.!(l) in
  let ws = s.watches.(l) in
  if n = Array.length ws then begin
    let bigger = Array.make (max 4 (2 * n)) 0 in
    Array.blit ws 0 bigger 0 n;
    s.watches.(l) <- bigger
  end;
  s.watches.(l).(n) <- c;
  s.wlen.!(l) <- n + 1

let enqueue s l reason =
  let v = var_of l in
  s.value.!(l) <- 1;
  s.value.!(neg l) <- 2;
  s.level.!(v) <- s.decision_level;
  s.reason.!(v) <- reason;
  s.trail.!(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let reverse (a : int array) n =
  for i = 0 to (n / 2) - 1 do
    let x = a.!(i) in
    a.!(i) <- a.!(n - 1 - i);
    a.!(n - 1 - i) <- x
  done

(* Propagate all pending assignments; the conflicting clause, or -1.
   A falsified literal's watchers are visited from the top of its
   stack down, and the ones it keeps are pushed back in visit order
   (after a conflict, followed by the unvisited rest in visit order):
   reversing the stack in place and compacting it front to back does
   exactly that. *)
let propagate s qhead_start =
  let arena = s.arena and value = s.value in
  let qhead = ref qhead_start and confl = ref (-1) in
  while !confl < 0 && !qhead < s.trail_len do
    let falsified = neg s.trail.!(!qhead) in
    incr qhead;
    let ws = s.watches.(falsified) and n = s.wlen.!(falsified) in
    reverse ws n;
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.!(!i) in
      incr i;
      (* ensure falsified is the second watch *)
      if arena.!(c + 1) = falsified then begin
        arena.!(c + 1) <- arena.!(c + 2);
        arena.!(c + 2) <- falsified
      end;
      let first = arena.!(c + 1) in
      if value.!(first) = 1 then begin
        (* clause already satisfied; keep watching *)
        ws.!(!j) <- c;
        incr j
      end
      else begin
        (* look for a new literal to watch *)
        let stop = c + 1 + arena.!(c) in
        let k = ref (c + 3) in
        while !k < stop && value.!(arena.!(!k)) = 2 do
          incr k
        done;
        if !k < stop then begin
          let l = arena.!(!k) in
          arena.!(!k) <- falsified;
          arena.!(c + 2) <- l;
          push s l c
        end
        else begin
          (* unit or conflicting *)
          ws.!(!j) <- c;
          incr j;
          if value.!(first) = 2 then begin
            while !i < n do
              ws.!(!j) <- ws.!(!i);
              incr i;
              incr j
            done;
            confl := c
          end
          else enqueue s first c
        end
      end
    done;
    s.wlen.!(falsified) <- !j
  done;
  !confl

let before s a b =
  let x = s.activity.(a) and y = s.activity.(b) in
  x > y || (x = y && a < b)

let heap_set s i v =
  s.heap.!(i) <- v;
  s.heap_pos.!(v) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = s.heap.!(i) and pv = s.heap.!(parent) in
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
    let c = if r < s.heap_len && before s s.heap.!(r) s.heap.!(l) then r else l in
    let v = s.heap.!(i) and cv = s.heap.!(c) in
    if before s cv v then begin
      heap_set s i cv;
      heap_set s c v;
      heap_down s c
    end
  end

let heap_insert s v =
  if s.heap_pos.!(v) < 0 then begin
    heap_set s s.heap_len v;
    s.heap_len <- s.heap_len + 1;
    heap_up s (s.heap_len - 1)
  end

let heap_pop s =
  s.heap_pos.!(s.heap.!(0)) <- -1;
  s.heap_len <- s.heap_len - 1;
  if s.heap_len > 0 then begin
    heap_set s 0 s.heap.!(s.heap_len);
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
  else if s.heap_pos.!(v) >= 0 then heap_up s s.heap_pos.!(v)

(* First-UIP learning: returns the asserting literal and the backjump
   level; the other learnt literals are left in [s.learnt]. *)
let analyze s confl =
  let counter = ref 0 and backtrack_level = ref 0 in
  s.learnt_len <- 0;
  (* every literal of clause [c] except [pivot], in clause order *)
  let process c pivot =
    for k = c + 1 to c + s.arena.!(c) do
      let q = s.arena.!(k) in
      let v = var_of q in
      if q <> pivot && (not s.seen.(v)) && s.level.!(v) > 0 then begin
        s.seen.(v) <- true;
        bump s v;
        if s.level.!(v) >= s.decision_level then incr counter
        else begin
          s.learnt.!(s.learnt_len) <- q;
          s.learnt_len <- s.learnt_len + 1;
          if s.level.!(v) > !backtrack_level then backtrack_level := s.level.!(v)
        end
      end
    done
  in
  process confl (-1);
  let index = ref (s.trail_len - 1) and uip = ref (-1) in
  while !uip < 0 do
    (* find next seen literal on the trail *)
    while not s.seen.(var_of s.trail.!(!index)) do
      decr index
    done;
    let p = s.trail.!(!index) in
    let v = var_of p in
    s.seen.(v) <- false;
    decr counter;
    decr index;
    if !counter = 0 then uip := neg p
    else if s.reason.!(v) >= 0 then process s.reason.!(v) p
  done;
  for i = 0 to s.learnt_len - 1 do
    s.seen.(var_of s.learnt.!(i)) <- false
  done;
  (!uip, !backtrack_level)

let backtrack s lvl =
  let target = if lvl < Array.length s.trail_lim then s.trail_lim.!(lvl) else s.trail_len in
  for i = s.trail_len - 1 downto target do
    let v = var_of s.trail.!(i) in
    s.value.!(2 * v) <- 0;
    s.value.!((2 * v) + 1) <- 0;
    s.reason.!(v) <- -1;
    heap_insert s v
  done;
  s.trail_len <- target;
  s.decision_level <- lvl

(* Reserve an [n]-literal clause at the end of the arena; its offset. *)
let alloc s n =
  let need = s.arena_len + n + 1 in
  if need > Array.length s.arena then begin
    let bigger = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 bigger 0 s.arena_len;
    s.arena <- bigger
  end;
  let c = s.arena_len in
  s.arena.!(c) <- n;
  s.arena_len <- need;
  c

let attach s c =
  push s s.arena.!(c + 1) c;
  push s s.arena.!(c + 2) c

(* Load an input clause, range-checked, as a sorted, duplicate-free
   literal sequence.  Watched when it has two or more literals and no
   literal together with its negation (which sorting makes adjacent),
   dropped when it is such a tautology, and otherwise returned as
   [`Unit l] or [`Empty] for the caller. *)
let load s lits =
  let c = alloc s (Array.length lits) in
  let n = ref 0 and tautology = ref false in
  Array.iter
    (fun l ->
      if l < 0 || l >= 2 * s.nvars then
        invalid_arg "Sat.solve: literal out of range";
      (* insertion into the sorted prefix, dropping duplicates *)
      let k = ref (c + !n) in
      while !k > c && s.arena.(!k) > l do
        decr k
      done;
      if !k = c || s.arena.(!k) <> l then begin
        if !k > c && s.arena.(!k) = neg l then tautology := true;
        if !k + 1 <= c + !n && s.arena.(!k + 1) = neg l then tautology := true;
        Array.blit s.arena (!k + 1) s.arena (!k + 2) (c + !n - !k);
        s.arena.(!k + 1) <- l;
        incr n
      end)
    lits;
  let kept = (not !tautology) && !n >= 2 in
  if kept then begin
    s.arena.(c) <- !n;
    s.arena_len <- c + !n + 1;
    attach s c
  end
  else s.arena_len <- c;
  if !tautology || kept then `Loaded
  else if !n = 1 then `Unit s.arena.(c + 1)
  else `Empty

(* Append the learnt clause: the asserting literal, then the others by
   descending level (stably, over the reverse of [analyze]'s order) so
   that the two watches unassign together on future backtracks. *)
let add_learnt s uip =
  let m = s.learnt_len in
  let c = alloc s (m + 1) in
  let a = s.arena in
  a.!(c + 1) <- uip;
  for i = 0 to m - 1 do
    (* stable insertion by descending level *)
    let q = s.learnt.!(m - 1 - i) in
    let lq = s.level.!(var_of q) in
    let k = ref (c + 2 + i) in
    while !k > c + 2 && s.level.!(var_of a.!(!k - 1)) < lq do
      a.!(!k) <- a.!(!k - 1);
      decr k
    done;
    a.!(!k) <- q
  done;
  attach s c;
  c

(* the unassigned variable of highest activity, lowest index on ties;
   -1 when every variable is assigned *)
let rec pick_branch s =
  if s.heap_len = 0 then -1
  else
    let v = s.heap.!(0) in
    if s.value.!(2 * v) = 0 then v
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

(* belt and braces: a model must satisfy every clause *)
let model s =
  let m = Array.init s.nvars (fun v -> s.value.(2 * v) = 1) in
  let c = ref 0 in
  while !c < s.arena_len do
    let n = s.arena.(!c) in
    let sat = ref false in
    for k = !c + 1 to !c + n do
      let l = s.arena.(k) in
      if m.(var_of l) = (l land 1 = 0) then sat := true
    done;
    if not !sat then failwith "Sat.solve: internal model check failed";
    c := !c + n + 1
  done;
  Sat m

(* The conflict count at which [solve] calls its [on_stall] hook, once:
   the first conflict at a nonzero decision level, so a search that
   propagation alone decides never pays for the hook. *)
let stall_conflicts = 1

let solve ?(conflict_limit = 200_000) ?(deadline = Obs.Deadline.never)
    ?(on_stall = fun () -> false) ~num_vars clauses =
  let t0 = Obs.Clock.now () and hook_seconds = ref 0.0 in
  let s =
    {
      nvars = num_vars;
      arena =
        Array.make
          (List.fold_left (fun acc a -> acc + Array.length a + 1) 16 clauses)
          0;
      arena_len = 0;
      watches = Array.make (2 * num_vars) [||];
      wlen = Array.make (2 * num_vars) 0;
      value = Array.make (2 * num_vars) 0;
      level = Array.make num_vars 0;
      reason = Array.make num_vars (-1);
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
      learnt = Array.make num_vars 0;
      learnt_len = 0;
    }
  in
  (* load clauses; handle trivial cases *)
  let trivially_unsat = ref false in
  let units = ref [] in
  List.iter
    (fun lits ->
      match load s lits with
      | `Empty -> trivially_unsat := true
      | `Unit l -> units := l :: !units
      | `Loaded -> ())
    clauses;
  let result =
    if !trivially_unsat then Unsat
    else if
      (* assert unit clauses at level 0 *)
      List.exists
        (fun l ->
          match s.value.!(l) with
          | 1 -> false
          | 2 -> true
          | _ ->
            enqueue s l (-1);
            false)
        !units
    then Unsat
    else begin
      let qhead = ref 0 in
      let restart_interval = ref 100 in
      let conflicts_since_restart = ref 0 in
      let rec loop () =
        let confl = propagate s !qhead in
        if confl < 0 then begin
          qhead := s.trail_len;
          if s.trail_len = s.nvars then model s
          else begin
            let v = pick_branch s in
            if v < 0 then model s
            else begin
              s.trail_lim.!(s.decision_level) <- s.trail_len;
              s.decision_level <- s.decision_level + 1;
              (* phase saving would go here; default to false first *)
              enqueue s (lit_of v false) (-1);
              loop ()
            end
          end
        end
        else begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_since_restart;
          if s.conflicts > conflict_limit then Timeout Conflicts
          else if
            s.conflicts mod deadline_stride = 0 && Obs.Deadline.expired deadline
          then Timeout Deadline
          else if s.decision_level = 0 then Unsat
          else if
            s.conflicts = stall_conflicts
            &&
            let h0 = Obs.Clock.now () in
            let proved = on_stall () in
            hook_seconds := Obs.Clock.now () -. h0;
            proved
          then Unsat
          else begin
            let uip, back_lvl = analyze s confl in
            backtrack s back_lvl;
            qhead := s.trail_len;
            if s.learnt_len = 0 then begin
              if s.value.!(uip) = 0 then enqueue s uip (-1)
            end
            else begin
              let c = add_learnt s uip in
              if s.value.!(uip) = 0 then enqueue s uip c
            end;
            s.var_inc <- s.var_inc *. 1.05;
            if !conflicts_since_restart > !restart_interval then begin
              conflicts_since_restart := 0;
              restart_interval := !restart_interval * 3 / 2;
              backtrack s 0;
              qhead := s.trail_len
            end;
            loop ()
          end
        end
      in
      loop ()
    end
  in
  (* the search's own time: the hook's work is timed where it is done *)
  Obs.Metrics.observe m_solve_seconds (Obs.Clock.now () -. t0 -. !hook_seconds);
  Obs.Metrics.incr m_solves;
  Obs.Metrics.add m_conflicts s.conflicts;
  (match result with
  | Timeout _ -> Obs.Metrics.incr m_giveups
  | Sat _ | Unsat -> ());
  result
