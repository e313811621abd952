(* A MiniSat-style CDCL solver. Internal literals are encoded as
   [2*var + sign] with sign = 1 for negated, so [lit lxor 1] negates and
   [lit lsr 1] recovers the variable. Variables are 1-based; index 0 of the
   per-variable arrays is unused. *)

type clause = {
  mutable lits : int array; (* lits.(0) and lits.(1) are watched *)
  learnt : bool;
  mutable activity : float;
}

module Vec = struct
  type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

  (* Starts empty, allocating on the first push: most of a bitblasted
     instance's watch lists (two per variable) stay empty or short. *)
  let create dummy = { data = [||]; size = 0; dummy }

  let push v x =
    if v.size = Array.length v.data then begin
      let data = Array.make (max 4 (2 * v.size)) v.dummy in
      Array.blit v.data 0 data 0 v.size;
      v.data <- data
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.size
  let shrink v n = v.size <- n
  let clear v = v.size <- 0

  (* [clear], also dropping every reference the buffer holds, including
     those in slots [shrink] and [pop] vacated, so the GC can reclaim them;
     the buffer itself is kept. *)
  let release v =
    Array.fill v.data 0 (Array.length v.data) v.dummy;
    v.size <- 0

  let pop v = v.size <- v.size - 1; v.data.(v.size)
end

type t = {
  mutable ok : bool; (* false once a top-level conflict is found *)
  mutable nvars : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : clause Vec.t array; (* indexed by internal literal *)
  mutable assigns : int array; (* -1 unassigned / 0 false / 1 true, by var *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase, by var *)
  mutable seen : bool array; (* scratch for conflict analysis *)
  mutable heap_index : int array; (* position in [heap], -1 if absent *)
  heap : int Vec.t; (* binary max-heap of vars ordered by activity *)
  trail : int Vec.t; (* assigned literals in order *)
  trail_lim : int Vec.t; (* trail size at each decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable max_learnts : float;
  mutable last_core : int list; (* internal lits; valid after assumption-UNSAT *)
}

let dummy_clause = { lits = [||]; learnt = false; activity = 0. }

let create () =
  {
    ok = true;
    nvars = 0;
    clauses = Vec.create dummy_clause;
    learnts = Vec.create dummy_clause;
    watches = Array.init 8 (fun _ -> Vec.create dummy_clause);
    assigns = Array.make 4 (-1);
    level = Array.make 4 0;
    reason = Array.make 4 None;
    activity = Array.make 4 0.;
    polarity = Array.make 4 false;
    seen = Array.make 4 false;
    heap_index = Array.make 4 (-1);
    heap = Vec.create 0;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    max_learnts = 0.;
    last_core = [];
  }

(* Back to the state [create] builds, keeping every buffer. Only variables
   [0..nvars] and literals below [2 * (nvars + 1)] were ever written, so
   restoring those prefixes restores the whole arrays. *)
let reset s =
  let n = s.nvars + 1 in
  Array.fill s.assigns 0 n (-1);
  Array.fill s.level 0 n 0;
  Array.fill s.reason 0 n None;
  Array.fill s.activity 0 n 0.;
  Array.fill s.polarity 0 n false;
  Array.fill s.seen 0 n false;
  Array.fill s.heap_index 0 n (-1);
  for l = 0 to (2 * n) - 1 do
    Vec.release s.watches.(l)
  done;
  Vec.release s.clauses;
  Vec.release s.learnts;
  Vec.clear s.heap;
  Vec.clear s.trail;
  Vec.clear s.trail_lim;
  s.ok <- true;
  s.nvars <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.cla_inc <- 1.0;
  s.n_conflicts <- 0;
  s.n_decisions <- 0;
  s.n_propagations <- 0;
  s.max_learnts <- 0.;
  s.last_core <- []

let grow_array make a n =
  let a' = make n in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* --- activity order heap ------------------------------------------------ *)

let heap_lt s v w = s.activity.(v) > s.activity.(w)

let rec heap_sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = Vec.get s.heap i and p = Vec.get s.heap parent in
    if heap_lt s v p then begin
      Vec.set s.heap i p;
      Vec.set s.heap parent v;
      s.heap_index.(p) <- i;
      s.heap_index.(v) <- parent;
      heap_sift_up s parent
    end
  end

let rec heap_sift_down s i =
  let n = Vec.size s.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = i in
  let best = if l < n && heap_lt s (Vec.get s.heap l) (Vec.get s.heap best) then l else best in
  let best = if r < n && heap_lt s (Vec.get s.heap r) (Vec.get s.heap best) then r else best in
  if best <> i then begin
    let a = Vec.get s.heap i and b = Vec.get s.heap best in
    Vec.set s.heap i b;
    Vec.set s.heap best a;
    s.heap_index.(b) <- i;
    s.heap_index.(a) <- best;
    heap_sift_down s best
  end

let heap_insert s v =
  if s.heap_index.(v) = -1 then begin
    Vec.push s.heap v;
    s.heap_index.(v) <- Vec.size s.heap - 1;
    heap_sift_up s (Vec.size s.heap - 1)
  end

let heap_remove_max s =
  let top = Vec.get s.heap 0 in
  let last = Vec.pop s.heap in
  s.heap_index.(top) <- -1;
  if Vec.size s.heap > 0 then begin
    Vec.set s.heap 0 last;
    s.heap_index.(last) <- 0;
    heap_sift_down s 0
  end;
  top

let heap_decrease s v = if s.heap_index.(v) >= 0 then heap_sift_up s s.heap_index.(v)

(* --- variables and values ----------------------------------------------- *)

(* The per-variable arrays always share one length, the variable capacity,
   and [watches] holds two literals per variable slot. *)
let new_var s =
  s.nvars <- s.nvars + 1;
  let v = s.nvars in
  let cap = Array.length s.assigns in
  if v >= cap then begin
    let n = max (v + 1) (2 * cap) in
    s.assigns <- grow_array (fun n -> Array.make n (-1)) s.assigns n;
    s.level <- grow_array (fun n -> Array.make n 0) s.level n;
    s.reason <- grow_array (fun n -> Array.make n None) s.reason n;
    s.activity <- grow_array (fun n -> Array.make n 0.) s.activity n;
    s.polarity <- grow_array (fun n -> Array.make n false) s.polarity n;
    s.seen <- grow_array (fun n -> Array.make n false) s.seen n;
    s.heap_index <- grow_array (fun n -> Array.make n (-1)) s.heap_index n;
    let old = s.watches in
    s.watches <-
      Array.init (2 * n) (fun i ->
          if i < Array.length old then old.(i) else Vec.create dummy_clause)
  end;
  heap_insert s v;
  v

let num_vars s = s.nvars

let lit_of_dimacs s l =
  let v = abs l in
  if l = 0 || v > s.nvars then invalid_arg "Sat: literal out of range";
  if l > 0 then 2 * v else (2 * v) + 1

(* value of an internal literal: -1 unassigned, 0 false, 1 true *)
let lit_val s l =
  let a = s.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = Vec.size s.trail_lim

(* --- assignment --------------------------------------------------------- *)

let enqueue s l reason =
  let v = l lsr 1 in
  s.assigns.(v) <- 1 lxor (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = l lsr 1 in
      s.polarity.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* --- clause management --------------------------------------------------- *)

let watch s l c = Vec.push s.watches.(l) c

let attach_clause s c =
  watch s (c.lits.(0) lxor 1) c;
  watch s (c.lits.(1) lxor 1) c

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to Vec.size s.learnts - 1 do
      let c = Vec.get s.learnts i in
      c.activity <- c.activity *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

let add_clause s lits =
  (* clauses may only be simplified against root-level facts; a model left
     by a previous [solve] must not satisfy-away or shrink a new clause *)
  cancel_until s 0;
  if s.ok then begin
    let n = List.length lits in
    let a = Array.make n 0 in
    List.iteri (fun i l -> a.(i) <- lit_of_dimacs s l) lits;
    (* ascending, like the watch order the solver has always used; the
       stdlib's stable sort insertion-sorts short arrays in place, and
       bitblasted clauses have at most three literals *)
    Array.stable_sort Int.compare a;
    (* one pass over the sorted literals: drop duplicates and false
       literals; a complementary pair (adjacent once sorted) or a true
       literal makes the clause redundant *)
    let kept = ref 0 and prev = ref (-1) and redundant = ref false in
    for i = 0 to n - 1 do
      let l = a.(i) in
      if l <> !prev then begin
        if l = !prev lxor 1 then redundant := true;
        (match lit_val s l with
        | 1 -> redundant := true
        | 0 -> ()
        | _ ->
            a.(!kept) <- l;
            incr kept);
        prev := l
      end
    done;
    if not !redundant then
      match !kept with
      | 0 -> s.ok <- false
      | 1 -> enqueue s a.(0) None
      | k ->
          let lits = if k = n then a else Array.sub a 0 k in
          let c = { lits; learnt = false; activity = 0. } in
          Vec.push s.clauses c;
          attach_clause s c
  end

(* --- propagation --------------------------------------------------------- *)

exception Conflict of clause

let propagate s =
  try
    while s.qhead < Vec.size s.trail do
      let l = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.n_propagations <- s.n_propagations + 1;
      (* [l] became true, so literal [l lxor 1] became false; the clauses
         watching it are registered under [watches.(l)]. *)
      let ws = s.watches.(l) in
      let falsified = l lxor 1 in
      let n = Vec.size ws in
      let kept = ref 0 in
      for i = 0 to n - 1 do
        let c = Vec.get ws i in
        (* ensure the false literal is lits.(1) *)
        if c.lits.(0) = falsified then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- falsified
        end;
        if lit_val s c.lits.(0) = 1 then begin
          (* clause satisfied; keep the watch *)
          Vec.set ws !kept c;
          incr kept
        end
        else begin
          (* look for a new literal to watch *)
          let len = Array.length c.lits in
          let found = ref false in
          let j = ref 2 in
          while (not !found) && !j < len do
            if lit_val s c.lits.(!j) <> 0 then begin
              c.lits.(1) <- c.lits.(!j);
              c.lits.(!j) <- falsified;
              watch s (c.lits.(1) lxor 1) c;
              found := true
            end;
            incr j
          done;
          if not !found then begin
            (* unit or conflicting *)
            Vec.set ws !kept c;
            incr kept;
            if lit_val s c.lits.(0) = 0 then begin
              (* conflict: keep remaining watches before raising *)
              for k = i + 1 to n - 1 do
                Vec.set ws !kept (Vec.get ws k);
                incr kept
              done;
              Vec.shrink ws !kept;
              s.qhead <- Vec.size s.trail;
              raise (Conflict c)
            end
            else enqueue s c.lits.(0) (Some c)
          end
        end
      done;
      Vec.shrink ws !kept
    done;
    None
  with Conflict c -> Some c

(* --- conflict analysis (first UIP) --------------------------------------- *)

let analyze s confl =
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in (* -1 encodes "start with the whole conflict clause" *)
  let index = ref (Vec.size s.trail - 1) in
  let backtrack_level = ref 0 in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    if !c.learnt then cla_bump s !c;
    let lits = !c.lits in
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length lits - 1 do
      let q = lits.(j) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        var_bump s v;
        s.seen.(v) <- true;
        if s.level.(v) >= decision_level s then incr path_count
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !backtrack_level then backtrack_level := s.level.(v)
        end
      end
    done;
    (* select next literal to expand from the trail *)
    let rec next_seen i =
      let l = Vec.get s.trail i in
      if s.seen.(l lsr 1) then i else next_seen (i - 1)
    in
    index := next_seen !index;
    let l = Vec.get s.trail !index in
    decr index;
    p := l;
    s.seen.(l lsr 1) <- false;
    decr path_count;
    if !path_count > 0 then
      c :=
        (match s.reason.(l lsr 1) with
        | Some r -> r
        | None -> assert false)
    else continue := false
  done;
  let learnt_lits = (!p lxor 1) :: !learnt in
  List.iter (fun l -> s.seen.(l lsr 1) <- false) !learnt;
  (learnt_lits, !backtrack_level)

(* --- learnt clause DB reduction ------------------------------------------ *)

let locked s (c : clause) =
  let v = c.lits.(0) lsr 1 in
  lit_val s c.lits.(0) = 1 && s.reason.(v) == Some c

let remove_watch s l c =
  let ws = s.watches.(l) in
  let n = Vec.size ws in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c' = Vec.get ws i in
    if c' != c then begin
      Vec.set ws !kept c';
      incr kept
    end
  done;
  Vec.shrink ws !kept

let detach_clause s c =
  remove_watch s (c.lits.(0) lxor 1) c;
  remove_watch s (c.lits.(1) lxor 1) c

let reduce_db s =
  let n = Vec.size s.learnts in
  let arr = Array.init n (Vec.get s.learnts) in
  Array.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) arr;
  Vec.clear s.learnts;
  let limit = s.cla_inc /. float_of_int (max n 1) in
  Array.iteri
    (fun i c ->
      if
        (not (locked s c))
        && Array.length c.lits > 2
        && (i < n / 2 || c.activity < limit)
      then detach_clause s c
      else Vec.push s.learnts c)
    arr

(* --- search --------------------------------------------------------------- *)

let pick_branch_var s =
  let rec go () =
    if Vec.size s.heap = 0 then 0
    else
      let v = heap_remove_max s in
      if s.assigns.(v) = -1 then v else go ()
  in
  go ()

(* Restricted decision order: an ordered array of candidate vars and a
   monotone scan pointer. The pointer only ever moves right between
   conflicts; a backtrack unassigns variables to its left, so conflicts (and
   fresh [search] calls after a restart) reset it to 0. Returns 0 when every
   candidate is assigned. *)
let pick_branch_restricted s (arr : int array) ptr =
  let n = Array.length arr in
  let rec go i =
    if i >= n then 0
    else
      let v = arr.(i) in
      if s.assigns.(v) = -1 then begin
        ptr := i;
        v
      end
      else go (i + 1)
  in
  go !ptr

let luby y x =
  (* Finite subsequences of the Luby sequence *)
  let rec find_size size seq =
    if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1)
  in
  let rec go x (size, seq) =
    if size - 1 = x then (seq, x)
    else
      let size = (size - 1) / 2 in
      let seq = seq - 1 in
      go (x mod size) (size, seq)
  in
  let seq, _ = go x (find_size 1 0) in
  y ** float_of_int seq

(* Which assumption decisions force the given (currently false) literals?
   Standard analyzeFinal: walk the trail top-down through reasons, keeping
   the decisions encountered (at assumption levels every decision is an
   assumption). Returns internal literals of the involved assumptions. *)
let analyze_final s seed_lits =
  let core = ref [] in
  List.iter
    (fun l ->
      let v = l lsr 1 in
      if s.level.(v) > 0 then s.seen.(v) <- true)
    seed_lits;
  for i = Vec.size s.trail - 1 downto 0 do
    let l = Vec.get s.trail i in
    let v = l lsr 1 in
    if s.seen.(v) then begin
      (match s.reason.(v) with
      | None -> core := l :: !core (* a decision: an assumption *)
      | Some c ->
          Array.iter
            (fun l' ->
              let v' = l' lsr 1 in
              if v' <> v && s.level.(v') > 0 then s.seen.(v') <- true)
            c.lits);
      s.seen.(v) <- false
    end
  done;
  (* clear any remaining scratch marks (level-0 seeds) *)
  List.iter (fun l -> s.seen.(l lsr 1) <- false) seed_lits;
  !core

type result = Sat | Unsat

(* Unsatisfiable specifically under the current assumptions (the instance
   itself may still be satisfiable). *)
exception Assumption_conflict

let search s ~assumptions ~order ~max_conflicts =
  let conflicts = ref 0 in
  (match order with Some (_, ptr) -> ptr := 0 | None -> ());
  let rec loop () =
    match propagate s with
    | Some confl ->
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflicts;
        if decision_level s = 0 then begin
          s.ok <- false;
          Some Unsat
        end
        else if decision_level s <= Array.length assumptions then begin
          (* the conflict depends only on assumption decisions and their
             consequences: the query is unsatisfiable under them *)
          s.last_core <- analyze_final s (Array.to_list confl.lits);
          raise Assumption_conflict
        end
        else begin
          let learnt_lits, back_level = analyze s confl in
          cancel_until s back_level;
          (match order with Some (_, ptr) -> ptr := 0 | None -> ());
          (match learnt_lits with
          | [ l ] -> enqueue s l None
          | l :: _ ->
              let c =
                { lits = Array.of_list learnt_lits; learnt = true; activity = 0. }
              in
              cla_bump s c;
              Vec.push s.learnts c;
              attach_clause s c;
              enqueue s l (Some c)
          | [] -> assert false);
          var_decay s;
          cla_decay s;
          loop ()
        end
    | None ->
        if !conflicts >= max_conflicts then begin
          cancel_until s 0;
          None
        end
        else if float_of_int (Vec.size s.learnts) >= s.max_learnts then begin
          reduce_db s;
          decide ()
        end
        else decide ()
  and decide () =
    let level = decision_level s in
    if level < Array.length assumptions then begin
      (* take the next assumption as a decision *)
      let l = assumptions.(level) in
      match lit_val s l with
      | 1 ->
          (* already implied: open an empty level so indices line up *)
          Vec.push s.trail_lim (Vec.size s.trail);
          loop ()
      | 0 ->
          (* this assumption is falsified by the previous ones *)
          s.last_core <- l :: analyze_final s [ l lxor 1 ];
          raise Assumption_conflict
      | _ ->
          Vec.push s.trail_lim (Vec.size s.trail);
          enqueue s l None;
          loop ()
    end
    else begin
      let v =
        match order with
        | None -> pick_branch_var s
        | Some (arr, ptr) -> pick_branch_restricted s arr ptr
      in
      if v = 0 then Some Sat
      else begin
        s.n_decisions <- s.n_decisions + 1;
        Vec.push s.trail_lim (Vec.size s.trail);
        let l = if s.polarity.(v) then 2 * v else (2 * v) + 1 in
        enqueue s l None;
        loop ()
      end
    end
  in
  loop ()

let solve ?conflict_limit ?deadline ?(assumptions = []) ?decide_vars s =
  cancel_until s 0;
  s.last_core <- [];
  if not s.ok then Some Unsat
  else begin
    let assumptions = Array.of_list (List.map (lit_of_dimacs s) assumptions) in
    let order =
      match decide_vars with
      | None -> None
      | Some vars ->
          Array.iter
            (fun v ->
              if v < 1 || v > s.nvars then
                invalid_arg "Sat.solve: decide variable out of range")
            vars;
          (* the first restart segment decides in the order given — for
             circuit CNF, allocation order is roughly topological (inputs
             first, outputs propagated), and easy queries never pay for a
             sort — later segments re-sort by activity (below), giving
             conflict-heavy queries a periodically-refreshed VSIDS order *)
          Some (vars, ref 0)
    in
    s.max_learnts <- max 1000. (float_of_int (Vec.size s.clauses) /. 3.);
    let budget_left =
      ref (match conflict_limit with None -> max_int | Some n -> n)
    in
    let past_deadline () =
      match deadline with
      | None -> false
      | Some d -> Unix.gettimeofday () > d
    in
    let rec restart_loop i =
      if !budget_left <= 0 || past_deadline () then None
      else begin
        (match order with
        | Some (arr, _) when i > 0 ->
            (* the query survived a whole restart segment: refresh the static
               decision order from the activities the conflicts built up *)
            Array.sort
              (fun a b -> compare s.activity.(b) s.activity.(a))
              arr
        | _ -> ());
        let inner = int_of_float (100. *. luby 2. i) in
        let inner = min inner !budget_left in
        match search s ~assumptions ~order ~max_conflicts:inner with
        | Some r -> Some r
        | None ->
            budget_left := !budget_left - inner;
            restart_loop (i + 1)
      end
    in
    match restart_loop 0 with
    | Some Unsat ->
        s.ok <- false;
        Some Unsat
    | (Some Sat | None) as result -> result
    | exception Assumption_conflict ->
        cancel_until s 0;
        Some Unsat
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Sat.value: out of range";
  s.assigns.(v) = 1

let lit_value s l =
  let b = value s (abs l) in
  if l > 0 then b else not b

(* Assumptions (DIMACS) involved in the last assumption-level UNSAT; the
   empty list when the instance is unsatisfiable outright. *)
let unsat_core s =
  List.map
    (fun l -> if l land 1 = 0 then l lsr 1 else -(l lsr 1))
    s.last_core

let conflicts s = s.n_conflicts
let decisions s = s.n_decisions
let propagations s = s.n_propagations

(* Learnt clauses currently in the database. Unit learnts are enqueued at
   level 0 rather than stored, so this undercounts total learning — but it
   is exactly the number of clauses an incremental caller retains between
   solves, which is what the clause-retention statistics report. *)
let num_learnts s = Vec.size s.learnts
let num_clauses s = Vec.size s.clauses
