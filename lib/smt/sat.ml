(* A MiniSat-style CDCL solver. Internal literals are encoded as
   [2*var + sign] with sign = 1 for negated, so [lit lxor 1] negates and
   [lit lsr 1] recovers the variable. Variables are 1-based; slot 0 of the
   per-variable stores is unused.

   Clauses live in one arena of packed 32-bit words, a [Bytes.t] read and
   written with the bounds-checked [Bytes.get_int32_le]/[set_int32_le], and
   are named by the word offset of their header:

     word c          length lsl 2, lor [learnt_bit], lor [deleted_bit]
     word c + 1      learnt id, indexing [cla_act] (0 for problem clauses)
     words c + 2..   the literals; the first two are watched

   Watch lists, the clause and learnt vectors and [reason] hold offsets, so
   neither loading a clause nor propagating allocates a heap block per
   clause. The per-variable state is packed the same way: [level], [reason]
   and [heap_index] as 32-bit words, [activity] as a [Float.Array.t],
   [assigns], [polarity] and [seen] as one byte each.

   Every store is allocated uninitialised ([Bytes.create],
   [Float.Array.create]) at the capacity [create] is given; a slot is
   written when its variable or clause is made, and [reset] rewinds the
   counts without touching a slot. None of these blocks is scanned by the
   GC, and capacity never written is never faulted in, so a long-lived
   instance can reserve far more than a run uses. Past its capacity a store
   doubles, copying only the slots in use. Literals and offsets must fit a
   signed 32-bit word: [new_var] and [alloc_clause] raise
   [Invalid_argument] past [max_var] variables and [max_words] arena
   words. *)

let learnt_bit = 1
let deleted_bit = 2

(* An unassigned variable's byte in [assigns]. *)
let unset = '\002'

(* The largest variable whose negative literal [2v + 1] fits in a signed
   32-bit word; the arena's offsets stay below [max_words], and a clause's
   length must leave room for the header's two flag bits. *)
let max_var = (1 lsl 30) - 1
let max_words = (1 lsl 31) - 1
let max_clause_len = (1 lsl 29) - 1

(* Word [i] of a packed store. *)
let[@inline] word b i = Int32.to_int (Bytes.get_int32_le b (i lsl 2))
let[@inline] set_word b i x = Bytes.set_int32_le b (i lsl 2) (Int32.of_int x)

(* Growable int vectors. *)
module Vec = struct
  type t = { mutable data : int array; mutable size : int }

  (* Starts empty, allocating on the first push: most of a bitblasted
     instance's watch lists (two per variable) stay empty or short. *)
  let create () = { data = [||]; size = 0 }

  let push v x =
    if v.size = Array.length v.data then begin
      let data = Array.make (max 4 (2 * v.size)) 0 in
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

  let map_inplace f v =
    for i = 0 to v.size - 1 do
      v.data.(i) <- f v.data.(i)
    done
end

type t = {
  mutable ok : bool; (* false once a top-level conflict is found *)
  mutable nvars : int;
  mutable arena : Bytes.t; (* packed 32-bit words *)
  mutable arena_size : int; (* words in use, live and deleted *)
  mutable garbage : int; (* words of deleted clauses not yet compacted *)
  mutable cla_act : float array; (* learnt clause activity, by learnt id *)
  mutable n_learnt_ids : int;
  clauses : Vec.t;
  learnts : Vec.t;
  mutable watches : Vec.t array; (* indexed by internal literal *)
  (* by var, each with room for the same number of slots: *)
  mutable assigns : Bytes.t; (* 0 false / 1 true / [unset] *)
  mutable level : Bytes.t; (* 32-bit words *)
  mutable reason : Bytes.t; (* 32-bit clause offsets, -1 for none *)
  mutable activity : Float.Array.t;
  mutable polarity : Bytes.t; (* saved phase, 1 for true *)
  mutable seen : Bytes.t; (* scratch for conflict analysis, 1 when seen *)
  mutable heap_index : Bytes.t; (* 32-bit positions in [heap], -1 if absent *)
  heap : Vec.t; (* binary max-heap of vars ordered by activity *)
  mutable heap_live : bool; (* false until a solve first picks from [heap] *)
  trail : Vec.t; (* assigned literals in order *)
  trail_lim : Vec.t; (* trail size at each decision level *)
  mutable assumed : int array; (* the last solve's assumptions, internal *)
  mutable n_assumed : int; (* leading levels opened for [assumed] *)
  lits : Vec.t; (* scratch: the clause being added or learnt *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable max_learnts : float;
  mutable last_core : int list; (* internal lits; valid after assumption-UNSAT *)
}

(* The state [create] gives a variable. *)
let init_var s v =
  Bytes.set s.assigns v unset;
  set_word s.level v 0;
  set_word s.reason v (-1);
  Float.Array.set s.activity v 0.;
  Bytes.set_uint8 s.polarity v 0;
  Bytes.set_uint8 s.seen v 0;
  set_word s.heap_index v (-1)

let create ?(vars = 3) ?(words = 0) () =
  if vars < 0 || vars > max_var || words < 0 || words > max_words then
    invalid_arg "Sat.create: capacity out of range";
  let n = vars + 1 in
  let s =
    {
      ok = true;
      nvars = 0;
      arena = Bytes.create (4 * words);
      arena_size = 0;
      garbage = 0;
      cla_act = [||];
      n_learnt_ids = 0;
      clauses = Vec.create ();
      learnts = Vec.create ();
      watches = Array.init 8 (fun _ -> Vec.create ());
      assigns = Bytes.create n;
      level = Bytes.create (4 * n);
      reason = Bytes.create (4 * n);
      activity = Float.Array.create n;
      polarity = Bytes.create n;
      seen = Bytes.create n;
      heap_index = Bytes.create (4 * n);
      heap = Vec.create ();
      heap_live = false;
      trail = Vec.create ();
      trail_lim = Vec.create ();
      assumed = [||];
      n_assumed = 0;
      lits = Vec.create ();
      qhead = 0;
      var_inc = 1.0;
      cla_inc = 1.0;
      n_conflicts = 0;
      n_decisions = 0;
      n_propagations = 0;
      max_learnts = 0.;
      last_core = [];
    }
  in
  init_var s 0;
  s

(* Back to the state [create] builds, keeping every buffer: the arena is
   truncated, not freed. Each variable's slots, and the watch lists of its
   two literals, are rewritten by [new_var] when it is made again, so
   nothing indexed by variable is touched here. *)
let reset s =
  s.arena_size <- 0;
  s.garbage <- 0;
  s.n_learnt_ids <- 0;
  Vec.clear s.clauses;
  Vec.clear s.learnts;
  Vec.clear s.heap;
  s.heap_live <- false;
  Vec.clear s.trail;
  Vec.clear s.trail_lim;
  s.assumed <- [||];
  s.n_assumed <- 0;
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

(* A copy of [b] with room for [n] bytes, of which the first [used] are
   [b]'s; the rest is left uninitialised. *)
let grow_bytes b n ~used =
  let b' = Bytes.create n in
  Bytes.blit b 0 b' 0 used;
  b'

(* --- activity order heap ------------------------------------------------ *)

(* Both sifts move a hole instead of swapping: the variable being placed
   is written once, where the hole stops. A variable rises past its parent
   only on strictly greater activity. Going down, the hole's variable stays
   unless a child is strictly more active; the left child is taken over it
   on strictly greater activity, and the right child over the better of
   the two on strictly greater activity again. *)
let heap_sift_up s i =
  let h = s.heap.Vec.data and act = s.activity and index = s.heap_index in
  let v = h.(i) in
  let a = Float.Array.get act v in
  let i = ref i and rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = h.(parent) in
    if a > Float.Array.get act p then begin
      h.(!i) <- p;
      set_word index p !i;
      i := parent
    end
    else rising := false
  done;
  h.(!i) <- v;
  set_word index v !i

let heap_sift_down s i =
  let h = s.heap.Vec.data and n = s.heap.Vec.size in
  let act = s.activity and index = s.heap_index in
  let v = h.(i) in
  let a = Float.Array.get act v in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let la = Float.Array.get act h.(l) in
      let best = if la > a then l else !i in
      let best_act = if la > a then la else a in
      let best =
        if r < n && Float.Array.get act h.(r) > best_act then r else best
      in
      if best = !i then moving := false
      else begin
        let b = h.(best) in
        h.(!i) <- b;
        set_word index b !i;
        i := best
      end
    end
  done;
  h.(!i) <- v;
  set_word index v !i

(* A no-op until the heap is live: no variable has a heap index then, so
   [var_bump]'s sift is one too. *)
let heap_insert s v =
  if s.heap_live && word s.heap_index v = -1 then begin
    Vec.push s.heap v;
    heap_sift_up s (Vec.size s.heap - 1)
  end

let heap_remove_max s =
  let heap = s.heap in
  let h = heap.Vec.data in
  let top = h.(0) in
  let n = heap.Vec.size - 1 in
  heap.Vec.size <- n;
  set_word s.heap_index top (-1);
  if n > 0 then begin
    h.(0) <- h.(n);
    heap_sift_down s 0
  end;
  top

(* --- variables and values ----------------------------------------------- *)

(* Past the capacity, every per-variable store doubles together, copying
   the slots of variables [0 .. nvars]. *)
let grow_vars s n =
  let used = s.nvars + 1 in
  s.assigns <- grow_bytes s.assigns n ~used;
  s.level <- grow_bytes s.level (4 * n) ~used:(4 * used);
  s.reason <- grow_bytes s.reason (4 * n) ~used:(4 * used);
  let activity = Float.Array.create n in
  Float.Array.blit s.activity 0 activity 0 used;
  s.activity <- activity;
  s.polarity <- grow_bytes s.polarity n ~used;
  s.seen <- grow_bytes s.seen n ~used;
  s.heap_index <- grow_bytes s.heap_index (4 * n) ~used:(4 * used)

(* The watch table is not reserved (each list is a block of its own); it
   doubles as variables arrive, and a new variable's two lists, which may
   hold entries from before a [reset], are emptied. *)
let new_var s =
  let v = s.nvars + 1 in
  if v > max_var then invalid_arg "Sat.new_var: past the 32-bit literal range";
  let slots = Bytes.length s.assigns in
  if v >= slots then grow_vars s (max (v + 1) (2 * slots));
  let w = Array.length s.watches in
  if (2 * v) + 1 >= w then begin
    let old = s.watches in
    s.watches <-
      Array.init
        (max ((2 * v) + 2) (2 * w))
        (fun i -> if i < w then old.(i) else Vec.create ())
  end;
  s.nvars <- v;
  init_var s v;
  Vec.clear s.watches.(2 * v);
  Vec.clear s.watches.((2 * v) + 1);
  heap_insert s v;
  v

let num_vars s = s.nvars

let lit_of_dimacs s l =
  let v = abs l in
  if l = 0 || v > s.nvars then invalid_arg "Sat: literal out of range";
  if l > 0 then 2 * v else (2 * v) + 1

(* value of an internal literal: -1 unassigned, 0 false, 1 true *)
let lit_val s l =
  let a = Bytes.get_uint8 s.assigns (l lsr 1) in
  if a = 2 then -1 else a lxor (l land 1)

let decision_level s = Vec.size s.trail_lim

(* --- assignment --------------------------------------------------------- *)

let enqueue s l reason =
  let v = l lsr 1 in
  Bytes.set_uint8 s.assigns v (1 lxor (l land 1));
  set_word s.level v (decision_level s);
  set_word s.reason v reason;
  Vec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    let trail = s.trail.Vec.data in
    let assigns = s.assigns and polarity = s.polarity and reason = s.reason in
    for i = Vec.size s.trail - 1 downto bound do
      let v = trail.(i) lsr 1 in
      Bytes.set_uint8 polarity v (Bytes.get_uint8 assigns v);
      Bytes.set assigns v unset;
      set_word reason v (-1);
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound;
    if s.n_assumed > lvl then s.n_assumed <- lvl
  end

(* --- clause arena --------------------------------------------------------- *)

let clause_len s c = word s.arena c lsr 2
let is_learnt s c = word s.arena c land learnt_bit <> 0

(* Copy the first [k] literals of [s.lits] into the arena as a new clause;
   a learnt clause also gets the next learnt id, with zero activity. Past
   the arena's capacity it doubles, copying the words in use. *)
let alloc_clause s ~learnt k =
  let c = s.arena_size in
  let need = c + 2 + k in
  if k > max_clause_len || need > max_words then
    invalid_arg "Sat: clause past the 32-bit offset range";
  if 4 * need > Bytes.length s.arena then begin
    let n = min max_words (max need (max 1024 (2 * c))) in
    s.arena <- grow_bytes s.arena (4 * n) ~used:(4 * c)
  end;
  let a = s.arena and lits = s.lits.data in
  set_word a c ((k lsl 2) lor if learnt then learnt_bit else 0);
  for i = 0 to k - 1 do
    set_word a (c + 2 + i) lits.(i)
  done;
  s.arena_size <- need;
  if learnt then begin
    let id = s.n_learnt_ids in
    if id = Array.length s.cla_act then begin
      let act = Array.make (max 64 (2 * id)) 0. in
      Array.blit s.cla_act 0 act 0 id;
      s.cla_act <- act
    end;
    s.cla_act.(id) <- 0.;
    set_word a (c + 1) id;
    s.n_learnt_ids <- id + 1
  end
  else set_word a (c + 1) 0;
  c

(* --- clause management --------------------------------------------------- *)

let attach_clause s c =
  Vec.push s.watches.(word s.arena (c + 2) lxor 1) c;
  Vec.push s.watches.(word s.arena (c + 3) lxor 1) c

let var_bump s v =
  let act = s.activity in
  let a = Float.Array.get act v +. s.var_inc in
  Float.Array.set act v a;
  if a > 1e100 then begin
    for i = 1 to s.nvars do
      Float.Array.set act i (Float.Array.get act i *. 1e-100)
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  let i = word s.heap_index v in
  if i >= 0 then heap_sift_up s i

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* Rescaling covers the clauses in [learnts] only: a learnt clause is
   bumped once before it joins the vector, and keeps its own activity if
   that first bump overflows. *)
let cla_bump s c =
  let act = s.cla_act in
  let id = word s.arena (c + 1) in
  act.(id) <- act.(id) +. s.cla_inc;
  if act.(id) > 1e20 then begin
    for i = 0 to Vec.size s.learnts - 1 do
      let id = word s.arena (Vec.get s.learnts i + 1) in
      act.(id) <- act.(id) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* Move the best watch candidate among [s.lits]'s entries [i .. k - 1] to
   slot [i]: the first literal that is not false, else the first false one
   at the highest level. A clause with no false literal keeps its order. *)
let promote_watch s i k =
  let a = s.lits.data in
  let rank l = if lit_val s l <> 0 then max_int else word s.level (l lsr 1) in
  let best = ref i and best_rank = ref (rank a.(i)) in
  let j = ref (i + 1) in
  while !best_rank < max_int && !j < k do
    let r = rank a.(!j) in
    if r > !best_rank then begin
      best := !j;
      best_rank := r
    end;
    incr j
  done;
  let x = a.(i) in
  a.(i) <- a.(!best);
  a.(!best) <- x

(* A clause [c] attached above level 0 whose second watch is false is unit
   or conflicting under the kept trail. Unit: backtrack to the level where
   it became unit and enqueue its first literal there, with [c] as reason
   (a first literal already true at or below that level needs nothing).
   Conflicting, both watches false at one level: backtrack below it. *)
let assert_added s c =
  let l0 = word s.arena (c + 2) and l1 = word s.arena (c + 3) in
  if lit_val s l1 = 0 then begin
    let lv1 = word s.level (l1 lsr 1) in
    match lit_val s l0 with
    | 0 when word s.level (l0 lsr 1) = lv1 -> cancel_until s (lv1 - 1)
    | 1 when word s.level (l0 lsr 1) <= lv1 -> ()
    | _ ->
        cancel_until s lv1;
        enqueue s l0 c
  end

(* Store the clause held in [s.lits]: sort it ascending (the watch order
   the solver has always used) in place with an insertion sort, then drop
   duplicates and literals false at level 0 in one pass; a complementary
   pair (adjacent once sorted) or a literal true at level 0 makes the
   clause redundant. A literal fixed above level 0, by the assumption
   levels a solve kept, neither shrinks nor satisfies the clause: a unit
   goes to level 0, and a longer clause watches its best two literals and
   is asserted or backtracked past where the kept trail falsifies it. *)
let add_lits s =
  let n = Vec.size s.lits and a = s.lits.data in
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let kept = ref 0 and prev = ref (-1) and redundant = ref false in
  for i = 0 to n - 1 do
    let l = a.(i) in
    if l <> !prev then begin
      if l = !prev lxor 1 then redundant := true;
      (match lit_val s l with
      | 1 when word s.level (l lsr 1) = 0 -> redundant := true
      | 0 when word s.level (l lsr 1) = 0 -> ()
      | _ ->
          a.(!kept) <- l;
          incr kept);
      prev := l
    end
  done;
  if not !redundant then
    match !kept with
    | 0 -> s.ok <- false
    | 1 ->
        cancel_until s 0;
        enqueue s a.(0) (-1)
    | k ->
        let above_root = decision_level s > 0 in
        if above_root then begin
          promote_watch s 0 k;
          promote_watch s 1 k
        end;
        let c = alloc_clause s ~learnt:false k in
        Vec.push s.clauses c;
        attach_clause s c;
        if above_root then assert_added s c

(* A model left by a previous [solve] is dropped, but not the assumption
   levels it kept. *)
let add_clause s lits =
  cancel_until s s.n_assumed;
  if s.ok then begin
    Vec.clear s.lits;
    List.iter (fun l -> Vec.push s.lits (lit_of_dimacs s l)) lits;
    add_lits s
  end

let add_clause3 s a b c =
  cancel_until s s.n_assumed;
  if s.ok then begin
    Vec.clear s.lits;
    Vec.push s.lits (lit_of_dimacs s a);
    Vec.push s.lits (lit_of_dimacs s b);
    Vec.push s.lits (lit_of_dimacs s c);
    add_lits s
  end

(* --- propagation --------------------------------------------------------- *)

(* Returns the conflicting clause, or -1. The arena, the per-variable
   stores and the watch table do not grow while propagating, and no watch
   list receives a clause while it is the one being scanned, so all of them
   can be held across the loop; only the trail's buffer can grow. A literal
   [l] is false when its variable's byte in [assigns] is [l land 1], and
   true when it is [l land 1 lxor 1]. *)
let propagate s =
  let confl = ref (-1) in
  let a = s.arena and assigns = s.assigns and watches = s.watches in
  let level = s.level and reason = s.reason in
  let trail = s.trail in
  let dl = decision_level s in
  let qhead = ref s.qhead and props = ref 0 in
  while !confl < 0 && !qhead < trail.Vec.size do
    let l = trail.Vec.data.(!qhead) in
    incr qhead;
    incr props;
    (* [l] became true, so literal [l lxor 1] became false; the clauses
       watching it are registered under [watches.(l)]. *)
    let ws = watches.(l) in
    let wd = ws.Vec.data in
    let falsified = l lxor 1 in
    let n = ws.Vec.size in
    let kept = ref 0 and i = ref 0 in
    while !i < n do
      let c = wd.(!i) in
      incr i;
      let l0 = c + 2 in
      (* ensure the false literal is the second one *)
      let first =
        let x = word a l0 in
        if x = falsified then begin
          let y = word a (l0 + 1) in
          set_word a l0 y;
          set_word a (l0 + 1) falsified;
          y
        end
        else x
      in
      let fa = Bytes.get_uint8 assigns (first lsr 1) and fbit = first land 1 in
      if fa = fbit lxor 1 then begin
        (* clause satisfied; keep the watch *)
        wd.(!kept) <- c;
        incr kept
      end
      else begin
        (* look for a new literal to watch *)
        let last = l0 + (word a c lsr 2) in
        let j = ref (l0 + 2) in
        while !j < last do
          let lj = word a !j in
          if Bytes.get_uint8 assigns (lj lsr 1) <> lj land 1 then begin
            set_word a (l0 + 1) lj;
            set_word a !j falsified;
            Vec.push watches.(lj lxor 1) c;
            j := max_int
          end
          else incr j
        done;
        if !j <> max_int then begin
          (* unit or conflicting *)
          wd.(!kept) <- c;
          incr kept;
          if fa = fbit then begin
            (* conflict: keep the remaining watches *)
            while !i < n do
              wd.(!kept) <- wd.(!i);
              incr kept;
              incr i
            done;
            qhead := trail.Vec.size;
            confl := c
          end
          else begin
            let v = first lsr 1 in
            Bytes.set_uint8 assigns v (fbit lxor 1);
            set_word level v dl;
            set_word reason v c;
            Vec.push trail first
          end
        end
      end
    done;
    ws.Vec.size <- !kept
  done;
  s.qhead <- !qhead;
  s.n_propagations <- s.n_propagations + !props;
  !confl

(* --- conflict analysis (first UIP) --------------------------------------- *)

(* Leaves the learnt clause in [s.lits] — the asserting literal first, then
   the rest latest-found first — and returns the backtrack level. *)
let analyze s confl =
  let out = s.lits in
  Vec.clear out;
  Vec.push out 0 (* the asserting literal's slot *);
  let a = s.arena and seen = s.seen and level = s.level in
  let trail = s.trail.Vec.data in
  let dl = decision_level s in
  let path_count = ref 0 in
  let p = ref (-1) in (* -1 encodes "start with the whole conflict clause" *)
  let index = ref (Vec.size s.trail - 1) in
  let backtrack_level = ref 0 in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let c' = !c in
    if is_learnt s c' then cla_bump s c';
    let base = c' + 2 in
    let start = if !p = -1 then 0 else 1 in
    for j = base + start to base + (word a c' lsr 2) - 1 do
      let q = word a j in
      let v = q lsr 1 in
      let lv = word level v in
      if Bytes.get_uint8 seen v = 0 && lv > 0 then begin
        var_bump s v;
        Bytes.set_uint8 seen v 1;
        if lv >= dl then incr path_count
        else begin
          Vec.push out q;
          if lv > !backtrack_level then backtrack_level := lv
        end
      end
    done;
    (* select next literal to expand from the trail *)
    while Bytes.get_uint8 seen (trail.(!index) lsr 1) = 0 do
      decr index
    done;
    let l = trail.(!index) in
    decr index;
    p := l;
    Bytes.set_uint8 seen (l lsr 1) 0;
    decr path_count;
    if !path_count > 0 then begin
      c := word s.reason (l lsr 1);
      assert (!c >= 0)
    end
    else continue := false
  done;
  let d = out.data and n = Vec.size out in
  d.(0) <- !p lxor 1;
  for i = 1 to n - 1 do
    Bytes.set_uint8 seen (d.(i) lsr 1) 0
  done;
  (* reverse the found-order tail *)
  let i = ref 1 and j = ref (n - 1) in
  while !i < !j do
    let x = d.(!i) in
    d.(!i) <- d.(!j);
    d.(!j) <- x;
    incr i;
    decr j
  done;
  !backtrack_level

(* --- learnt clause DB reduction ------------------------------------------ *)

(* The clause is the reason for its first literal, which is assigned: it
   must stay, or conflict analysis would follow a deleted reason. *)
let locked s c =
  let l0 = word s.arena (c + 2) in
  lit_val s l0 = 1 && word s.reason (l0 lsr 1) = c

let remove_watch s l c =
  let ws = s.watches.(l) in
  let n = Vec.size ws in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c' = Vec.get ws i in
    if c' <> c then begin
      Vec.set ws !kept c';
      incr kept
    end
  done;
  Vec.shrink ws !kept

let delete_clause s c =
  remove_watch s (word s.arena (c + 2) lxor 1) c;
  remove_watch s (word s.arena (c + 3) lxor 1) c;
  set_word s.arena c (word s.arena c lor deleted_bit);
  s.garbage <- s.garbage + 2 + clause_len s c

(* Slide the live clauses down over the deleted ones, keeping their order,
   and rewrite every offset held elsewhere. Each live clause's new offset
   is parked in its learnt-id slot until the move; the caller renumbers
   learnt ids afterwards. *)
let compact s =
  let a = s.arena and size = s.arena_size in
  let dst = ref 0 and off = ref 0 in
  while !off < size do
    let header = word a !off in
    let words = (header lsr 2) + 2 in
    if header land deleted_bit = 0 then begin
      set_word a (!off + 1) !dst;
      dst := !dst + words
    end;
    off := !off + words
  done;
  let forward c = word a (c + 1) in
  for l = 0 to (2 * (s.nvars + 1)) - 1 do
    Vec.map_inplace forward s.watches.(l)
  done;
  let reason = s.reason in
  for v = 1 to s.nvars do
    let r = word reason v in
    if r >= 0 then set_word reason v (forward r)
  done;
  Vec.map_inplace forward s.clauses;
  Vec.map_inplace forward s.learnts;
  off := 0;
  while !off < size do
    let header = word a !off in
    let words = (header lsr 2) + 2 in
    if header land deleted_bit = 0 then
      Bytes.blit a (4 * !off) a (4 * forward !off) (4 * words);
    off := !off + words
  done;
  s.arena_size <- !dst;
  s.garbage <- 0

(* Drop the less active half of the learnts (never binary clauses or
   reasons), renumber the survivors' learnt ids in their new order, and
   compact the arena once more than half of it is garbage. *)
let reduce_db s =
  let n = Vec.size s.learnts in
  let arr = Array.sub s.learnts.data 0 n in
  let act = s.cla_act in
  let activity c = act.(word s.arena (c + 1)) in
  Array.sort (fun a b -> Float.compare (activity a) (activity b)) arr;
  Vec.clear s.learnts;
  let limit = s.cla_inc /. float_of_int (max n 1) in
  Array.iteri
    (fun i c ->
      if
        (not (locked s c))
        && clause_len s c > 2
        && (i < n / 2 || activity c < limit)
      then delete_clause s c
      else Vec.push s.learnts c)
    arr;
  let n_kept = Vec.size s.learnts in
  let kept = Array.init n_kept (fun i -> activity (Vec.get s.learnts i)) in
  if 2 * s.garbage > s.arena_size then compact s;
  for i = 0 to n_kept - 1 do
    act.(i) <- kept.(i);
    set_word s.arena (Vec.get s.learnts i + 1) i
  done;
  s.n_learnt_ids <- n_kept

(* --- search --------------------------------------------------------------- *)

let pick_branch_var s =
  let assigns = s.assigns and v = ref 0 in
  while !v = 0 && Vec.size s.heap > 0 do
    let w = heap_remove_max s in
    if Bytes.get assigns w = unset then v := w
  done;
  !v

(* Restricted decision order: the first [len] vars of [vars], and a
   monotone scan pointer. The pointer only ever moves right between
   conflicts; a backtrack unassigns variables to its left, so conflicts (and
   fresh [search] calls after a restart) reset it to 0. [vars] is the
   caller's buffer until the first re-sort ([owned] false), which first
   swaps in a private copy of exactly [len] vars. A lexicographic order
   ([lex]) holds DIMACS literals instead, each deciding its variable to
   make it true, and is never re-sorted. *)
type order = {
  mutable vars : int array;
  len : int;
  mutable next : int;
  mutable owned : bool;
  lex : bool;
}

(* The first unassigned candidate at or after the pointer; 0 when every
   candidate is assigned. *)
let pick_branch_restricted s o =
  let rec go i =
    if i >= o.len then 0
    else
      let v = o.vars.(i) in
      if Bytes.get s.assigns v = unset then begin
        o.next <- i;
        v
      end
      else go (i + 1)
  in
  go o.next

(* The lexicographic order's next decision: the internal literal of the
   first entry whose variable is unassigned; 0 when there is none. *)
let pick_branch_lex s o =
  let rec go i =
    if i >= o.len then 0
    else
      let d = o.vars.(i) in
      let v = abs d in
      if Bytes.get s.assigns v = unset then begin
        o.next <- i;
        if d > 0 then 2 * v else (2 * v) + 1
      end
      else go (i + 1)
  in
  go o.next

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

(* Which assumption decisions force the seeded (currently false)
   literals? Standard analyzeFinal: walk the trail top-down through
   reasons, keeping the decisions encountered (at assumption levels every
   decision is an assumption). Only assigned variables above level 0 are
   marked, and the walk clears each mark it passes, so no scratch mark
   outlives the call. Returns internal literals of the involved
   assumptions. *)
let seed_final s l =
  let v = l lsr 1 in
  if word s.level v > 0 then Bytes.set_uint8 s.seen v 1

let analyze_final s =
  let core = ref [] in
  for i = Vec.size s.trail - 1 downto 0 do
    let l = Vec.get s.trail i in
    let v = l lsr 1 in
    if Bytes.get_uint8 s.seen v = 1 then begin
      let r = word s.reason v in
      if r < 0 then core := l :: !core (* a decision: an assumption *)
      else
        for j = r + 2 to r + 1 + clause_len s r do
          let v' = word s.arena j lsr 1 in
          if v' <> v && word s.level v' > 0 then Bytes.set_uint8 s.seen v' 1
        done;
      Bytes.set_uint8 s.seen v 0
    end
  done;
  !core

type result = Sat | Unsat

(* Unsatisfiable specifically under the current assumptions (the instance
   itself may still be satisfiable). *)
exception Assumption_conflict

let search s ~assumptions ~order ~max_conflicts =
  let conflicts = ref 0 in
  (match order with Some o -> o.next <- 0 | None -> ());
  let rec loop () =
    let confl = propagate s in
    if confl >= 0 then begin
      s.n_conflicts <- s.n_conflicts + 1;
      incr conflicts;
      if decision_level s = 0 then begin
        s.ok <- false;
        Some Unsat
      end
      else if decision_level s <= Array.length assumptions then begin
        (* the conflict depends only on assumption decisions and their
           consequences: the query is unsatisfiable under them *)
        for j = confl + 2 to confl + 1 + clause_len s confl do
          seed_final s (word s.arena j)
        done;
        s.last_core <- analyze_final s;
        (* the levels below the conflicting one stay, propagated *)
        cancel_until s (decision_level s - 1);
        raise Assumption_conflict
      end
      else begin
        let back_level = analyze s confl in
        cancel_until s back_level;
        (match order with Some o -> o.next <- 0 | None -> ());
        let k = Vec.size s.lits in
        let asserting = Vec.get s.lits 0 in
        if k = 1 then enqueue s asserting (-1)
        else begin
          let c = alloc_clause s ~learnt:true k in
          cla_bump s c;
          Vec.push s.learnts c;
          attach_clause s c;
          enqueue s asserting c
        end;
        var_decay s;
        cla_decay s;
        loop ()
      end
    end
    else if !conflicts >= max_conflicts then begin
      cancel_until s 0;
      None
    end
    else begin
      if float_of_int (Vec.size s.learnts) >= s.max_learnts then reduce_db s;
      decide ()
    end
  and decide () =
    let level = decision_level s in
    if level < Array.length assumptions then begin
      (* take the next assumption as a decision *)
      let l = assumptions.(level) in
      match lit_val s l with
      | 1 ->
          (* already implied: open an empty level so indices line up *)
          Vec.push s.trail_lim (Vec.size s.trail);
          s.n_assumed <- level + 1;
          loop ()
      | 0 ->
          (* this assumption is falsified by the previous ones, whose
             levels all stay *)
          seed_final s (l lxor 1);
          s.last_core <- l :: analyze_final s;
          raise Assumption_conflict
      | _ ->
          Vec.push s.trail_lim (Vec.size s.trail);
          s.n_assumed <- level + 1;
          enqueue s l (-1);
          loop ()
    end
    else begin
      (* a picked variable decided to its saved phase; 0 stays 0 *)
      let phased v =
        if v = 0 then 0 else (2 * v) + 1 - Bytes.get_uint8 s.polarity v
      in
      let l =
        match order with
        | None -> phased (pick_branch_var s)
        | Some o when o.lex -> pick_branch_lex s o
        | Some o -> phased (pick_branch_restricted s o)
      in
      if l = 0 then Some Sat
      else begin
        s.n_decisions <- s.n_decisions + 1;
        Vec.push s.trail_lim (Vec.size s.trail);
        enqueue s l (-1);
        loop ()
      end
    end
  in
  loop ()

(* The [(buf, len)] of a decision order, checked: [len] fits [buf] and
   each of its first [len] entries names one of the instance's variables,
   as a variable or, [~lits], as a literal. *)
let check_order s ~lits (buf, len) =
  if len < 0 || len > Array.length buf then
    invalid_arg "Sat.solve: decide count out of range";
  for i = 0 to len - 1 do
    let v = if lits then abs buf.(i) else buf.(i) in
    if v < 1 || v > s.nvars then
      invalid_arg "Sat.solve: decide variable out of range"
  done

let solve ?conflict_limit ?deadline ?(assumptions = []) ?decide_vars ?lex s =
  s.last_core <- [];
  if decide_vars <> None && lex <> None then
    invalid_arg "Sat.solve: both decide_vars and lex";
  if not s.ok then Some Unsat
  else begin
    let assumptions = Array.of_list (List.map (lit_of_dimacs s) assumptions) in
    (* keep the levels of the assumptions this call shares, as a prefix,
       with the last one: they hold the same decisions, propagated *)
    let shared = min s.n_assumed (Array.length assumptions) in
    let keep = ref 0 in
    while !keep < shared && s.assumed.(!keep) = assumptions.(!keep) do
      incr keep
    done;
    cancel_until s !keep;
    s.assumed <- assumptions;
    if decide_vars = None && lex = None && not s.heap_live then begin
      (* the first solve that picks from the heap builds it, inserting
         the variables in order *)
      s.heap_live <- true;
      for v = 1 to s.nvars do
        heap_insert s v
      done
    end;
    let order =
      match (decide_vars, lex) with
      | Some (vars, len), _ ->
          check_order s ~lits:false (vars, len);
          (* the first restart segment decides in the order given — for
             circuit CNF, allocation order is roughly topological (inputs
             first, outputs propagated), and easy queries never pay for a
             sort — later segments re-sort by activity (below), giving
             conflict-heavy queries a periodically-refreshed VSIDS order *)
          Some { vars; len; next = 0; owned = false; lex = false }
      | None, Some (lits, len) ->
          check_order s ~lits:true (lits, len);
          Some { vars = lits; len; next = 0; owned = false; lex = true }
      | None, None -> None
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
        | Some o when i > 0 && not o.lex ->
            (* the query survived a whole restart segment: refresh the static
               decision order from the activities the conflicts built up, on
               a copy the caller's buffer never sees *)
            if not o.owned then begin
              o.vars <- Array.sub o.vars 0 o.len;
              o.owned <- true
            end;
            Array.sort
              (fun a b ->
                Float.compare
                  (Float.Array.get s.activity b)
                  (Float.Array.get s.activity a))
              o.vars
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
    | exception Assumption_conflict -> Some Unsat
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Sat.value: out of range";
  Bytes.get_uint8 s.assigns v = 1

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
let arena_words s = s.arena_size
