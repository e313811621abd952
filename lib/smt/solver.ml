module Obs = Achilles_obs.Obs

type result = Sat of Model.t | Unsat | Unknown

type stats = {
  mutable queries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sat_calls : int;
  mutable unknown_results : int;
  mutable budget_escalations : int;
  mutable budget_exhaustions : int;
  mutable injected_faults : int;
  mutable incremental_checks : int;
  mutable rung_retained : int;
  mutable solve_time : float;
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
}

let fresh_stats () =
  {
    queries = 0;
    cache_hits = 0;
    cache_misses = 0;
    sat_calls = 0;
    unknown_results = 0;
    budget_escalations = 0;
    budget_exhaustions = 0;
    injected_faults = 0;
    incremental_checks = 0;
    rung_retained = 0;
    solve_time = 0.;
    sat_conflicts = 0;
    sat_decisions = 0;
    sat_propagations = 0;
  }

(* --- per-query resource budgets ------------------------------------------- *)

type budget = {
  b_deadline : float option;
  b_conflicts : int option;
  b_escalations : int;
}

let budget ?deadline ?conflicts ?(escalations = 2) () =
  (match deadline with
  | Some d when d < 0. -> invalid_arg "Solver.budget: negative deadline"
  | _ -> ());
  (match conflicts with
  | Some c when c < 0 -> invalid_arg "Solver.budget: negative conflicts"
  | _ -> ());
  if escalations < 0 then invalid_arg "Solver.budget: negative escalations";
  { b_deadline = deadline; b_conflicts = conflicts; b_escalations = escalations }

(* --- fault injection -------------------------------------------------------

   Forces random [Unknown]s at exactly the sites where a real SAT search
   could blow past its budget, so every degradation path of the callers
   (search policies, partial reports) can be exercised. Draws come from one
   PRNG seeded by the configured seed, so a run replays the same fault
   pattern. *)

type fault_config = { f_rate : float; f_seed : int }

let env_float name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> float_of_string_opt (String.trim s)

let fault_config =
  ref
    {
      f_rate =
        (match env_float "ACHILLES_SOLVER_FAULT_RATE" with
        | Some r when r > 0. -> Float.min r 1.
        | _ -> 0.);
      f_seed =
        (match Sys.getenv_opt "ACHILLES_SOLVER_FAULT_SEED" with
        | Some s -> ( match int_of_string_opt (String.trim s) with
                      | Some n -> n
                      | None -> 0x5eed)
        | None -> 0x5eed);
    }

let fault_rate () = !fault_config.f_rate

(* One frame of the incremental context, with the query state of the
   stack up to and including it, so a check pays only for its extras. *)
type frame = {
  fr_term : Term.t;
  fr_guard : int; (* activation var *)
  fr_cone_start : int; (* [fc_cone] prefix length below this frame *)
  fr_ivals : Interval.carry; (* the interval scan of the frames so far *)
  fr_nontrue : bool; (* some frame so far is more than [True]s *)
}

(* The incremental solver context: one long-lived SAT instance plus
   bitblast cache, a stack of activation-literal frames mirroring the DFS
   path prefix, and the guard tables mapping terms to their activation
   variables. Lives in [state]; see the [Frames] module below for the
   operations. *)
type frames_ctx = {
  fc_sat : Sat.t;
  fc_bb : Bitblast.t;
  fc_guards : int Term.Tbl.t; (* term -> activation var *)
  fc_guard_terms : (int, Term.t) Hashtbl.t; (* reverse, for unsat cores *)
  mutable fc_frames : frame list; (* innermost first (as State.path) *)
  mutable fc_depth : int;
  mutable fc_cone : int array;
  (* the frames' cone vars, oldest frame first, each once, in
     [0 .. fc_cone_len); a check appends its extras' past that *)
  mutable fc_cone_len : int;
  mutable fc_listed : int array;
  (* by SAT var: [in_prefix] while [fc_cone]'s prefix holds it, else the
     stamp of the last check that appended it *)
  mutable fc_stamp : int;
  mutable fc_last_core : Term.t list option; (* terms behind the last Unsat *)
  mutable fc_busy : bool; (* a witness session runs on the stack *)
}

(* The solver's one mutable state: statistics, ambient budget, fault PRNG
   and the two SAT instances, each built on first use and then kept for
   the life of the process. *)
type solver_state = {
  sstats : stats;
  mutable sbudget : budget option;
  mutable sfault : Random.State.t option; (* seeded on the first draw *)
  mutable sframes : frames_ctx option; (* the incremental context *)
  mutable sframes_live : bool; (* [sframes] used since it was last cleared *)
  mutable sscratch : Bitblast.t option; (* scratch-route instance, reset per query *)
  mutable sscratch_busy : bool;
  mutable switness : bool; (* a witness session is open, on either route *)
  mutable slex : int array; (* a witness solve's decision order *)
}

let state =
  {
    sstats = fresh_stats ();
    sbudget = None;
    sfault = None;
    sframes = None;
    sframes_live = false;
    sscratch = None;
    sscratch_busy = false;
    switness = false;
    slex = [||];
  }

let stats () = state.sstats
let set_budget b = state.sbudget <- b
let get_budget () = state.sbudget

let set_fault_injection ?(rate = 0.) ?(seed = 0x5eed) () =
  if rate < 0. || rate > 1. then
    invalid_arg "Solver.set_fault_injection: rate outside [0,1]";
  fault_config := { f_rate = rate; f_seed = seed };
  state.sfault <- None

let reset_one st =
  st.queries <- 0;
  st.sat_calls <- 0;
  st.unknown_results <- 0;
  st.budget_escalations <- 0;
  st.budget_exhaustions <- 0;
  st.injected_faults <- 0;
  st.incremental_checks <- 0;
  st.rung_retained <- 0;
  st.solve_time <- 0.;
  st.sat_conflicts <- 0;
  st.sat_decisions <- 0;
  st.sat_propagations <- 0

let reset_stats () = reset_one (stats ())

let aggregate_stats () = { state.sstats with queries = state.sstats.queries }

(* Contexts are recycled once the SAT instance accumulates this many
   variables: every CDCL answer assigns all variables, so an instance that
   grew unboundedly across an entire run would make even trivial checks pay
   for every query that came before. Recycling re-asserts only the current
   stack (the bitblast cache is rebuilt on demand). *)
let context_var_cap = ref 200_000

let set_context_var_cap n =
  if n < 1 then invalid_arg "Solver.set_context_var_cap";
  context_var_cap := n

(* Arena words reserved per reserved variable. On FSP, the frame context
   and the largest scratch query each peak at about 15 words per variable,
   learnt clauses included (131k words for 9.5k variables, 15k for 1k). *)
let reserved_words_per_var = 20

(* A SAT instance for one of the two long-lived routes, with room reserved
   for a frame context at its recycling bound. The reservation is address
   space: a page of it is committed when first written, so a run pays only
   for the storage it uses, and no store is copied before the bound. *)
let reserved_sat () =
  let vars = !context_var_cap in
  Sat.create ~vars ~words:(reserved_words_per_var * vars) ()

(* --- incremental-solving switch --------------------------------------------

   The reference switch for differential tests: with incrementality off
   every verdict query takes the scratch route (the whole CNF rebuilt per
   query on a reset instance), which the frame-stack route must agree
   with. *)

let incremental_flag = ref true

let incremental_enabled () = !incremental_flag
let set_incremental b = incremental_flag := b

(* Flatten nested conjunctions, drop [True], dedupe and sort into the
   canonical conjunct list every query is decided on. Returns [None] when a
   conjunct is literally [False]. *)
let canonicalize terms =
  let rec flatten acc = function
    | [] -> Some acc
    | (t : Term.t) :: rest -> (
        match t.Term.node with
        | Term.True -> flatten acc rest
        | Term.False -> None
        | Term.And (a, b) -> flatten acc (a :: b :: rest)
        | _ -> flatten (t :: acc) rest)
  in
  Option.map (List.sort_uniq Term.compare) (flatten [] terms)

(* Does [canonicalize] flatten the conjunct to nothing, it being only
   [True]s? *)
let rec only_true (t : Term.t) =
  match t.Term.node with
  | Term.True -> true
  | Term.And (a, b) -> only_true a && only_true b
  | _ -> false

(* Does an injected fault hit this SAT call? Counts the fault, which then
   answers [Unknown]. *)
let fault_fires () =
  let cfg = !fault_config in
  if cfg.f_rate <= 0. then false
  else begin
    let rng =
      match state.sfault with
      | Some rng -> rng
      | None ->
          let rng = Random.State.make [| cfg.f_seed; 0 |] in
          state.sfault <- Some rng;
          rng
    in
    if Random.State.float rng 1.0 < cfg.f_rate then begin
      state.sstats.injected_faults <- state.sstats.injected_faults + 1;
      true
    end
    else false
  end

(* The escalation ladder. Run one solving attempt under the ambient
   budget; every [Unknown] answer (exhausted limit or injected fault) is
   retried at x4 the previous budget, up to [b_escalations] extra attempts,
   after which [Unknown] stands and counts as a budget exhaustion. With no
   ambient budget the single attempt is unbounded (modulo a per-call
   [conflict_limit]), preserving the historical semantics. *)
let with_budget ~conflict_limit attempt =
  let st = state.sstats in
  (* [rung] is how many escalations the answer needed (0 = first attempt);
     it reaches the trace so budget tuning can see which queries struggled. *)
  let finish ~rung r =
    (match r with
    | Unknown -> st.unknown_results <- st.unknown_results + 1
    | Sat _ | Unsat -> ());
    if Obs.live () then
      Obs.emit ~kind:"solver" ~name:"verdict"
        ~args:
          [
            ( "result",
              Obs.S
                (match r with
                | Sat _ -> "sat"
                | Unsat -> "unsat"
                | Unknown -> "unknown") );
            ("rung", Obs.I rung);
          ]
        ();
    r
  in
  match state.sbudget with
  | None -> finish ~rung:0 (attempt ~conflict_limit ~deadline:None)
  | Some b ->
      let base_conflicts =
        match conflict_limit with Some _ -> conflict_limit | None -> b.b_conflicts
      in
      if base_conflicts = None && b.b_deadline = None then
        finish ~rung:0 (attempt ~conflict_limit:None ~deadline:None)
      else begin
        let rec go i scale =
          let deadline =
            Option.map
              (fun s -> Unix.gettimeofday () +. (s *. float_of_int scale))
              b.b_deadline
          in
          let conflicts = Option.map (fun c -> c * scale) base_conflicts in
          match attempt ~conflict_limit:conflicts ~deadline with
          | Unknown when i < b.b_escalations ->
              st.budget_escalations <- st.budget_escalations + 1;
              go (i + 1) (scale * 4)
          | Unknown ->
              st.budget_exhaustions <- st.budget_exhaustions + 1;
              finish ~rung:i Unknown
          | r -> finish ~rung:i r
        in
        go 0 1
      end

(* The scratch route builds the query's whole CNF from nothing, on this
   scratch instance reset to the state a fresh one has: models depend only
   on the query, and the instance's buffers are reused rather than
   reallocated per query. A re-entrant call, which would reset the instance
   under its caller, gets a fresh (unreserved) instance instead. *)
let with_scratch f =
  if state.sscratch_busy then f (Bitblast.create (Sat.create ()))
  else begin
    let bb =
      match state.sscratch with
      | Some bb ->
          Bitblast.reset bb;
          bb
      | None ->
          let bb = Bitblast.create (reserved_sat ()) in
          state.sscratch <- Some bb;
          bb
    in
    state.sscratch_busy <- true;
    Fun.protect ~finally:(fun () -> state.sscratch_busy <- false) (fun () -> f bb)
  end

(* One [Sat.solve] call, counted: its wall time and the conflicts,
   decisions and propagations it added to the instance's counters. *)
let counted_solve sat solve =
  let st = state.sstats in
  st.sat_calls <- st.sat_calls + 1;
  let c0 = Sat.conflicts sat
  and d0 = Sat.decisions sat
  and p0 = Sat.propagations sat in
  let t0 = Unix.gettimeofday () in
  let answer = solve sat in
  st.solve_time <- st.solve_time +. (Unix.gettimeofday () -. t0);
  st.sat_conflicts <- st.sat_conflicts + Sat.conflicts sat - c0;
  st.sat_decisions <- st.sat_decisions + Sat.decisions sat - d0;
  st.sat_propagations <- st.sat_propagations + Sat.propagations sat - p0;
  answer

(* One SAT attempt on the CNF already loaded into [bb], with the model
   [read] back on [Sat]; [lex] as [Sat.solve]'s. *)
let run_sat bb ~read ~lex ~conflict_limit ~deadline =
  let answer =
    counted_solve (Bitblast.sat bb) (Sat.solve ?conflict_limit ?deadline ?lex)
  in
  match answer with
  | Some Sat.Sat -> Sat (read bb)
  | Some Sat.Unsat -> Unsat
  | None -> Unknown

let solve_with_sat terms ~conflict_limit ~deadline =
  if fault_fires () then Unknown
  else
    with_scratch (fun bb ->
        Obs.span Obs.Bitblast (fun () -> List.iter (Bitblast.assert_true bb) terms);
        run_sat bb ~read:Bitblast.extract_model ~lex:None ~conflict_limit
          ~deadline)

let check ?site ?conflict_limit terms =
  let st = state.sstats in
  st.queries <- st.queries + 1;
  Obs.span ?site Obs.Solver_query (fun () ->
      match canonicalize terms with
      | None -> Unsat
      | Some [] -> Sat Model.empty
      | Some key when Interval.definitely_unsat key -> Unsat
      | Some key -> with_budget ~conflict_limit (solve_with_sat key))

let is_sat ?site terms =
  match check ?site terms with Sat _ -> true | Unsat | Unknown -> false

let is_unsat terms = match check terms with Unsat -> true | Sat _ | Unknown -> false

let get_model terms =
  match check terms with Sat m -> Some m | Unsat | Unknown -> None

let implied assumptions t = is_unsat (Term.not_ t :: assumptions)

(* --- enumeration sessions --------------------------------------------------

   The contract is in the interface. A session's loop: [first ()] answers
   the base query, then each model goes to [on_model] and [again k block]
   asserts the blocking term it returns and answers again for model [k];
   every answer counts as one query with a [solver_query] span. *)
let run_session ?site ~limit ~first ~again on_model =
  let st = state.sstats in
  let query f =
    st.queries <- st.queries + 1;
    Obs.span ?site Obs.Solver_query f
  in
  (* [n]: models delivered before this answer *)
  let rec next n = function
    | Unsat -> `Exhausted
    | Unknown -> `Unknown
    | Sat model ->
        let block = on_model model in
        if n + 1 >= limit then `Limit
        else next (n + 1) (query (fun () -> again (n + 1) block))
  in
  next 0 (query first)

(* A session on the scratch instance, reset once at its start and held
   to its end, so a solver query issued from [on_model] gets a fresh
   instance from [with_scratch] rather than resetting the session's.
   [order bb k] is the decision order of model [k]'s solve, if any. *)
let scratch_session ?site ~model_vars ~limit ~order base on_model =
  with_scratch (fun bb ->
      let read bb = Bitblast.extract_vars bb model_vars in
      let solve k =
        let lex = order bb k in
        with_budget ~conflict_limit:None (fun ~conflict_limit ~deadline ->
            if fault_fires () then Unknown
            else run_sat bb ~read ~lex ~conflict_limit ~deadline)
      in
      let assert_true t =
        Obs.span Obs.Bitblast (fun () -> Bitblast.assert_true bb t)
      in
      run_session ?site ~limit on_model
        ~first:(fun () ->
          match canonicalize base with
          | None -> Unsat
          | Some key when Interval.definitely_unsat key -> Unsat
          | Some key ->
              List.iter assert_true key;
              solve 0)
        ~again:(fun k block ->
          assert_true block;
          solve k))

let enumerate ?site ~model_vars ~limit base on_model =
  if limit <= 0 then `Limit
  else
    scratch_session ?site ~model_vars ~limit
      ~order:(fun _ _ -> None)
      base on_model

(* --- canonical witnesses ----------------------------------------------------

   A witness solve decides in one fixed lexicographic order ([Sat.solve]'s
   [lex]): the message bits first, so its message is the least one the
   query admits under the preferred bit values, whatever instance it runs
   on. Bits outside the query take their preferred value on an instance
   that has translated them and are absent (zero) on one that has not, so
   a preference is false wherever a bit may be outside the query: always
   for witness 0, and from witness 1 on only under blocks that mention
   every message variable ([~scatter]). *)

(* murmur3's 32-bit finalizer, spelled out so witness preferences do not
   hang on the runtime's [Hashtbl.hash]. Products wrap modulo 2^63, which
   keeps their low 32 bits exact. *)
let fmix32 h =
  let h = h land 0xffff_ffff in
  let h = (h lxor (h lsr 16)) * 0x85eb_ca6b land 0xffff_ffff in
  let h = (h lxor (h lsr 13)) * 0xc2b2_ae35 land 0xffff_ffff in
  h lxor (h lsr 16)

(* Does witness [k] prefer message bit [p] (message order, most
   significant bit first) to be true? Consecutive least models differ only
   in their last bits; a pseudo-random pattern per witness spreads them. *)
let prefers ~scatter k p =
  scatter && k > 0 && fmix32 ((k * 0x9e37_79b9) lxor fmix32 p) land 1 = 1

let var_width (v : Term.var) =
  match v.Term.sort with Term.Bool -> 1 | Term.Bitvec w -> w

(* Witness [k]'s decision order on [bb], in [state.slex] (grown, never
   shrunk): every bit of [model_vars] [bb] has translated, in message order
   and most significant first, as the literal the witness prefers, then
   the [m] variables [rest 0 .. rest (m - 1)] preferring false. Returns
   its length. *)
let load_lex bb ~model_vars ~scatter k m rest =
  let need = Array.fold_left (fun n v -> n + var_width v) m model_vars in
  if Array.length state.slex < need then
    state.slex <- Array.make (max need (2 * Array.length state.slex)) 0;
  let buf = state.slex in
  let n = ref 0 and p = ref 0 in
  Array.iter
    (fun v ->
      let bits = Bitblast.var_bits bb v in
      let w = Array.length bits in
      for j = w - 1 downto 0 do
        let l = bits.(j) in
        buf.(!n) <- (if prefers ~scatter k (!p + w - 1 - j) then l else -l);
        incr n
      done;
      p := !p + var_width v)
    model_vars;
  for i = 0 to m - 1 do
    buf.(!n + i) <- -rest i
  done;
  !n + m

(* --- assumption-based frame stack ------------------------------------------

   The incremental core of the solver: one long-lived SAT instance per
   context, a push/pop stack of constraint frames mirroring the DFS path
   prefix, and per-term activation literals. Asserting a term adds the
   clause (-g \/ lit(term)) once; a check solves under the assumptions
   {g_t | t in stack} + {g_e | e in extras}, so sibling queries along the
   path tree re-use each other's CNF and learnt clauses and only the delta
   constraint is ever bitblasted. Popping a frame merely drops its term
   from the stack — the guard stays registered, and re-pushing the same
   term later (the interpreter pushes [cond] for the true child after
   checking [not cond] for the false child) costs a table hit.

   The frames' guards lead the assumptions, oldest first, so consecutive
   checks share their common path prefix as a prefix of assumptions. The
   SAT instance keeps those decision levels, propagated, from one solve
   to the next, and across the guard and block clauses added between
   solves ([Sat.solve], [Sat.add_clause]): a check propagates only the
   guards past the shared prefix and its extras'. Every solve here passes
   a decision order ([decide_vars] or [lex]), so the instance never
   builds a VSIDS heap.

   A [Sat] answer of [check] carries the values of the caller's
   [model_vars] (those the instance has bitblasted), read from the SAT
   assignment, and is otherwise empty. Such a model is a sound restriction
   of a satisfying assignment, but it depends on the instance's history:
   phase saving, activities and learnt clauses steer a persistent
   instance to models shaped by every earlier query. So it may decide
   later verdicts (the search settles satisfiable alive and prune checks
   with it) but never reaches a report. Witness bytes come from
   [witnesses], whose solves decide the message bits first in one fixed
   order with fixed preferred values ([Sat.solve]'s [lex]): the model
   that search returns is the least one in that order, which no history
   can move, so it equals the scratch session's. Complete solvers agree
   on verdicts, and these witnesses on models, which is why report
   digests are byte-identical with incrementality on or off. *)

module Frames = struct
  type t = frames_ctx

  (* [fc_listed]'s mark for the vars of the cone prefix; check stamps are
     positive, and 0 is never a stamp *)
  let in_prefix = -1

  let create () =
    let sat = reserved_sat () in
    {
      fc_sat = sat;
      fc_bb = Bitblast.create sat;
      fc_guards = Term.Tbl.create 256;
      fc_guard_terms = Hashtbl.create 256;
      fc_frames = [];
      fc_depth = 0;
      fc_cone = [||];
      fc_cone_len = 0;
      fc_listed = [||];
      fc_stamp = 0;
      fc_last_core = None;
      fc_busy = false;
    }

  let current () =
    let c =
      match state.sframes with
      | Some c -> c
      | None ->
          let c = create () in
          state.sframes <- Some c;
          c
    in
    state.sframes_live <- true;
    c

  (* Back to the state [create] builds, on the same SAT instance and
     buffers: [Bitblast.reset] restores the fresh instance exactly, and
     only the [fc_listed] slots of the instance's variables were ever
     marked. The check stamp runs on; stamps only need to differ from the
     marks left in [fc_listed]. *)
  let clear c =
    let n = min (Array.length c.fc_listed) (Sat.num_vars c.fc_sat + 1) in
    Array.fill c.fc_listed 0 n 0;
    Bitblast.reset c.fc_bb;
    Term.Tbl.reset c.fc_guards;
    Hashtbl.reset c.fc_guard_terms;
    c.fc_frames <- [];
    c.fc_depth <- 0;
    c.fc_cone_len <- 0;
    c.fc_last_core <- None

  (* Activation variable implying the term; allocated (and the implication
     clause added) once per context, then reused by every later frame or
     per-call assumption mentioning the same term. *)
  let guard c (term : Term.t) =
    match Term.Tbl.find_opt c.fc_guards term with
    | Some g -> g
    | None ->
        let g = Sat.new_var c.fc_sat in
        let l = Bitblast.lit_of c.fc_bb term in
        Sat.add_clause3 c.fc_sat (-g) l l;
        Term.Tbl.replace c.fc_guards term g;
        Hashtbl.replace c.fc_guard_terms g term;
        g

  (* Append to [fc_cone], from [len] on, the vars of the (translated)
     term's cone that are neither in the prefix nor marked [mark] yet,
     marking them; returns the new length. *)
  let append_cone c len mark term =
    let cone = Bitblast.cone_of c.fc_bb term in
    if len + Array.length cone > Array.length c.fc_cone then begin
      let buf =
        Array.make
          (max (len + Array.length cone) (2 * Array.length c.fc_cone))
          0
      in
      Array.blit c.fc_cone 0 buf 0 len;
      c.fc_cone <- buf
    end;
    let nv = Sat.num_vars c.fc_sat in
    if nv >= Array.length c.fc_listed then begin
      let listed = Array.make (max (nv + 1) (2 * Array.length c.fc_listed)) 0 in
      Array.blit c.fc_listed 0 listed 0 (Array.length c.fc_listed);
      c.fc_listed <- listed
    end;
    let buf = c.fc_cone and listed = c.fc_listed in
    let n = ref len in
    for i = 0 to Array.length cone - 1 do
      let v = cone.(i) in
      let l = listed.(v) in
      if l <> in_prefix && l <> mark then begin
        listed.(v) <- mark;
        buf.(!n) <- v;
        incr n
      end
    done;
    !n

  (* The carried state of the whole stack: the innermost frame's. *)
  let carried c =
    match c.fc_frames with
    | [] -> (Interval.top, false)
    | f :: _ -> (f.fr_ivals, f.fr_nontrue)

  (* [push] without the count, shared with [recycle]. *)
  let enter c term =
    let g = guard c term in
    let start = c.fc_cone_len in
    c.fc_cone_len <- append_cone c start in_prefix term;
    let ivals, nontrue = carried c in
    c.fc_frames <-
      {
        fr_term = term;
        fr_guard = g;
        fr_cone_start = start;
        fr_ivals = Interval.extend ivals term;
        fr_nontrue = nontrue || not (only_true term);
      }
      :: c.fc_frames;
    c.fc_depth <- c.fc_depth + 1

  (* The context cleared back to a fresh instance, with the live frames
     re-entered oldest first: their guards, and so the carried cone
     prefix, are renumbered. *)
  let recycle c =
    Obs.count "solver.context_resets";
    let frames = c.fc_frames in
    clear c;
    List.iter (fun f -> enter c f.fr_term) (List.rev frames)

  (* A witness session holds the stack from its first solve to its last:
     moving the stack under it would change the query it enumerates. *)
  let not_busy c what =
    if c.fc_busy then
      invalid_arg
        ("Solver.Frames." ^ what ^ ": a witness session holds the stack")

  let push c term =
    not_busy c "push";
    Obs.count "solver.push";
    enter c term

  let pop c =
    not_busy c "pop";
    match c.fc_frames with
    | [] -> invalid_arg "Solver.Frames.pop: empty frame stack"
    | f :: rest ->
        Obs.count "solver.pop";
        for i = f.fr_cone_start to c.fc_cone_len - 1 do
          c.fc_listed.(c.fc_cone.(i)) <- 0
        done;
        c.fc_cone_len <- f.fr_cone_start;
        c.fc_frames <- rest;
        c.fc_depth <- c.fc_depth - 1

  let depth c = c.fc_depth
  let path c = List.map (fun f -> f.fr_term) c.fc_frames

  (* Align the frame stack with a DFS path (newest first, as [State.path]):
     keep the longest common oldest-first prefix, pop what the search
     backtracked past, push the delta oldest first. Both lists are cut to
     the shorter one's length and walked newest first together, so the
     oldest mismatch bounds the prefix; no list is reversed. *)
  let set_path c target =
    not_busy c "set_path";
    let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
    let m = List.length target in
    let len = min c.fc_depth m in
    (* [i]: the oldest-first index of the pair at hand; [keep]: the common
       prefix length, bounded by every mismatch seen *)
    let rec common i keep frames tgt =
      match (frames, tgt) with
      | f :: fr, t :: tr ->
          common (i - 1) (if Term.equal f.fr_term t then keep else i) fr tr
      | _ -> keep
    in
    let keep =
      common (len - 1) len (drop (c.fc_depth - len) c.fc_frames)
        (drop (m - len) target)
    in
    for _ = keep + 1 to c.fc_depth do
      pop c
    done;
    (* the newest [k] terms of [l], pushed oldest first *)
    let rec push_newest k l =
      if k > 0 then
        match l with
        | t :: rest ->
            push_newest (k - 1) rest;
            push c t
        | [] -> ()
    in
    push_newest (m - keep) target

  let learnts c = Sat.num_learnts c.fc_sat

  (* The decide vars of a check on the (guarded) [extras]: the frames'
     cone prefix, then each extra's cone vars not listed yet, first
     occurrence kept. They fill [fc_cone]; returns how many there are. *)
  let load_decide_vars c extras =
    c.fc_stamp <- c.fc_stamp + 1;
    List.fold_left
      (fun n e -> append_cone c n c.fc_stamp e)
      c.fc_cone_len extras

  let decide_vars c extras =
    List.iter (fun e -> ignore (guard c e)) extras;
    Array.sub c.fc_cone 0 (load_decide_vars c extras)

  let bitblast c = c.fc_bb

  (* The frames' guards, oldest first, then the extras' (guarding them):
     assumptions become the leading decision levels, so this keeps the
     shared path prefix at the same levels across sibling queries. *)
  let assumptions c extras =
    List.fold_left (fun l f -> f.fr_guard :: l) [] c.fc_frames
    @ List.map (guard c) extras

  (* One query's SAT search on the context under the ambient budget, the
     escalation rungs keeping the learnt clauses; [solve] is one attempt
     but for its budget. *)
  let solve_budgeted c ~conflict_limit ~model_vars solve =
    let st = state.sstats in
    let rung = ref (-1) in
    with_budget ~conflict_limit (fun ~conflict_limit ~deadline ->
        incr rung;
        if !rung > 0 then begin
          let retained = Sat.num_learnts c.fc_sat in
          (* learning carried into an escalation retry: the rung
             restarts with a bigger budget but not from scratch *)
          st.rung_retained <- st.rung_retained + retained;
          Obs.count ~n:retained "solver.rung_retained_learnts"
        end;
        if fault_fires () then Unknown
        else
          match
            counted_solve c.fc_sat (solve ~conflict_limit ~deadline)
          with
          | Some Sat.Sat ->
              Sat
                (match model_vars with
                | None -> Model.empty
                | Some vars -> Bitblast.extract_vars c.fc_bb vars)
          | Some Sat.Unsat ->
              c.fc_last_core <-
                (match Sat.unsat_core c.fc_sat with
                | [] -> None
                | lits ->
                    Some
                      (List.filter_map
                         (fun l -> Hashtbl.find_opt c.fc_guard_terms (abs l))
                         lits));
              Unsat
          | None -> Unknown)

  let check ?site ?conflict_limit ?model_vars c extras =
    not_busy c "check";
    let st = state.sstats in
    st.queries <- st.queries + 1;
    st.incremental_checks <- st.incremental_checks + 1;
    c.fc_last_core <- None;
    Obs.span ?site Obs.Solver_query (fun () ->
        (* the scratch route's trivial answers and interval pre-check, on
           the frames' carried state plus the extras: the answers
           [canonicalize] and [Interval.definitely_unsat] give on the
           whole conjunction, which depend on its set of conjuncts only.
           A literal [False] needs no test of its own: the interval scan
           refutes it, and [canonicalize] then leaves no core *)
        let ivals, nontrue = carried c in
        if not (nontrue || List.exists (fun e -> not (only_true e)) extras)
        then Sat Model.empty
        else if Interval.unsat (List.fold_left Interval.extend ivals extras)
        then begin
          (* the analysis does not localize the conflict: the whole
             canonical conjunction stands in for a core *)
          c.fc_last_core <-
            canonicalize
              (List.fold_left (fun l f -> f.fr_term :: l) extras c.fc_frames);
          Unsat
        end
        else begin
          if Sat.num_vars c.fc_sat > !context_var_cap then recycle c;
          let assumptions, n_decide =
            Obs.span Obs.Bitblast (fun () ->
                let assumptions = assumptions c extras in
                (* decisions restricted to the query's own translation
                   cone: everything else in the shared instance is either
                   an unassumed activation implication or a total circuit
                   definition, so a cone-complete partial assignment always
                   extends — the query must not pay for what its siblings
                   accumulated *)
                (assumptions, load_decide_vars c extras))
          in
          solve_budgeted c ~conflict_limit ~model_vars
            (fun ~conflict_limit ~deadline ->
              Sat.solve ?conflict_limit ?deadline ~assumptions
                ~decide_vars:(c.fc_cone, n_decide) ?lex:None)
        end)

  let is_sat ?conflict_limit c extras =
    match check ?conflict_limit c extras with
    | Sat _ -> true
    | Unsat | Unknown -> false

  (* Assumption terms (frames and per-call extras alike) responsible for the
     last [Unsat]; [None] when the last check answered Sat/Unknown or hit a
     trivially-false conjunct. *)
  let unsat_core c = c.fc_last_core

  (* A witness session on the stack as it stands: [extras] and then each
     block ride as guarded extras, and every solve decides in witness
     order — the message bits, then the query's cone. Its answers match
     the scratch session's: the first query is refuted by the same
     interval pre-check only, and every query after a block is solved.
     Nothing else checks on the context during the session, so the cone
     its last solve left in [fc_cone] stands, and a block's solve only
     appends the block's cone (the order past the message bits does not
     move the witness); a recycle renumbers it, so it is reloaded. *)
  let witnesses ?site ~model_vars ~limit ~scatter c extras on_model =
    let st = state.sstats in
    let extras = ref extras in
    let cone_len = ref (-1) (* decide vars in [fc_cone]; -1: reload *) in
    let solve k added =
      st.incremental_checks <- st.incremental_checks + 1;
      c.fc_last_core <- None;
      if Sat.num_vars c.fc_sat > !context_var_cap then begin
        recycle c;
        cone_len := -1
      end;
      let assumptions, n =
        Obs.span Obs.Bitblast (fun () ->
            let assumptions = assumptions c !extras in
            cone_len :=
              if !cone_len < 0 then load_decide_vars c !extras
              else
                List.fold_left
                  (fun n e -> append_cone c n c.fc_stamp e)
                  !cone_len added;
            ( assumptions,
              load_lex c.fc_bb ~model_vars ~scatter k !cone_len (fun i ->
                  c.fc_cone.(i)) ))
      in
      solve_budgeted c ~conflict_limit:None ~model_vars:(Some model_vars)
        (fun ~conflict_limit ~deadline ->
          Sat.solve ?conflict_limit ?deadline ~assumptions ?decide_vars:None
            ~lex:(state.slex, n))
    in
    c.fc_busy <- true;
    Fun.protect
      ~finally:(fun () -> c.fc_busy <- false)
      (fun () ->
        run_session ?site ~limit on_model
          ~first:(fun () ->
            let ivals, _ = carried c in
            if Interval.unsat (List.fold_left Interval.extend ivals !extras)
            then Unsat
            else solve 0 !extras)
          ~again:(fun k block ->
            extras := block :: !extras;
            solve k [ block ]))
end

(* The incremental context caches CNF, guard variables and learnt clauses
   keyed by term structure: kept, it would leave the long-lived SAT instance
   holding guards for terms from the configuration being abandoned — and
   after a [Term.clear_interning] those structural keys can collide with
   fresh terms. So the context is cleared back to the fresh state, on the
   same instance, and counts as live again on its next check. The scratch
   instance holds no results (every query resets it first); it is reset
   here too, to let go of the abandoned terms, unless an enumeration
   session is running on it. Neither may move under an open witness
   session. *)
let reset_contexts () =
  if state.switness then
    invalid_arg "Solver.reset_contexts: a witness session is open";
  Option.iter Frames.clear state.sframes;
  state.sframes_live <- false;
  if not state.sscratch_busy then Option.iter Bitblast.reset state.sscratch

let reset_all_for_tests () =
  reset_one state.sstats;
  reset_contexts ();
  Term.clear_interning ();
  Bitblast.reset_memo_stats ();
  Obs.reset_all ()

let aggregate_incremental_contexts () = if state.sframes_live then 1 else 0

let check_assuming ?site ?conflict_limit ?model_vars ?(path = []) extras =
  if state.switness then
    invalid_arg "Solver.check_assuming: a witness session is open";
  if not (incremental_enabled ()) then check ?site ?conflict_limit (extras @ path)
  else begin
    let c = Frames.current () in
    Frames.set_path c path;
    Frames.check ?site ?conflict_limit ?model_vars c extras
  end

let is_sat_assuming ?site ?path terms =
  match check_assuming ?site ?path terms with
  | Sat _ -> true
  | Unsat | Unknown -> false

let last_assumption_core () =
  if not (incremental_enabled ()) then None
  else Option.bind state.sframes Frames.unsat_core

let witnesses ?site ~model_vars ~limit ~scatter ?(path = []) extras on_model =
  if state.switness then
    invalid_arg "Solver.witnesses: a witness session is open";
  if limit <= 0 then `Limit
  else begin
    state.switness <- true;
    Fun.protect
      ~finally:(fun () -> state.switness <- false)
      (fun () ->
        if incremental_enabled () then begin
          let c = Frames.current () in
          Frames.set_path c path;
          Frames.witnesses ?site ~model_vars ~limit ~scatter c extras on_model
        end
        else
          scratch_session ?site ~model_vars ~limit
            ~order:(fun bb k ->
              let n =
                load_lex bb ~model_vars ~scatter k
                  (Sat.num_vars (Bitblast.sat bb))
                  (fun i -> i + 1)
              in
              Some (state.slex, n))
            (extras @ path) on_model)
  end
