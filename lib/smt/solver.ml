module Obs = Achilles_obs.Obs

type result = Sat of Model.t | Unsat | Unknown

type stats = {
  mutable queries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable interval_prunes : int;
  mutable sat_calls : int;
  mutable sat_results : int;
  mutable unsat_results : int;
  mutable unknown_results : int;
  mutable budget_escalations : int;
  mutable budget_exhaustions : int;
  mutable injected_faults : int;
  mutable incremental_checks : int;
  mutable frame_pushes : int;
  mutable frame_pops : int;
  mutable learnts_retained : int;
  mutable rung_retained : int;
  mutable context_resets : int;
  mutable solve_time : float;
}

let fresh_stats () =
  {
    queries = 0;
    cache_hits = 0;
    cache_misses = 0;
    interval_prunes = 0;
    sat_calls = 0;
    sat_results = 0;
    unsat_results = 0;
    unknown_results = 0;
    budget_escalations = 0;
    budget_exhaustions = 0;
    injected_faults = 0;
    incremental_checks = 0;
    frame_pushes = 0;
    frame_pops = 0;
    learnts_retained = 0;
    rung_retained = 0;
    context_resets = 0;
    solve_time = 0.;
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

(* The incremental solver context: one long-lived SAT instance plus
   bitblast cache, a stack of activation-literal frames mirroring the DFS
   path prefix, and the guard tables mapping terms to their activation
   variables. Lives in [state]; see the [Frames] module below for the
   operations. *)
type frames_ctx = {
  mutable fc_sat : Sat.t;
  mutable fc_bb : Bitblast.t;
  fc_guards : int Term.Tbl.t; (* term -> activation var *)
  fc_guard_terms : (int, Term.t) Hashtbl.t; (* reverse, for unsat cores *)
  mutable fc_stack : Term.t list; (* frames, innermost first (as State.path) *)
  mutable fc_last_core : Term.t list option; (* terms behind the last Unsat *)
}

(* The solver's one mutable state: statistics, ambient budget, fault PRNG
   and the two SAT instances. *)
type solver_state = {
  sstats : stats;
  mutable sbudget : budget option;
  mutable sfault : Random.State.t option; (* seeded on the first draw *)
  mutable sframes : frames_ctx option; (* lazily-built incremental context *)
  mutable sscratch : Bitblast.t option; (* scratch-route instance, reset per query *)
  mutable sscratch_busy : bool;
}

let state =
  {
    sstats = fresh_stats ();
    sbudget = None;
    sfault = None;
    sframes = None;
    sscratch = None;
    sscratch_busy = false;
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
  st.interval_prunes <- 0;
  st.sat_calls <- 0;
  st.sat_results <- 0;
  st.unsat_results <- 0;
  st.unknown_results <- 0;
  st.budget_escalations <- 0;
  st.budget_exhaustions <- 0;
  st.injected_faults <- 0;
  st.incremental_checks <- 0;
  st.frame_pushes <- 0;
  st.frame_pops <- 0;
  st.learnts_retained <- 0;
  st.rung_retained <- 0;
  st.context_resets <- 0;
  st.solve_time <- 0.

let reset_stats () = reset_one (stats ())

let aggregate_stats () = { state.sstats with queries = state.sstats.queries }

(* The incremental context caches CNF, guard variables and learnt clauses
   keyed by term structure: kept, it would leave the long-lived SAT instance
   holding guards for terms from the configuration being abandoned — and
   after a [Term.clear_interning] those structural keys can collide with
   fresh terms. The next incremental check lazily rebuilds a fresh context.
   The scratch instance holds no results, only buffers sized to the largest
   query so far; a query running on it keeps its own reference, and the
   next query builds a fresh instance. *)
let reset_contexts () =
  state.sframes <- None;
  state.sscratch <- None

let reset_all_for_tests () =
  reset_one state.sstats;
  reset_contexts ();
  Term.clear_interning ();
  Bitblast.reset_memo_stats ();
  Obs.reset_all ()

let aggregate_incremental_contexts () =
  match state.sframes with Some _ -> 1 | None -> 0

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
   under its caller, gets a fresh instance instead. *)
let with_scratch f =
  if state.sscratch_busy then f (Bitblast.create (Sat.create ()))
  else begin
    let bb =
      match state.sscratch with
      | Some bb ->
          Bitblast.reset bb;
          bb
      | None ->
          let bb = Bitblast.create (Sat.create ()) in
          state.sscratch <- Some bb;
          bb
    in
    state.sscratch_busy <- true;
    Fun.protect ~finally:(fun () -> state.sscratch_busy <- false) (fun () -> f bb)
  end

(* One SAT attempt on the CNF already loaded into [bb], with the model read
   back on [Sat]. *)
let run_sat bb ~conflict_limit ~deadline =
  let st = state.sstats in
  st.sat_calls <- st.sat_calls + 1;
  let t0 = Unix.gettimeofday () in
  let answer = Sat.solve ?conflict_limit ?deadline (Bitblast.sat bb) in
  st.solve_time <- st.solve_time +. (Unix.gettimeofday () -. t0);
  match answer with
  | Some Sat.Sat ->
      st.sat_results <- st.sat_results + 1;
      Sat (Bitblast.extract_model bb)
  | Some Sat.Unsat ->
      st.unsat_results <- st.unsat_results + 1;
      Unsat
  | None -> Unknown

let solve_with_sat terms ~conflict_limit ~deadline =
  if fault_fires () then Unknown
  else
    with_scratch (fun bb ->
        Obs.span Obs.Bitblast (fun () -> List.iter (Bitblast.assert_true bb) terms);
        run_sat bb ~conflict_limit ~deadline)

let check ?site ?conflict_limit terms =
  let st = state.sstats in
  st.queries <- st.queries + 1;
  Obs.span ?site Obs.Solver_query (fun () ->
      match canonicalize terms with
      | None ->
          st.unsat_results <- st.unsat_results + 1;
          Unsat
      | Some [] -> Sat Model.empty
      | Some key when Interval.definitely_unsat key ->
          st.interval_prunes <- st.interval_prunes + 1;
          Unsat
      | Some key -> with_budget ~conflict_limit (solve_with_sat key))

let is_sat ?site terms =
  match check ?site terms with Sat _ -> true | Unsat | Unknown -> false

let is_unsat terms = match check terms with Unsat -> true | Sat _ | Unknown -> false

let get_model terms =
  match check terms with Sat m -> Some m | Unsat | Unknown -> None

let implied assumptions t = is_unsat (Term.not_ t :: assumptions)

(* --- enumeration sessions --------------------------------------------------

   The contract is in the interface. A session holds the scratch
   instance from its first solve to its last, so a solver query issued
   from [on_model] gets a fresh instance from [with_scratch] rather than
   resetting the session's. *)
let enumerate ?site ~limit base on_model =
  let st = state.sstats in
  let query f =
    st.queries <- st.queries + 1;
    Obs.span ?site Obs.Solver_query f
  in
  if limit <= 0 then `Limit
  else
    with_scratch (fun bb ->
        let solve () =
          with_budget ~conflict_limit:None (fun ~conflict_limit ~deadline ->
              if fault_fires () then Unknown
              else run_sat bb ~conflict_limit ~deadline)
        in
        (* [n]: models delivered before this answer *)
        let rec next n = function
          | Unsat -> `Exhausted
          | Unknown -> `Unknown
          | Sat model ->
              let block = on_model model in
              if n + 1 >= limit then `Limit
              else
                next (n + 1)
                  (query (fun () ->
                       Obs.span Obs.Bitblast (fun () ->
                           Bitblast.assert_true bb block);
                       solve ()))
        in
        next 0
          (query (fun () ->
               match canonicalize base with
               | None ->
                   st.unsat_results <- st.unsat_results + 1;
                   Unsat
               | Some key when Interval.definitely_unsat key ->
                   st.interval_prunes <- st.interval_prunes + 1;
                   Unsat
               | Some key ->
                   Obs.span Obs.Bitblast (fun () ->
                       List.iter (Bitblast.assert_true bb) key);
                   solve ())))

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

   A [Sat] answer through a frame context carries the values of the
   caller's [model_vars] (those the instance has bitblasted), read from
   the SAT assignment, and is otherwise empty. Such a model is a sound
   restriction of a satisfying assignment, but it depends on the
   instance's history: phase saving and learnt clauses steer a persistent
   instance to models shaped by every earlier query. So it may decide
   later verdicts (the search settles satisfiable alive and prune checks
   with it) but never reaches a report: witness bytes come only from
   instances reset to the fresh state — scratch [check] and the
   enumeration sessions above. Complete solvers agree on verdicts, which
   is why report digests are byte-identical with incrementality on or
   off. *)

(* Contexts are recycled once the SAT instance accumulates this many
   variables: every CDCL answer assigns all variables, so an instance that
   grew unboundedly across an entire run would make even trivial checks pay
   for every query that came before. Recycling re-asserts only the current
   stack (the bitblast cache is rebuilt on demand). *)
let context_var_cap = ref 200_000

let set_context_var_cap n =
  if n < 1 then invalid_arg "Solver.set_context_var_cap";
  context_var_cap := n

module Frames = struct
  type t = frames_ctx

  let create () =
    let sat = Sat.create () in
    {
      fc_sat = sat;
      fc_bb = Bitblast.create sat;
      fc_guards = Term.Tbl.create 256;
      fc_guard_terms = Hashtbl.create 256;
      fc_stack = [];
      fc_last_core = None;
    }

  let current () =
    match state.sframes with
    | Some c -> c
    | None ->
        let c = create () in
        state.sframes <- Some c;
        c

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

  let recycle c =
    let st = state.sstats in
    st.context_resets <- st.context_resets + 1;
    Obs.count "solver.context_resets";
    let sat = Sat.create () in
    c.fc_sat <- sat;
    c.fc_bb <- Bitblast.create sat;
    Term.Tbl.reset c.fc_guards;
    Hashtbl.reset c.fc_guard_terms;
    c.fc_last_core <- None;
    List.iter (fun t -> ignore (guard c t)) (List.rev c.fc_stack)

  let push c term =
    let st = state.sstats in
    st.frame_pushes <- st.frame_pushes + 1;
    Obs.count "solver.push";
    ignore (guard c term);
    c.fc_stack <- term :: c.fc_stack

  let pop c =
    match c.fc_stack with
    | [] -> invalid_arg "Solver.Frames.pop: empty frame stack"
    | _ :: rest ->
        let st = state.sstats in
        st.frame_pops <- st.frame_pops + 1;
        Obs.count "solver.pop";
        c.fc_stack <- rest

  let depth c = List.length c.fc_stack
  let path c = c.fc_stack

  (* Align the frame stack with a DFS path (newest first, as [State.path]):
     keep the common oldest-first prefix, pop what the search backtracked
     past, push the delta. Sibling queries share everything but their last
     few conjuncts, so this is O(path length) list walking and usually one
     push. *)
  let set_path c target =
    let rec strip cur tgt =
      match (cur, tgt) with
      | c0 :: cr, t0 :: tr when Term.equal c0 t0 -> strip cr tr
      | _ -> (cur, tgt)
    in
    let to_pop, to_push = strip (List.rev c.fc_stack) (List.rev target) in
    List.iter (fun _ -> pop c) to_pop;
    List.iter (push c) to_push

  let learnts c = Sat.num_learnts c.fc_sat

  let check ?site ?conflict_limit ?model_vars c extras =
    let st = state.sstats in
    st.queries <- st.queries + 1;
    st.incremental_checks <- st.incremental_checks + 1;
    c.fc_last_core <- None;
    Obs.span ?site Obs.Solver_query (fun () ->
        match canonicalize (List.rev_append c.fc_stack extras) with
        | None ->
            st.unsat_results <- st.unsat_results + 1;
            Unsat
        | Some [] -> Sat Model.empty
        | Some key when Interval.definitely_unsat key ->
            (* same sound pre-check the scratch path runs; the whole
               canonical conjunction stands in for a core (the analysis
               does not localize the conflict) *)
            st.interval_prunes <- st.interval_prunes + 1;
            c.fc_last_core <- Some key;
            Unsat
        | Some _ ->
            if Sat.num_vars c.fc_sat > !context_var_cap then
              recycle c;
            let assumptions, decide_vars =
              Obs.span Obs.Bitblast (fun () ->
                  (* frame guards oldest-first, then the per-call extras:
                     assumptions become the leading decision levels, so this
                     keeps the shared path prefix at the same levels across
                     sibling queries *)
                  let path_guards = List.rev_map (guard c) c.fc_stack in
                  let assumptions = path_guards @ List.map (guard c) extras in
                  (* decisions restricted to the query's own translation
                     cone: everything else in the shared instance is either
                     an unassumed activation implication or a total circuit
                     definition, so a cone-complete partial assignment always
                     extends — the query must not pay for what its siblings
                     accumulated *)
                  let decide_vars =
                    Bitblast.cone_vars c.fc_bb
                      (List.rev_append c.fc_stack extras)
                  in
                  (assumptions, decide_vars))
            in
            let rung = ref (-1) in
            with_budget ~conflict_limit (fun ~conflict_limit ~deadline ->
                incr rung;
                let retained = Sat.num_learnts c.fc_sat in
                st.learnts_retained <- st.learnts_retained + retained;
                if !rung > 0 then begin
                  (* learning carried into an escalation retry: the rung
                     restarts with a bigger budget but not from scratch *)
                  st.rung_retained <- st.rung_retained + retained;
                  Obs.count ~n:retained "solver.rung_retained_learnts"
                end;
                if fault_fires () then Unknown
                else begin
                  st.sat_calls <- st.sat_calls + 1;
                  let t0 = Unix.gettimeofday () in
                  let answer =
                    Sat.solve ?conflict_limit ?deadline ~assumptions
                      ~decide_vars c.fc_sat
                  in
                  st.solve_time <- st.solve_time +. (Unix.gettimeofday () -. t0);
                  match answer with
                  | Some Sat.Sat ->
                      st.sat_results <- st.sat_results + 1;
                      Sat
                        (match model_vars with
                        | None -> Model.empty
                        | Some vars -> Bitblast.extract_vars c.fc_bb vars)
                  | Some Sat.Unsat ->
                      st.unsat_results <- st.unsat_results + 1;
                      c.fc_last_core <-
                        (match Sat.unsat_core c.fc_sat with
                        | [] -> None
                        | lits ->
                            Some
                              (List.filter_map
                                 (fun l ->
                                   Hashtbl.find_opt c.fc_guard_terms (abs l))
                                 lits));
                      Unsat
                  | None -> Unknown
                end))

  let is_sat ?conflict_limit c extras =
    match check ?conflict_limit c extras with
    | Sat _ -> true
    | Unsat | Unknown -> false

  (* Assumption terms (frames and per-call extras alike) responsible for the
     last [Unsat]; [None] when the last check answered Sat/Unknown or hit a
     trivially-false conjunct. *)
  let unsat_core c = c.fc_last_core
end

let check_assuming ?site ?conflict_limit ?model_vars ?(path = []) extras =
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
  else
    match state.sframes with
    | None -> None
    | Some c -> Frames.unsat_core c
