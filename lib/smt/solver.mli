(** Front end of the SMT solver: satisfiability of conjunctions of boolean
    terms over the QF_BV theory.

    Pipeline per query: structural canonicalization (flatten conjunctions,
    dedupe, detect trivial answers) -> unsigned interval pre-check ->
    bitblasting -> CDCL SAT search -> model extraction. No answer is
    cached between queries.

    {!check} decides each query on a CNF built from nothing from its
    canonical conjunct list — on a SAT instance reset to the state of a
    fresh one — so its answers (including models) do not depend on the
    queries before them; {!enumerate} extends the same discipline from one
    query to one enumeration session. {!witnesses} gets the same
    independence another way: its solves decide in a fixed lexicographic
    order, whose first model does not depend on the instance, so report
    witnesses come from the long-lived frame context. *)

type result = Sat of Model.t | Unsat | Unknown

val check : ?site:string -> ?conflict_limit:int -> Term.t list -> result
(** Satisfiability of the conjunction. [site] names the caller for the
    trace: the query's [solver_query] span carries it (see {!Obs.span}),
    and [trace summarize] splits solver time by it. [Unknown] is only returned when the
    query is resource-bounded — a per-call [conflict_limit], an ambient
    {!budget} installed with {!set_budget}, or active {!set_fault_injection}
    — and the bound was exhausted on every rung of the escalation ladder
    (each [Unknown] attempt is retried at x4 the previous deadline/conflict
    budget, [b_escalations] times, before [Unknown] is final). A per-call
    [conflict_limit] overrides the ambient budget's conflict count but still
    rides the ambient ladder and deadline. *)

val is_sat : ?site:string -> Term.t list -> bool
(** [check] specialized to a boolean. [Unknown] maps to [false] ("not shown
    satisfiable"), so under a budget a caller needing soundness one way or
    the other must use [check] and handle [Unknown] explicitly: [is_sat] and
    {!is_unsat} may {e both} be [false] for the same bounded query. *)

val is_unsat : Term.t list -> bool
(** [false] on [Sat] {e and} on [Unknown] — an exhausted budget never proves
    unsatisfiability. *)

val get_model : Term.t list -> Model.t option
(** A satisfying assignment, if one exists ([None] also on a budget-
    exhausted [Unknown]). *)

val implied : Term.t list -> Term.t -> bool
(** [implied assumptions t]: does the conjunction of [assumptions] entail
    [t]? *)

val enumerate :
  ?site:string ->
  model_vars:Term.var array ->
  limit:int ->
  Term.t list ->
  (Model.t -> Term.t) ->
  [ `Exhausted | `Limit | `Unknown ]
(** [enumerate ~model_vars ~limit base on_model]: block-and-resolve model
    enumeration in one solver session. [base] is canonicalized,
    interval-checked and bitblasted once, on the scratch instance reset to
    the state of a fresh one. Each model is handed to [on_model] as soon as it
    is found; the blocking term it returns is asserted as a permanent
    clause and the same instance is solved again, keeping its learnt
    clauses. Ends with [`Exhausted] when no further model exists,
    [`Limit] once [limit] models were delivered (at once when
    [limit <= 0]), and [`Unknown] when a solve stayed undecided on every
    rung of the {!budget} ladder or met an injected fault.

    Every solve counts as one query and carries a [solver_query] span with
    [site]. Each model holds only [model_vars] (those the session has
    bitblasted; the rest are absent), with the values a model of every
    variable would give them: a caller passes the variables it reads,
    typically its message bytes.

    {b Determinism contract.} The [k]-th model is a function of the
    canonical [base] and the first [k - 1] blocking terms only: not of the
    queries before the session. So models enumerated this way are
    identical at any shard split and across a resume. The conformance
    check, classic symbolic execution and the filter compiler's residues
    enumerate this way; report witnesses come from {!witnesses}. Models
    generally differ from
    the models {!check} would return for [base] plus the same blocks,
    except the first, which is {!check}'s model of [base] whenever neither
    needed a budget escalation. *)

val witnesses :
  ?site:string ->
  model_vars:Term.var array ->
  limit:int ->
  scatter:bool ->
  ?path:Term.t list ->
  Term.t list ->
  (Model.t -> Term.t) ->
  [ `Exhausted | `Limit | `Unknown ]
(** [witnesses ~model_vars ~limit ~scatter ~path extras on_model]: the
    {!enumerate} loop for report witnesses, over the conjunction of [path]
    (newest first, as [State.path]) and [extras], with canonical models.
    Each solve decides in one fixed lexicographic order ([Sat.solve]'s
    [lex]): every bit of [model_vars] the instance has translated, in
    message order and most significant bit first, then the rest of the
    query. So model [k] is the least message (in that bit order) the query
    and the first [k] blocking terms admit under witness [k]'s preferred
    bit values: all false for witness 0 and whenever [scatter] is false; a
    fixed pseudo-random pattern of [k] and the bit's position from witness
    1 on when [scatter] is true. [scatter] is only for blocking terms that
    mention every variable of [model_vars] (exact-message blocking): a bit
    outside the query reads as its preference where the instance has
    translated it and as zero where it has not, so a preference must be
    false wherever such a bit can occur.

    With incremental solving on, the session runs on the frame context:
    its stack is aligned with [path], and [extras] and each blocking term
    ride as guarded extras. Off, it runs on the scratch instance reset to
    the fresh state, as {!enumerate} does; that is the reference route.
    The answers are the same on both, at any shard split and across a
    resume, since each model is a function of the query and the blocking
    terms before it: [Sat.solve]'s lexicographic mode does not depend on
    the instance's history or variable numbering. (The models may hold
    different sets of variables: those outside the query read as their
    preference on the frame context and are absent on a scratch instance
    that never translated them.) Answers, budgets, fault draws and query
    counts otherwise follow {!enumerate}.

    The session holds the solver from its first solve to its last: a
    {!check_assuming}, a {!reset_contexts}, a nested [witnesses] or a
    {!Frames} operation that would move the frame context's stack
    ([push], [pop], [set_path], [check]), called from [on_model], raises
    [Invalid_argument]. *)

(** {1 Incremental solving (assumption-based frame stack)}

    When incremental solving is enabled (the default; see
    {!incremental_enabled}), verdict-only queries can be decided on a
    long-lived SAT instance instead of a scratch instance per
    query. Constraints are activated through per-term guard literals and a
    push/pop frame stack mirrors the DFS path prefix, so sibling queries
    along the path tree only bitblast their delta constraint and learnt
    clauses persist across queries and across escalation rungs.

    An incremental [Sat] answer carries a model only for the variables
    the caller names ([model_vars]), read from the SAT assignment through
    the bitblaster's variable map; without [model_vars] it is empty. Such
    a model is a restriction of a full satisfying assignment of the query,
    but it depends on the instance's history, so it may settle later
    verdicts and must not reach a report: witness bytes come from
    {!witnesses}, whose lexicographic solves make them a function of the
    query alone, on the frame context or the scratch instance. Complete
    solvers agree on verdicts, so report digests are byte-identical
    whether incrementality is on or off. *)

val incremental_enabled : unit -> bool
(** Whether {!check_assuming} uses the incremental context.
    Starts [true]; only {!set_incremental} turns it off. *)

val set_incremental : bool -> unit
(** Toggle incremental solving globally: the reference switch differential
    tests use to compare the frame-stack route against scratch solving.
    Takes effect on the next query; existing contexts are kept and simply
    bypassed while disabled. *)

val check_assuming :
  ?site:string ->
  ?conflict_limit:int ->
  ?model_vars:Term.var array ->
  ?path:Term.t list ->
  Term.t list ->
  result
(** [check_assuming ~path extras]: satisfiability of the conjunction of
    [path] (newest-first, as [State.path]) and [extras]. With incremental
    solving enabled this syncs the shared frame stack to [path]
    (popping what the search backtracked past, pushing the delta) and solves
    under assumptions on the shared instance; disabled, it is exactly
    [check (extras @ path)]. A [Sat] model agrees with some satisfying
    assignment of the query on every variable of [model_vars] it binds
    (the incremental route binds at most those; the scratch fallback binds
    every variable of the query), and variables it leaves unbound may be
    read as false / zero ({!Model.eval}'s default) without breaking that
    agreement. It depends on the instance's history: use it to decide,
    never to report. *)

val is_sat_assuming : ?site:string -> ?path:Term.t list -> Term.t list -> bool
(** {!check_assuming} specialized to a boolean; [Unknown] maps to [false]
    like {!is_sat}. *)

val last_assumption_core : unit -> Term.t list option
(** After an [Unsat] from {!check_assuming}: the subset of
    that query's terms (path and extras alike) responsible for the
    conflict. [None] with incrementality disabled, after Sat/Unknown, or
    when the conflict was found before reaching the SAT core machinery. *)

val set_context_var_cap : int -> unit
(** Variable count at which the incremental context is recycled (its
    instance reset to the fresh state, re-asserting only the live frames)
    — bounds the cost unrelated accumulated CNF imposes on every later
    check. Default 200_000. The frame context and the scratch instance
    reserve SAT storage for this many variables when they are first
    built; past it, their stores double. Raises [Invalid_argument] on a
    non-positive cap. Test API. *)

val aggregate_incremental_contexts : unit -> int
(** 1 once the shared incremental context has been used, 0 right after
    {!reset_contexts} / {!reset_all_for_tests}, which clear it. *)

(** Explicit handle on the frame-stack machinery backing {!check_assuming}
    — the differential test harness drives it directly.

    {b What a frame carries.} Each frame holds, beside its term and guard,
    the query state of the stack up to and including it: the cone prefix
    (the SAT variables of the frames' translations, oldest frame first,
    each at its first occurrence), the interval scan
    ({!Interval.carry}) of the frames' conjuncts, which refutes any stack
    holding a literal [False], and whether some frame is more than
    [True]s. A {!push} extends the
    innermost frame's state by the new term once it is guarded; a {!pop}
    drops it and truncates the cone prefix. So a {!check} scans, and
    cones, only its own extras: its trivial answers, its interval
    pre-check and its [decide_vars] (the prefix plus the extras' new cone
    variables, in one buffer the context keeps) cost what the extras
    cost, not what the path does.

    {b No sorted key.} The scratch route sorts and dedupes its conjuncts
    into a canonical list because the order it asserts them in numbers its
    CNF, and so fixes its models. Here the CNF is numbered by the order
    terms were first guarded, and every pre-check answer depends only on
    the set of conjuncts, so the sorted key is built only to stand as the
    {!unsat_core} of an interval refutation. *)
module Frames : sig
  type t

  val create : unit -> t
  (** A fresh, empty context (its own SAT instance and bitblast cache). *)

  val push : t -> Term.t -> unit
  (** Enter a frame asserting one term (guarded by an activation literal;
      the term is bitblasted now, once per context). *)

  val pop : t -> unit
  (** Leave the innermost frame. The term's guard and CNF stay registered
      for later re-activation; only the assumption is dropped. Raises
      [Invalid_argument] on an empty stack. *)

  val depth : t -> int
  (** The number of frames. *)

  val path : t -> Term.t list
  (** Current frames, innermost first (the [State.path] orientation). *)

  val set_path : t -> Term.t list -> unit
  (** Align the stack with a DFS path (newest first): pop frames past the
      common prefix, push the delta. *)

  val check :
    ?site:string ->
    ?conflict_limit:int ->
    ?model_vars:Term.var array ->
    t ->
    Term.t list ->
    result
  (** Satisfiability of (every frame on the stack /\ the given terms); the
      given terms hold for this call only. Honors the ambient {!budget}
      (with learnt clauses retained between escalation rungs) and fault
      injection exactly like the top-level {!check}. [Sat] carries the
      values of the [model_vars] the context has bitblasted
      ({!Bitblast.extract_vars}); empty without [model_vars]. *)

  val is_sat : ?conflict_limit:int -> t -> Term.t list -> bool

  val unsat_core : t -> Term.t list option
  (** Terms behind the last [Unsat] answer of {!check}: the SAT core's
      guarded terms, or, when the interval pre-check refuted the query,
      every conjunct of the stack and the extras, flattened, deduped and
      sorted ([List.sort_uniq Term.compare]). [None] after [Sat] or
      [Unknown], and when some conjunct was literally [False]. *)

  val decide_vars : t -> Term.t list -> int array
  (** The variables a {!check} on these extras would restrict decisions
      to, in order: guards (so translates) the extras, then returns a copy
      of the frames' cone prefix followed by the extras' cone variables
      ({!Bitblast.cone_of}) not yet listed. Test API. *)

  val bitblast : t -> Bitblast.t
  (** The context's bitblaster, for reading cones. Test API. *)

  val learnts : t -> int
  (** Learnt clauses currently retained by the context's SAT instance. *)
end

(** {1 Resource budgets}

    A budget bounds each query attempt by a wall-clock deadline ([deadline]
    seconds) and/or a CDCL conflict count, with an escalation ladder: an
    attempt answering [Unknown] is retried at x4 the previous budget, up to
    [escalations] extra attempts, after which [Unknown] is returned and
    counted as a budget exhaustion. The budget is ambient: it bounds every
    query until it is replaced. *)

type budget

val budget :
  ?deadline:float -> ?conflicts:int -> ?escalations:int -> unit -> budget
(** [deadline] is seconds per attempt (wall clock), [conflicts] a CDCL
    conflict count per attempt, [escalations] the number of x4 retries
    (default 2). Raises [Invalid_argument] on negative values. A budget with
    neither [deadline] nor [conflicts] leaves queries unbounded. *)

val set_budget : budget option -> unit
(** Install (or clear, with [None]) the ambient budget. *)

val get_budget : unit -> budget option

(** {1 Fault injection}

    Deterministic chaos for exercising degradation paths: with probability
    [rate], a SAT attempt is replaced by an [Unknown] answer. Faults fire at
    exactly the points a real budget blow-up would, so the callers' Unknown
    policies and escalation ladders are tested by the same machinery that
    degrades production runs. Configured globally
    ([ACHILLES_SOLVER_FAULT_RATE] / [ACHILLES_SOLVER_FAULT_SEED] read at
    startup), drawing from one PRNG seeded by [seed] (re-seeded by every
    {!set_fault_injection}), so runs replay identically. *)

val set_fault_injection : ?rate:float -> ?seed:int -> unit -> unit
(** Reconfigure fault injection (test API; overrides the environment).
    [rate = 0.] (the default) turns it off. Raises [Invalid_argument] when
    [rate] is outside [0, 1]. *)

val fault_rate : unit -> float
(** The currently configured fault rate (0 when injection is off). *)

(** {1 Statistics and context control} *)

type stats = {
  mutable queries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* always 0: the solver keeps no result cache. Both fields stay only
     because the benchmark harness still reads them; they go with its next
     change. *)
  mutable sat_calls : int;
  mutable unknown_results : int; (* final Unknown answers (post-ladder) *)
  mutable budget_escalations : int; (* x4 retries taken *)
  mutable budget_exhaustions : int; (* ladders that ended in Unknown *)
  mutable injected_faults : int; (* faults fired by {!set_fault_injection} *)
  mutable incremental_checks : int; (* queries decided on a frame context *)
  mutable rung_retained : int;
  (* learnt clauses already present at the start of each escalation retry
     (rung >= 1) on a frame context: scratch solving re-learns these from
     nothing *)
  mutable solve_time : float; (* seconds spent inside the SAT solver *)
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  (* the SAT search's own counters, summed as each solve's delta on the
     scratch and frame instances alike: the whole run's trajectory, which
     a change that claims to keep every decision must leave as it is *)
}

val stats : unit -> stats
(** The live statistics record (mutated in place by the solver). *)

val aggregate_stats : unit -> stats
(** A snapshot copy of {!stats}. *)

val reset_stats : unit -> unit
(** Zero the statistics. *)

val reset_all_for_tests : unit -> unit
(** Zero the statistics, drop the solver contexts (as {!reset_contexts})
    and the term-interning tables and zero the bitblast memo counters, so
    test suites are order-independent. *)

val reset_contexts : unit -> unit
(** Clear the incremental frame context and the scratch instance back to
    the state a fresh one has ([Bitblast.reset]), so no guard built under
    an abandoned configuration survives. The instances and their reserved
    storage are kept: each is built once per process. *)
