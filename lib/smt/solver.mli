(** Front end of the SMT solver: satisfiability of conjunctions of boolean
    terms over the QF_BV theory.

    Pipeline per query: structural canonicalization (flatten conjunctions,
    dedupe, detect trivial answers) -> unsigned interval pre-check ->
    bitblasting -> CDCL SAT search -> model extraction. No answer is
    cached between queries.

    Because each query is decided on a CNF built from nothing from its
    canonical conjunct list — on a SAT instance reset to the state of a
    fresh one — answers (including models) do not depend on the queries
    before them.
    {!enumerate} extends the same discipline from one query to one
    enumeration session. *)

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
  limit:int ->
  Term.t list ->
  (Model.t -> Term.t) ->
  [ `Exhausted | `Limit | `Unknown ]
(** [enumerate ~limit base on_model]: block-and-resolve model enumeration
    in one solver session. [base] is canonicalized, interval-checked and
    bitblasted once, on the scratch instance reset to the
    state of a fresh one. Each model is handed to [on_model] as soon as it
    is found; the blocking term it returns is asserted as a permanent
    clause and the same instance is solved again, keeping its learnt
    clauses. Ends with [`Exhausted] when no further model exists,
    [`Limit] once [limit] models were delivered (at once when
    [limit <= 0]), and [`Unknown] when a solve stayed undecided on every
    rung of the {!budget} ladder or met an injected fault.

    Every solve counts as one query and carries a [solver_query] span with
    [site].

    {b Determinism contract.} The [k]-th model is a function of the
    canonical [base] and the first [k - 1] blocking terms only: not of the
    queries before the session. So witnesses enumerated this way are
    identical at any shard split and across a resume. They generally differ from
    the models {!check} would return for [base] plus the same blocks,
    except the first, which is {!check}'s model of [base] whenever neither
    needed a budget escalation. *)

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
    verdicts and must not reach a report: witness bytes come only from
    instances reset to the fresh state ({!check} and {!enumerate}).
    Complete solvers agree on verdicts, so report digests are
    byte-identical whether incrementality is on or off. *)

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
(** Variable count at which the incremental context is recycled
    (rebuilt fresh, re-asserting only the live frames) — bounds the cost
    unrelated accumulated CNF imposes on every later check. Default
    200_000. Raises [Invalid_argument] on a non-positive cap. Test API. *)

val aggregate_incremental_contexts : unit -> int
(** 1 while the shared incremental context exists, 0 right after
    {!reset_contexts} / {!reset_all_for_tests}, which drop it. *)

(** Explicit handle on the frame-stack machinery backing {!check_assuming}
    — the differential test harness drives it directly. *)
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
  (** Terms behind the last [Unsat] answer of {!check}. *)

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
  mutable interval_prunes : int; (* queries settled by the interval check *)
  mutable sat_calls : int;
  mutable sat_results : int;
  mutable unsat_results : int;
  mutable unknown_results : int; (* final Unknown answers (post-ladder) *)
  mutable budget_escalations : int; (* x4 retries taken *)
  mutable budget_exhaustions : int; (* ladders that ended in Unknown *)
  mutable injected_faults : int; (* faults fired by {!set_fault_injection} *)
  mutable incremental_checks : int; (* queries decided on a frame context *)
  mutable frame_pushes : int; (* frames entered ({!Frames.push}) *)
  mutable frame_pops : int; (* frames left ({!Frames.pop}) *)
  mutable learnts_retained : int;
  (* learnt clauses already present at the start of each incremental SAT
     attempt — the learning carried over from earlier queries *)
  mutable rung_retained : int;
  (* the subset of [learnts_retained] carried into escalation retries
     (rung >= 1): scratch solving re-learns these from nothing *)
  mutable context_resets : int; (* incremental contexts recycled at the cap *)
  mutable solve_time : float; (* seconds spent inside the SAT solver *)
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
(** Drop the incremental frame context and the scratch instance; each is
    rebuilt fresh on its next use, so no guard built under an abandoned
    configuration survives. *)
