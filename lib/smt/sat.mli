(** A CDCL SAT solver (two-watched literals, first-UIP clause learning,
    VSIDS branching, phase saving, Luby restarts, learnt-clause reduction).

    Literals use the DIMACS convention: a positive integer [v] denotes
    variable [v], [-v] its negation. Variables must be allocated with
    {!new_var} before use.

    Instances support {e incremental} use: call {!solve} repeatedly with
    different [assumptions] while adding clauses in between; learnt clauses
    persist across calls. An [Unsat] answer without assumptions is final
    for the instance; under assumptions it only covers that assumption set
    (unless the instance itself became unsatisfiable, which subsequent
    calls report).

    An incremental caller pays only for what changed between calls. Each
    assumption is decided at a decision level of its own, and a solve
    keeps the levels of the longest prefix its assumptions share with the
    last solve's, propagated, instead of re-propagating them from level 0.
    Clauses added between solves are checked against that kept trail.
    The VSIDS decision heap is built by the first solve that picks from
    it (one with neither [decide_vars] nor [lex]); an instance whose
    solves always pass a decision order never maintains one.

    {b Representation.} Clauses live in one arena of packed 32-bit words
    (a [Bytes.t], read with bounds-checked [Bytes.get_int32_le]) — per
    clause a header word (length and flags), a learnt-id word (indexing a
    float array of learnt activities) and the literals — and are named by
    their word offset. Watch lists, reasons and the clause and learnt
    vectors are int vectors of offsets, so loading and searching allocate
    no heap block per clause. The per-variable state is packed too: 32-bit
    levels, reasons and heap positions, a [Float.Array.t] of activities
    and one byte each for the value, the saved phase and the analysis mark.
    {!reset} rewinds the counts and truncates the arena; learnt-clause
    reduction compacts it once more than half of it is garbage.

    {b Reservation.} {!create} allocates every store at the capacity it is
    given and leaves it uninitialised: a slot is written when its variable
    or clause is made. None of these stores is scanned by the GC, and
    capacity that is never written costs no memory page, so a long-lived
    instance reserves room for its largest expected problem once and then
    never copies or re-initialises a store; past the capacity, a store
    doubles, copying only what is in use. Literals and offsets must fit a
    signed 32-bit word, which bounds an instance at [2{^30} - 1] variables
    and [2{^31} - 1] arena words.

    {b Trajectory contract.} The representation is not observable: the
    literal order inside each clause, the watch-list visit and compaction
    order, the learnt literal order, the variable bump order, the heap
    tie-breaks and the reduction sort are part of the search, and fix
    every decision, propagation, learnt clause and model. A change to them
    moves models, and so report digests; [test_smt] pins the trajectory of
    a deterministic corpus, and [Solver.stats] sums the counters of every
    solve of a whole run. The rules a rewrite of the loops must keep:
    - Propagation takes trail literals first in, first out. For each, the
      clauses watching the literal it falsified are visited in watch-list
      order. A clause whose first literal is the false one swaps its first
      two. A true first literal keeps the watch. Otherwise the first
      literal from the third on that is not false, in clause order, takes
      the false one's place and its watch list gets the clause at the end.
      Failing that the clause is unit (its first literal is enqueued) or a
      conflict, which stops propagation and keeps the rest of the list in
      order.
    - The decision heap is a binary max-heap on activity. A variable rises
      past its parent only on strictly greater activity. Going down, the
      variable being placed stays unless a child is strictly more active:
      the left child is preferred to it on strictly greater activity, and
      the right child to the better of the two on strictly greater
      activity again. A decision pops the top until an unassigned variable
      comes out; backtracking unassigns the trail from its end, saving
      each phase and reinserting each absent variable in that order.
    - Conflict analysis visits the conflict clause whole, then each
      reason without its first literal, in clause order, bumping each
      newly seen variable above level 0 as it is met.
    - The heap is empty until the first solve with neither [decide_vars]
      nor [lex], which inserts variables [1 .. n] in order; from then on
      {!new_var} inserts each new variable. Before that, no variable is in
      the heap and bumping sifts nothing.
    - A solve cancels to the longest prefix of assumption levels it
      shares with the last solve (the same literals in the same order);
      levels past it, and every search level, are undone. An assumption
      conflict found by propagation undoes only the conflicting level; an
      assumption the earlier levels falsify undoes nothing. A restart,
      and a solve that runs out of its conflict budget, cancel to level 0.
    - Clause addition first undoes the search levels above the kept
      assumption levels, sorts the clause ascending and drops duplicates
      and literals false at level 0 (a complementary pair or a literal
      true at level 0 drops the clause). A unit clause cancels to level 0
      and is enqueued there. A longer clause moves to its first slot the
      first literal that is not false (failing that, the first false one
      at the highest level), then does the same for its second slot from
      the rest, so a clause with no false literal keeps its sorted order.
      If the second watch is false, the clause is unit or conflicting:
      both watches false at one level cancels below that level; otherwise
      the first literal, unless already true at or below the second's
      level, is enqueued at the second's level (cancelling to it), with
      the clause as its reason. *)

type t

val create : ?vars:int -> ?words:int -> unit -> t
(** An empty instance with room for [vars] variables (default 3) and
    [words] arena words (default 0) before any store grows. The capacity
    is reserved, not initialised, and is not observable: every instance
    searches alike whatever its capacity. Raises [Invalid_argument] if
    either is negative or past the 32-bit bounds above. *)

val reset : t -> unit
(** Return the instance to exactly the state {!create} builds — no
    variables, clauses, learnts, counters, saved phases, kept assumption
    levels or decision heap — while keeping its allocated buffers for
    reuse. Everything observable afterwards (variable numbering,
    decisions, models, statistics) is as on a fresh instance. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its (positive) index, starting at 1.
    Raises [Invalid_argument] past [2{^30} - 1] variables, where a literal
    would leave the 32-bit range. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause. Adding the empty clause (or only falsified literals at
    level 0) makes the instance unsatisfiable. The model of the last solve
    is dropped, but the assumption levels it kept stay, unless the clause
    is a unit (which goes to level 0) or the kept trail makes it unit or
    false (then the instance backtracks to where it became so; see the
    trajectory contract). Only level-0 facts shrink or drop the clause.
    Raises [Invalid_argument] on literals naming unallocated variables, or
    when the clause would take the arena past [2{^31} - 1] words. *)

val add_clause3 : t -> int -> int -> int -> unit
(** [add_clause] for a clause of three literals, without building a list:
    the same ascending sort, duplicate and false-literal removal and the
    same treatment of the kept assumption levels, so
    [add_clause3 s a b c] is exactly [add_clause s [a; b; c]]. A binary
    clause is entered as [add_clause3 s a b b]. *)

type result = Sat | Unsat

val solve :
  ?conflict_limit:int ->
  ?deadline:float ->
  ?assumptions:int list ->
  ?decide_vars:int array * int ->
  ?lex:int array * int ->
  t ->
  result option
(** Run the search, optionally under assumption literals that hold for this
    call only. The decision levels of the longest prefix of [assumptions]
    shared with the last call's (as its levels stand after any clause
    added since) are kept, not re-propagated. The answer, and a [lex]
    model, do not depend on what was kept; the search, and so any other
    model or core, may. [None] means a resource budget was exhausted (only possible
    when one is given): either [conflict_limit] conflicts were spent, or the
    wall clock passed [deadline] (an absolute [Unix.gettimeofday] time,
    checked between restarts — the overshoot is bounded by one restart
    segment, ~100-1000 conflicts).

    [decide_vars = (buf, len)] restricts decisions to the variables
    [buf.(0) .. buf.(len - 1)], tried in that order first; the search
    claims [Sat] once all of them are assigned without conflict, leaving the
    rest of the instance undecided. This is only sound when every clause not
    fully covered by [decide_vars] is satisfiable under {e any} assignment
    of the covered variables — e.g. activation-literal implications (the
    unassumed activation var can be set false) and definitional circuit
    clauses of total operators whose inputs either lie in [decide_vars] or
    are free. The caller is responsible for that closure property; the
    shared incremental contexts in {!Solver.Frames} maintain it by passing
    the full bitblast cone of the queried terms. After such a call the
    assignment is partial, so {!value} must not be used for model
    extraction. The call never writes into [buf], so a caller may keep one
    buffer across calls (it is read before {!solve} returns, and later
    restart segments re-sort a private copy of the [len] variables). Raises
    [Invalid_argument] if [len] is outside [0, Array.length buf] or one of
    those variables is not one of the instance's.

    [lex = (buf, len)] is the lexicographic mode: decisions follow the
    DIMACS literals [buf.(0) .. buf.(len - 1)], each decision taking the
    first of them whose variable is unassigned and making that literal
    true, and no restart re-sorts them. Like [decide_vars] it claims
    [Sat] once all of their variables are assigned, under the same
    closure condition. The model it returns is the least satisfying
    assignment of those variables in the order of [buf] (a variable at
    its first occurrence, its literal's value preferred), so it does not
    depend on the instance's learnt clauses, activities, saved phases or
    variable numbering: that assignment satisfies every clause, learnt
    ones included, so propagation from a partial assignment agreeing with
    it only derives literals it agrees with, and a decision that departs
    from it cannot be part of a model and is undone before one is
    returned. The search itself (conflicts, decisions) still depends on
    the instance. [buf] is never written. Raises [Invalid_argument] if
    both [decide_vars] and [lex] are given, if [len] is outside
    [0, Array.length buf], or if a literal names no variable of the
    instance. *)

val value : t -> int -> bool
(** Value of a variable in the satisfying assignment; only valid after
    {!solve} returned [Sat] and before the next clause or solve.
    Unassigned variables read as [false]. After any other answer it reads
    whatever the kept trail holds, which is unspecified. *)

val lit_value : t -> int -> bool
(** Value of a DIMACS literal under the model. *)

(** {1 Statistics} *)

val conflicts : t -> int
val decisions : t -> int
val propagations : t -> int

val num_learnts : t -> int
(** Learnt clauses currently retained in the database (units are absorbed
    at level 0 and not counted). Across incremental {!solve} calls this is
    the learning carried from one query, or escalation rung, to the next. *)

val num_clauses : t -> int
(** Problem (non-learnt) clauses added so far. *)

val arena_words : t -> int
(** Words the clause arena occupies: live clauses plus deleted ones not
    yet compacted away. *)

val unsat_core : t -> int list
(** After {!solve} returned [Unsat] under assumptions: the subset of the
    assumption literals (DIMACS) that already suffices for
    unsatisfiability. Empty when the instance is unsatisfiable outright. *)
