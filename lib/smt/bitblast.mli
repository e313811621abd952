(** Bitblasting of bitvector terms to CNF over a {!Sat} instance.

    A context owns a SAT solver and a cache mapping already-translated terms
    to their SAT-level representation (a literal for booleans, an lsb-first
    literal vector for bitvectors). Identical subterms are translated once.

    Division and remainder follow SMT-LIB semantics ([udiv x 0 = ones],
    [urem x 0 = x]); shifts by amounts [>= width] produce zero (or the sign
    fill for arithmetic shifts).

    {b Encoding.} Every gate is a fresh variable defined by Tseitin clauses
    over its inputs, folded first when an input is constant, repeated or
    the complement of another (then no variable is made). Beside the binary
    AND, XOR and multiplexer there are two wider gates: {!and_many} (and
    its dual {!or_many}), one variable for a whole conjunction — vector
    equality, the zero test and a shifter's overflow are one gate each —
    and {!maj}, the majority of three, which carries the unsigned and
    signed comparisons: [a < b] is the inverted carry out of [a + ~b + 1],
    built as a chain of majority gates with no sum bits. Addition,
    subtraction, multiplication and division keep full adders.

    Each gate's clauses define its output for {e every} assignment of its
    inputs: exactly one output value satisfies them. That is what lets a
    long-lived context decide only a query's cone ([Sat.solve]'s
    [decide_vars] from {!cone_of}): a clause outside the cone belongs to
    a gate whose output the search leaves free, and a free output can
    always take the value its inputs define. *)

type t

val create : Sat.t -> t

val reset : t -> unit
(** [Sat.reset] the context's instance and empty every table, leaving the
    context exactly as [create] on a fresh [Sat.t] builds it (the true
    literal is variable 1 again) while keeping the allocations. *)

val sat : t -> Sat.t

val assert_true : t -> Term.t -> unit
(** Constrain a boolean-sorted term to hold. *)

val lit_of : t -> Term.t -> int
(** DIMACS literal equisatisfiable with a boolean-sorted term. *)

val extract_model : t -> Model.t
(** Read back values for every term variable mentioned so far. Only valid
    after [Sat.solve] returned [Sat]. *)

val extract_vars : t -> Term.var array -> Model.t
(** [extract_model] restricted to the given variables: values for those
    this context has bitblasted; the rest are absent from the model. On a
    long-lived context solved with a restricted [decide_vars], a variable
    outside the query's cone reads whatever the instance holds for it —
    harmless, since the query does not mention it. Only valid after
    [Sat.solve] returned [Sat]. *)

val var_bits : t -> Term.var -> int array
(** The literals of the variable's bits, least significant first (one
    for a boolean), or [[||]] when this context has not bitblasted it.
    A bitvector's array is shared with the context: the caller must not
    write into it. *)

val cached_terms : t -> int
(** Distinct terms translated so far in this context — the reuse a
    long-lived (incremental) context has accumulated. *)

val cone_of : t -> Term.t -> int array
(** The SAT variables the translation of the term mentions, each once, in
    ascending (allocation) order; memoized per term, and shared with the
    caller, which must not write into it. The term must already have been
    translated in this context ({!lit_of}/{!assert_true}); untranslated
    subterms are silently absent. A long-lived context concatenates the
    cones of a query's conjuncts, first occurrence kept, into [Sat.solve]'s
    [decide_vars], so a query only decides its own cone instead of
    everything the context has accumulated. *)

(** {1 Gates}

    The wide gates, on DIMACS literals of this context's instance. *)

val true_lit : t -> int
(** The literal the context asserts true (its first variable). *)

val and_many : t -> int array -> int
(** The conjunction of the literals. Duplicates and the true literal are
    dropped (found by sorting a copy of the array by variable; the
    caller's array is left as it is); a false input or a complementary
    pair gives the false literal, no input the true literal, one input
    that literal. Otherwise one fresh [x] with
    [(-x \/ li)] for each input, in that order, and
    [(x \/ -l1 \/ ... \/ -lk)]. *)

val or_many : t -> int array -> int
(** The disjunction: [-(and_many (map (~-) lits))]. *)

val maj : t -> int -> int -> int -> int
(** The majority of three literals, by six clauses
    [(-x \/ a \/ b)], [(-x \/ a \/ c)], [(-x \/ b \/ c)],
    [(x \/ -a \/ -b)], [(x \/ -a \/ -c)], [(x \/ -b \/ -c)]. It
    folds first: a constant input leaves the OR (true) or the AND (false)
    of the other two, two equal inputs are the answer, and a complementary
    pair leaves the third input. *)

(** {1 Memo and CNF statistics}

    Translation-cache hits and misses, and the CNF the translations
    emitted, accumulated across every context (scratch contexts are reset
    per query, so the counters must outlive them). *)

val aggregate_memo_stats : unit -> int * int
(** [(hits, misses)] since the last {!reset_memo_stats}. *)

val aggregate_cnf_stats : unit -> int * int
(** [(variables, clauses)] allocated since the last {!reset_memo_stats}:
    every SAT variable a context created (term-variable bits, gate outputs
    and its true literal) and every clause it entered, including ones the
    SAT instance then simplified away. *)

val reset_memo_stats : unit -> unit
(** Zero the counters. *)
