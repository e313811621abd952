(** Bitblasting of bitvector terms to CNF over a {!Sat} instance.

    A context owns a SAT solver and a cache mapping already-translated terms
    to their SAT-level representation (a literal for booleans, an lsb-first
    literal vector for bitvectors). Identical subterms are translated once.

    Division and remainder follow SMT-LIB semantics ([udiv x 0 = ones],
    [urem x 0 = x]); shifts by amounts [>= width] produce zero (or the sign
    fill for arithmetic shifts). *)

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

val clauses_added : t -> int
val aux_vars : t -> int

val cached_terms : t -> int
(** Distinct terms translated so far in this context — the reuse a
    long-lived (incremental) context has accumulated. *)

val cone_vars : t -> Term.t list -> int array
(** The SAT variables mentioned by the translations of the given terms
    (each variable once, in no particular order). Every term must already
    have been translated in this context ({!lit_of}/{!assert_true});
    untranslated subterms are silently absent. A long-lived context passes
    this as [Sat.solve]'s [decide_vars] so a query only decides its own
    cone instead of everything the context has accumulated. *)

(** {1 Memo statistics}

    Translation-cache hits and misses, accumulated per domain across every
    context the domain creates (contexts are per-query, so the counters
    must outlive them). *)

val memo_stats : unit -> int * int
(** [(hits, misses)] for the calling domain. *)

val aggregate_memo_stats : unit -> int * int
(** Totals over all domains that have bitblasted anything. *)

val reset_memo_stats : unit -> unit
(** Zero every domain's counters. *)
