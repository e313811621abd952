(** Cheap incomplete unsatisfiability pre-check based on unsigned intervals.

    The check scans a conjunction for atomic constraints that bound a single
    variable against a constant ([x < c], [c <= x], [x = c], [x <> c] and
    friends), intersects the resulting unsigned intervals per variable, and
    reports definite unsatisfiability when an interval becomes empty. Path
    constraints produced by symbolic execution are full of such atoms, so
    this filters out many queries before the SAT solver runs.

    The check is sound: [definitely_unsat ts = true] implies the conjunction
    of [ts] has no model. [false] means "don't know". The verdict depends
    only on the set of conjuncts: not on their order, their repetition or
    how they nest in conjunctions. *)

type bounds = { lo : int64; hi : int64 }
(** Unsigned inclusive bounds. *)

val analyze : Term.t list -> (Term.var * bounds) list option
(** Per-variable refined bounds, most recently refined variable first, or
    [None] if some interval is empty (the conjunction is unsatisfiable).
    Variables without recognized atomic constraints are omitted. *)

val definitely_unsat : Term.t list -> bool
(** [unsat (List.fold_left extend top ts)]. *)

(** {1 Carried accumulators}

    The scan of a conjunction, kept as a persistent value: a frame stack
    keeps one per frame, and a query extends its innermost frame's by its
    own conjuncts, leaving the frame's as it was. *)

type carry

val top : carry
(** The scan of the empty conjunction. *)

val extend : carry -> Term.t -> carry
(** The scan with one more conjunct. *)

val unsat : carry -> bool
(** The verdict: [unsat (List.fold_left extend top ts)] is
    [definitely_unsat ts]. *)
