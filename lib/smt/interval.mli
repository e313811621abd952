(** Cheap incomplete unsatisfiability pre-check based on unsigned intervals.

    The check scans a conjunction for atomic constraints that bound a single
    variable against a constant ([x < c], [c <= x], [x = c], [x <> c] and
    friends), intersects the resulting unsigned intervals per variable, and
    reports definite unsatisfiability when an interval becomes empty. Path
    constraints produced by symbolic execution are full of such atoms, so
    this filters out many queries before the SAT solver runs.

    The check is sound: [definitely_unsat ts = true] implies the conjunction
    of [ts] has no model. [false] means "don't know". *)

type bounds = { lo : int64; hi : int64 }
(** Unsigned inclusive bounds. *)

val analyze : Term.t list -> (Term.var * bounds) list option
(** Per-variable refined bounds, most recently refined variable first, or
    [None] if some interval is empty (the conjunction is unsatisfiable).
    Variables without recognized atomic constraints are omitted. *)

val definitely_unsat : Term.t list -> bool
