(** Word-level equation solving and substitution, before bitblasting.

    STP (Ganesh & Dill, CAV 2007) solves and substitutes equalities at the
    word level before it bitblasts. This module holds the two pieces of that
    the analysis uses, so each exists once:

    - existential elimination of {e auxiliary} variables from a conjunction
      (the one-point rule, after splitting aligned concatenation
      equations). The filter compiler runs it on every Trojan query, and the
      negate operator on each field's disjunct, so the search never
      bitblasts the fresh copies of the client's inputs;
    - refutation by substitution, which can only ever answer "unsat". *)

val has_aux : is_aux:(int -> bool) -> Term.t -> bool
(** Does the term mention a variable whose id [is_aux] accepts? *)

val bare_aux : is_aux:(int -> bool) -> Term.t -> Term.var option
(** The variable, when the term is one auxiliary variable. *)

val flatten_and : Term.t -> Term.t list
(** The conjuncts of nested [And]s, left to right. *)

val slice_eqs :
  is_aux:(int -> bool) -> target:Term.t -> Term.t -> Term.t list option
(** [slice_eqs ~is_aux ~target value]: [target = value] cut into one
    equation [slice = piece] per concatenation segment of [value], high bits
    first, when every segment is a constant or an auxiliary variable
    ([None] otherwise). A slice is the run of [target]'s own segments that
    covers its bits when there is one, else an extract; so against a target
    made of message bytes, a piece aligned with them gets exactly those
    bytes. *)

val one_point : is_aux:(int -> bool) -> Term.t list -> Term.t list
(** [∃ aux. ⋀ conjs], as far as the one-point rule goes: repeatedly split
    equations between concatenations whose segment widths align pairwise,
    when they mention an auxiliary variable, into one equation per segment
    pair; then take the first conjunct [x = e] (either side) with
    [x] auxiliary and not in [e], drop it and substitute [e] for [x] in the
    rest. Returns the remaining conjuncts, in order; equisatisfiable with the
    input once the auxiliary variables are read existentially. *)

val simplifier :
  ?facts:Term.t list -> (Term.var -> Term.t option) -> Term.t -> Term.t
(** [simplifier ~facts f] is a function that replaces each variable [f]
    names, folds bottom-up through the smart constructors, and replaces
    every subterm equal to a conjunct of [facts] by true (and one equal to
    its negation by false). In every model of [facts] and of the equations
    [v = f v], the result has the input's value. Each closure memoises the
    terms it has rewritten, subterms included. *)

val refuter :
  ?facts:Term.t list -> (Term.var -> Term.t option) -> Term.t -> bool
(** [refuter ~facts f t]: does [t] fold to false under {!simplifier}? Then
    [t] is unsatisfiable together with [facts] and the equations
    [v = f v]. [false] proves nothing. Memoised like {!simplifier}. *)
