(** The custom under-approximate negate operator (§3.2).

    [negate(pathC)] describes messages that cannot be generated on client
    path [pathC]. It is computed per message field as a disjunction:

    - a field whose client-side value is a concrete constant [C] contributes
      "server field <> C";
    - a field holding an expression over symbolic inputs contributes
      "server field = renamed-expression AND (disjunction of the negated
      path constraints influencing those inputs)", with all client
      variables renamed fresh so each disjunct quantifies independently.
      When the renamed value is a concatenation of constants and fresh
      variables, the fresh copies are solved away
      ({!Achilles_smt.Elim}): each one becomes the slice of the server
      field at its position, and each constant piece the equation
      [slice = C], so the disjunct reads
      "AND (slice = C) AND (disjunction of the negated constraints over the
      slices)" over the server's bytes alone. Any other value keeps the
      renamed form;
    - a symbolic field with no influencing constraints is abandoned
      (contributes nothing) — the under-approximation of §4.2.

    Optionally each disjunct is checked for overlap against the original
    client path predicate and discarded when a common solution exists,
    which removes negate-induced false positives (§4.1). A disjunct that
    folds to false once the client's bytes replace the server's and its
    constraints are read as facts ({!Predicate.refuter}) cannot overlap,
    and is kept with no solver query. A probe the solver leaves undecided
    ([Unknown]: budget or injected fault) discards its disjunct, the
    under-approximating direction. *)

open Achilles_smt
open Achilles_symvm

val related_constraints : Predicate.client_path -> int list -> Term.t list
(** Path constraints transitively influencing the given variable ids: the
    closure adds any constraint sharing a variable with the growing set. *)

val negate_field :
  layout:Layout.t ->
  target:Term.t ->
  Predicate.client_path ->
  string ->
  Term.t option
(** Negation of one field, phrased over [target] (the server-side term for
    that field's value). [None] when the field is abandoned. The fresh
    copies are allocated even when they are solved away, so the variable
    ids allocated after a negation do not depend on its form. *)

val negate_path :
  ?check_overlap:bool ->
  ?mask:string list ->
  layout:Layout.t ->
  server_vars:Term.var array ->
  Predicate.client_path ->
  Term.t
(** The full per-path negation: disjunction of the per-field negations over
    the server's symbolic message bytes. [Term.fls] when every field was
    abandoned or discarded (the most conservative answer: nothing can be
    proven un-generable on this path). [check_overlap] defaults to [true]. *)
