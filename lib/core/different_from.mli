(** The precomputed [differentFrom] relation (§3.3).

    [different t ~i ~j ~field] is [true] when there exists at least one
    message on client path [i] whose [field] value cannot appear in that
    field on client path [j]. During the server search, when a branch
    constraint touching only [field] kills client path [i], every path [j]
    with [different ~i:j ~j:i ~field = false] (i.e. [j]'s values for the
    field are contained in [i]'s) can be dropped without a solver call.

    The matrix is only defined for {e independent} fields — fields whose
    variables never share constraints with other fields (the CRC-style
    dependent fields are excluded). *)

open Achilles_symvm

type t

type stats = {
  fields_covered : string list; (* independent fields, in layout order *)
  pairs_checked : int; (* solver queries actually issued *)
  pairs_static : int; (* deduplicated pairs decided without the solver *)
  wall_time : float;
}

val compute :
  ?memoize:bool ->
  ?mask:string list ->
  ?use_slice:bool ->
  ?server_slice:Achilles_slice.Slice.summary ->
  Predicate.client_predicate ->
  t * stats
(** [memoize] (default [true]) caches pair checks on alpha-canonical
    (value, constraints) signatures — structurally identical client paths
    from different utilities share one solver call. Disable it to measure
    the paper's raw quadratic precomputation cost.

    [use_slice] (default {!Achilles_slice.Slice.enabled}) decides pairs
    whose field summaries are statically known (concrete vs concrete,
    unconstrained injective chain vs concrete, unconstrained symbolic on
    the containing side) without a solver query; the verdicts are exactly
    the ones the queries would return, so the matrix is unchanged. With
    [server_slice] — the server program's dependence summary — pair checks
    for fields that reach no server branch are skipped wholesale: their
    matrix entries stay [false] (the safe no-drop default, and the rows the
    search provably never consults), while [fields_covered] is unchanged.
    Statically decided pairs count in [pairs_static], never in
    [pairs_checked]. Skipped checks keep their fresh-variable slots, so
    later variable ids (and report digests) are independent of slicing. *)

val covers_field : t -> string -> bool
val different : t -> i:int -> j:int -> field:string -> bool
(** [false] for fields not covered (the safe default: no transitive drop). *)

val layout : t -> Layout.t
