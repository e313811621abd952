(** Compile the extracted [¬PC] into a line-rate Trojan filter.

    The offline analysis ends with, per accepting server state, the Trojan
    query [pathS /\ AND_alive negate(pathCi)] over the symbolic message
    bytes (plus auxiliary variables: fresh-renamed client inputs the
    negate operator could not solve away, and any over-approximated server
    local state). This module lowers those queries into a self-contained
    decision DAG over concrete message bytes that a server front end can
    evaluate on every incoming message without a solver:

    - conjuncts whose variables are all message bytes lower directly to a
      shared op DAG (common subexpressions deduplicated via the hash-consed
      term ids) evaluated with concrete bitvector arithmetic;
    - auxiliary variables are eliminated at compile time: the one-point
      rule of {!Achilles_smt.Elim}, which the negate operator also runs on
      each disjunct, unifies [x = e] equations (after splitting aligned
      concatenations) with the server's byte terms, atom-level quantifier
      elimination resolves single-occurrence existentials (e.g. a
      [rid <> last_rid] freshness check against over-approximated local
      state), and what remains is projected onto its message bytes by
      solver model enumeration, collapsed to unsigned ranges;
    - per-state byte-interval gates (from {!Achilles_smt.Interval}) reject
      most messages with a handful of compares before the DAG runs.

    Residues the compiler cannot settle exactly become three-valued
    [Unknown] leaves — the filter then answers {!Unknown_state} rather than
    guessing, and {!unknown_leaves} reports how much of the predicate
    degraded. For the bundled targets compilation is exact (zero unknown
    leaves), which the differential test suite holds it to. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core

type t

type verdict =
  | Accept
      (** Not a Trojan as far as the analysis knows: either no accepting
          server path matches the message, or every matching path's message
          is one a correct client can generate. *)
  | Trojan_suspect of int
      (** The message satisfies some accepting state's Trojan query; the
          payload is that state's id (see {!state_label}). *)
  | Unknown_state
      (** The verdict depends on something the filter does not track — an
          unknown-leaf residue of compilation, or a message whose length
          does not match the compiled layout. Never returned by a filter
          with {!unknown_leaves}[ = 0] and a correctly sized message. *)

val compile :
  ?enum_values:int ->
  target:string ->
  layout:Layout.t ->
  report:Search.report ->
  unit ->
  t
(** Compile every accepting state's Trojan query (via
    {!Search.trojan_queries}) into a filter. [enum_values] bounds the
    solver model enumeration used for irreducible existential residues
    (default 512 projected values); past the budget the residue becomes an
    [Unknown] leaf instead of an unsound guess. *)

val target : t -> string
val layout_name : t -> string
val message_size : t -> int
val state_count : t -> int
(** Accepting states with a satisfiable Trojan query (states proven
    Trojan-free compile away entirely). *)

val op_count : t -> int
val unknown_leaves : t -> int
(** Number of [Unknown] leaves in the DAG; 0 means the filter decides every
    correctly-sized message exactly. *)

val state_label : t -> int -> string option
(** Accept label of the given state id, if the filter knows the state. *)

(** {1 Evaluation}

    An evaluator owns the per-message scratch arrays (value cache and
    stamps), so the hot path allocates nothing but the verdict. An
    evaluator serves one message at a time: it is not reentrant. *)

type evaluator

val evaluator : t -> evaluator

val verdict_bytes : evaluator -> Stdlib.Bytes.t -> verdict
(** Verdict for a raw wire message. A message whose length differs from
    {!message_size} is [Unknown_state]. *)

val verdict : evaluator -> Bv.t array -> verdict
(** Verdict for a message given as 8-bit bytes (the representation the
    search's witnesses use). Raises [Invalid_argument] if an element is not
    8 bits wide; wrong length is [Unknown_state]. *)

(** {1 Serialization}

    A versioned binary image: magic + format version, a length-prefixed
    payload, and an MD5 of the payload. Decoding rejects — with an honest
    error, never a wrong verdict — truncated images, foreign or
    wrong-version files, bit flips anywhere in the payload, and
    structurally invalid programs (dangling op references, sort
    mismatches, out-of-range byte indices). *)

val to_string : t -> string

val of_string : string -> (t, string) result

val save : t -> file:string -> (unit, string) result
(** Writes a temp file in the destination directory, then renames it over
    [file], so readers never see a partial filter. *)

val load : file:string -> (t, string) result

val pp_summary : Format.formatter -> t -> unit
