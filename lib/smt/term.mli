(** Terms of the quantifier-free bitvector + boolean theory.

    Terms are built exclusively through the smart constructors below, which
    perform constant folding and light algebraic simplification. Every term
    is a hash-consed record: [node] is the structure, [hkey] a structural
    hash computed at construction, and [tid] a process-unique id assigned
    when the node is first built. With sharing enabled (the default), every
    node is interned, so structurally equal terms are physically equal and
    {!equal}/{!compare}/{!hash} are (amortized) O(1).

    The [tid] is an identity for memo tables only: it never participates in
    {!equal}, {!compare} or {!pp}, so printed output — and everything
    digested from it — is independent of construction order and sharing
    mode. *)

type sort = Bool | Bitvec of int

type var = private { id : int; name : string; sort : sort }

type t = private { tid : int; node : node; hkey : int }

and node =
  | True
  | False
  | Const of Bv.t
  | Var of var
  | Not of t
  | And of t * t
  | Or of t * t
  | Ite of t * t * t  (** boolean condition; branches of equal sort *)
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | Ule of t * t
  | Sle of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Udiv of t * t
  | Urem of t * t
  | Bnot of t
  | Band of t * t
  | Bor of t * t
  | Bxor of t * t
  | Shl of t * t
  | Lshr of t * t
  | Ashr of t * t
  | Concat of t * t  (** first operand is the high bits *)
  | Extract of int * int * t  (** [Extract (hi, lo, t)], bits inclusive *)

exception Sort_error of string

val sort_equal : sort -> sort -> bool
val pp_sort : Format.formatter -> sort -> unit

val fresh_var : ?name:string -> sort -> var
(** Allocate a globally fresh variable. *)

val reset_fresh_counter : unit -> unit
(** Reset the fresh-variable counter. Only for reproducible experiments and
    tests that compare printed output; never call while terms are live. *)

val set_fresh_counter : int -> unit
(** Set the fresh-variable counter; the next variable gets id [n + 1]. The
    search uses this to replay the same id sequence in every shard. *)

val fresh_counter_value : unit -> int
(** The current counter (the id of the last variable allocated). *)

val sort_of : t -> sort
(** Raises {!Sort_error} on ill-sorted terms (cannot happen for terms built
    with the smart constructors). *)

val width_of : t -> int
(** Width of a bitvector-sorted term; raises {!Sort_error} for booleans. *)

(** {1 Smart constructors} *)

val tru : t
val fls : t
val bool : bool -> t
val const : Bv.t -> t
val int : width:int -> int -> t
val var : var -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val and_l : t list -> t
val or_l : t list -> t
val implies : t -> t -> t
val ite : t -> t -> t -> t
val eq : t -> t -> t
val neq : t -> t -> t
val ult : t -> t -> t
val slt : t -> t -> t
val ule : t -> t -> t
val sle : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val sgt : t -> t -> t
val sge : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val neg : t -> t
val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val concat : t -> t -> t
val concat_l : t list -> t
(** [concat_l [hi; ...; lo]]; the list must be non-empty. *)

val extract : hi:int -> lo:int -> t -> t
val zero_extend : by:int -> t -> t
val sign_extend : by:int -> t -> t
val resize_unsigned : width:int -> t -> t
(** Zero-extend or truncate to the requested width. *)

(** {1 Inspection} *)

val is_const : t -> bool
val const_value : t -> Bv.t option
val bool_value : t -> bool option

val fold_vars : (var -> 'a -> 'a) -> t -> 'a -> 'a
val vars : t -> var list
(** Distinct variables occurring in the term, in ascending id order. *)

val var_ids : t -> int list
(** Distinct variable ids, ascending. Memoized per [tid] while sharing is
    enabled (the closure computations in [Negate]
    and [Predicate] re-ask for the same terms constantly). *)

val mentions : t -> var -> bool
val size : t -> int
(** Number of AST nodes. *)

val map_children : (t -> t) -> t -> t
(** [map_children f t] rebuilds [t]'s top node through the smart constructors from
    [f] applied to each child (so it folds); a leaf is returned as it is. *)

val subst : (var -> t option) -> t -> t
(** Capture-free substitution of variables; substituted terms must have the
    variable's sort. *)

val alpha_key : t list -> string
(** A canonical rendering of the terms with variables renamed to their order
    of first occurrence, each printed with its sort: two term lists that
    differ only in the identity of their (fresh) variables get equal keys,
    and lists whose variables differ in sort get different ones. Used to
    memoize per-path solver work across structurally identical client
    paths. *)

val equal : t -> t -> bool
(** Structural equality (ignoring [tid]), with a physical-equality fast
    path. On interned terms this is O(1); with sharing off it falls back to
    an [hkey]-filtered structural walk. *)

val compare : t -> t -> int
(** A total order with exactly the semantics the previous plain-ADT
    representation got from [Stdlib.compare] (constructor order, fields
    left to right, bitvectors by width then signed value) so every sorted
    canonical form — and therefore every digest — is unchanged. *)

val hash : t -> int
(** The stored structural hash; O(1) in both sharing modes. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Interning control and introspection} *)

val set_sharing : bool -> unit
(** Toggle hash-consing (default on). With sharing off every construction
    allocates a fresh node, reproducing the pre-interning cost model; all
    results are identical in both modes, only speed and memory change. *)

val sharing_enabled : unit -> bool

val aggregate_intern_stats : unit -> int * int
(** [(hits, created)]: constructions answered from the intern table vs
    nodes physically allocated since the last {!clear_interning}. *)

val structural_work : unit -> int
(** Total number of term nodes visited by the structural fallbacks of
    {!equal} and {!compare} and by the traversal behind {!var_ids} — the
    work that sharing exists to avoid.  Physical-equality
    hits and per-tid memo hits cost (and count) nothing. *)

val clear_interning : unit -> unit
(** Drop the intern table and per-tid memo and zero the sharing counters.
    Live terms stay valid (subsequent constructions simply re-intern). *)

val rebuild : t -> t
(** Re-intern a term that bypassed the smart constructors — e.g. one
    revived by [Marshal] from a checkpoint, whose [tid]s belong to a dead
    process and must not be allowed near tid-keyed memo tables. Rebuilds
    bottom-up through the smart constructors (idempotent on their normal
    forms) with a per-call memo, so DAG-shaped sharing is preserved. *)

val dedup : t list -> t list
(** Order-preserving removal of duplicate terms (by {!equal}). *)

(** Hash table keyed by terms, hashing with the stored [hkey] and comparing
    with {!equal}. The semantics are exactly those of a polymorphic
    [Hashtbl] over the old structural representation, at O(1) per probe on
    interned terms — which is what makes the bitblast memo and the frame
    contexts' guard maps cheap without perturbing their contents. *)
module Tbl : Hashtbl.S with type key = t
