(** Static dependency slicing over the protocol DSL.

    Most server branches never depend on message bytes. This module
    computes, once per program, what depends on what, and turns that into
    decisions the differentFrom preprocessing consumes:

    - {!analyze} runs a whole-program taint analysis from [Receive] sources
      through scalars, buffers and procedure calls, producing a branch
      census (which conditions are message-byte-tainted, and through which
      layout fields) and a per-field dependence summary (how many branches,
      state updates and sends each field can reach).
    - {!injective_image_bits} is the value-set machinery [Different_from]
      uses to decide provably-different / provably-contained field pairs
      without a solver.

    Branch feasibility is not decided here: every branch check is a
    [Solver.check_assuming] on the frame context ({!Achilles_symvm.Interp}).

    {b Soundness bar.} Slicing is a pure decision optimization: on clean
    (unbudgeted, fault-free) runs every verdict it produces coincides with
    the verdict of the solver query it replaces, so report digests are
    byte-identical slice on or off, at any shard split. The taint analysis
    only over-approximates (joins, no strong updates, symbolic offsets
    spill to whole buffers), so "field reaches no branch" is a proof, never
    a guess. *)

open Achilles_smt
open Achilles_symvm

val enabled : unit -> bool
(** Whether differentFrom's slice shortcuts are on. Defaults to [true]; the
    environment variable [ACHILLES_SLICE] (["0"], ["false"], ["off"],
    ["no"]) or {!set_enabled} turns them off — the [--no-slice] escape
    hatch reads this. *)

val set_enabled : bool -> unit

(** {1 Static taint analysis} *)

(** Message taint of one value: [Clean] — provably no message byte flows
    here; [Fields s] — only bytes of the named layout fields can; [Any] —
    message-tainted through bytes outside any declared field (or past the
    layout), so field attribution is unknown. *)
type taint = Clean | Fields of string list  (** sorted *) | Any

type branch_info = {
  branch_id : string;
      (** stable descriptor ["proc:kind#n"], [n] counting pre-order per
          statement kind per procedure — e.g. ["main:if#0"],
          ["check:switch#1"], ["main:while#0"] *)
  branch_taint : taint;  (** taint of the branch condition *)
}

type field_dep = {
  dep_field : string;
  dep_branches : int;  (** branch conditions this field can reach *)
  dep_updates : int;  (** global assignments / buffer stores it can reach *)
  dep_sends : int;  (** sends whose payload or destination it can reach *)
}

type summary = {
  program_name : string;
  branches : branch_info list;  (** pre-order, main first then procs *)
  field_deps : field_dep list;  (** layout order *)
  any_tainted_branch : bool;
      (** some branch condition has taint [Any]: field attribution is
          incomplete and per-field branch counts cannot be trusted as
          upper bounds *)
}

val analyze : layout:Layout.t -> Ast.program -> summary
(** Whole-program flow-insensitive monotone fixpoint: every [Receive]
    target byte is a source tainted with the layout field covering its
    offset ([Any] past the layout), assignments and stores propagate joins
    (symbolic offsets spill to the whole buffer, and the offset's own taint
    rides along — matching the interpreter's mux/ite encodings), procedure
    parameters join over all call sites and returns join back into every
    result variable. Runs under the [Obs] [Slice] phase. *)

val tainted : taint -> bool
(** [taint <> Clean]. *)

val mentions : taint -> string -> bool
(** May this taint include bytes of the named field? [Any] mentions every
    field. *)

val field_reaches_branch : summary -> string -> bool
(** Can any byte of the field flow into any branch condition? [false] is a
    static proof that no server path constraint will ever contain the
    field's message variables — the [Different_from] rows for such a field
    are never consulted by the search, so their pair checks can be skipped
    wholesale. Conservatively [true] for every field when
    [any_tainted_branch] is set. *)

val pp_summary : Format.formatter -> summary -> unit
(** Stable rendering (the golden-test format): the branch census with
    taints, then the per-field dependence table. *)

(** {1 Value-set machinery} *)

val injective_image_bits : Term.t -> int option
(** [Some k] when the term is a concatenation chain of constants and
    pairwise-distinct variables — an injective function of its variables
    whose image has exactly [2^k] values ([k] = total variable width).
    Plain variables and zero-extended variables qualify; [None] means the
    term's value set is not statically known. Used to decide "does this
    unconstrained field value escape a single concrete value" without a
    solver. *)

(** {1 Benchmark shim} *)

val make_oracle : unit -> unit
(** Does nothing. It stays only because the benchmark harness
    (perfbench/analysis.ml) still sets [Interp.config.oracle] from it; it
    goes with the benchmark's next change. *)
