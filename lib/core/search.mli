(** Phase two of Achilles: explore the server symbolically and search for
    Trojan messages incrementally while building [PS] (§3.2, §3.3).

    Every server state carries the set of client path predicates that can
    still trigger it ("alive" paths). At each new branch constraint:

    - each alive client path [i] is kept only if [pathS /\ bind(pathCi)]
      stays satisfiable; once dropped, [negate(pathCi)] disappears from the
      Trojan query for good;
    - if the constraint touches a single independent field [a] and path [i]
      was dropped, every alive [j] whose field-[a] values are contained in
      [i]'s (per the differentFrom matrix) is dropped without a solver call;
    - the state is pruned as soon as [pathS /\ AND_i negate(pathCi)] becomes
      unsatisfiable — no Trojan message can reach it anymore.

    Both checks carry the model of their last satisfiable answer down the
    tree (restricted to the message variables). A constraint over message
    variables alone that the carried model satisfies keeps the check
    satisfiable, so it is settled without a solver query; the
    ["search.alive_settled"] and ["search.prune_settled"] counters count
    those.

    Accepting states therefore have Trojan messages by construction; the
    search emits a symbolic Trojan expression and one or more concrete
    witnesses per accepting path, each timestamped for the discovery curve
    of Figure 10.

    {b Shards.} A run explores the tree in one depth-first pass and splits
    it into [2^split_bits] route shards, the units of checkpoint and
    resume: a state belongs to the shard named by the first [split_bits]
    decisions of its route (padded with the true side), and each shard
    keeps its own event log. Pre-order reaches the shards one after another,
    in the order of their {e positions} (those decisions read as a binary
    number, the name of a shard everywhere), and never returns to one it
    has left, so a shard is finished, and checkpointed, as soon as the pass
    reaches the next; a checkpointed run does exactly the search work of
    one without. A run without checkpointing has 0 split bits: one shard.
    A resumed run skips the subtrees its loaded shards hold. A log names
    its states by ids local to the shard, which do not depend on the pass
    that logged it; the merge concatenates the logs in position order and
    shifts each one's ids by the states of the logs before it. So the
    report is identical at every split and across a resume except for
    wall-clock fields ([wall_time], and [found_at], which is re-monotonized
    in merge order); a partial report (failed shards) numbers only the
    states of the shards it holds. Caveats: determinism across a resume
    assumes the server allocates no fresh symbolic variables after its
    first fork (all bundled models receive the analyzed message up front),
    and that [max_states] (a bound on the states one pass creates, which a
    resumed pass spends only outside the skipped subtrees) is not hit;
    [explain_drops] unsat-core {e contents} may differ (cores depend on
    solver history; the set of drop events does not). *)

open Achilles_smt
open Achilles_symvm

type config = {
  drop_alive : bool; (* optimization 1: per-state alive tracking *)
  use_different_from : bool; (* optimization 2: transitive drops *)
  prune_no_trojan : bool; (* drop states with an unsat Trojan query *)
  check_overlap : bool; (* negate's false-positive discard (§4.1) *)
  incremental_bindings : bool;
      (* no effect: no code in lib/ or bin/ reads it. Kept only because the
         perfbench harness's config literal names it; delete it together
         with that line *)
  explain_drops : bool;
      (* record an unsat-core explanation for every dropped client path,
         taken from {!Solver.last_assumption_core} (so none while
         incremental solving is switched off) *)
  use_slice : bool;
      (* answer server branch feasibility through the static-slice oracle
         ({!Achilles_slice.Slice.make_oracle}): cone-restricted, memoized
         queries with equality chains decided statically, and [max_depth]
         counting only message-tainted decisions. Verdict-preserving on
         clean runs, so the report digest is byte-identical either way.
         Defaults to {!Achilles_slice.Slice.enabled} ([ACHILLES_SLICE]) *)
  mask : string list option; (* analyzed fields; None = all *)
  witnesses_per_path : int; (* concrete witnesses enumerated per path *)
  distinct_by : (Bv.t array -> Term.var array -> Term.t) option;
      (* blocking-constraint generator steering witness enumeration toward
         distinct message classes; [None] blocks the exact witness bytes *)
  interp : Interp.config;
  domains : int;
      (* must be 1: {!run} raises [Invalid_argument] otherwise. Kept only
         because the perfbench harness's config literal names it; delete it
         together with that line *)
  split_bits : int option;
      (* route shards = 2^split_bits (in [0,16]), the units of checkpoint
         and resume; [None] picks 2 when checkpointing ([checkpoint_dir] or
         [resume] set), else 0. The split changes no report and no search
         work *)
  solver_budget : Solver.budget option;
      (* solver budget installed for the search's queries (the caller's own
         budget is restored afterwards); [None] leaves queries unbounded *)
  shard_retries : int;
      (* no effect: a shard task that raises is never retried, it is
         recorded as failed. Kept only because the perfbench harness's
         config literal names every other field, so without this one its
         [default_config with] would be a warning-23 error; delete it once
         that literal drops the [with] *)
  checkpoint_dir : string option;
      (* when set, every completed shard's event log is flushed to
         [dir/shard-NNNN.ckpt] (NNNN its position) via an atomic rename,
         empty shards included; the directory must exist or have an
         existing parent ([Invalid_argument] otherwise, see
         {!Shards.prepare_dir}) *)
  resume : bool;
      (* with [checkpoint_dir]: load valid shard checkpoints and explore
         only the rest of the tree; with every shard loaded, nothing is
         explored *)
  cancel : unit -> bool;
      (* cooperative cancellation, polled at every branch constraint and
         shard boundary; once true, exploration stops, the shard the pass
         was in stays partial (reported, never checkpointed, never counted
         complete) and no other shard is finished *)
  chaos : (int -> unit) option;
      (* test hook run with the shard position when a pass starts recording
         a shard (raise to simulate a crash: the shard is recorded as failed,
         a new pass explores the shards after it, and only [resume]
         recovers it) *)
}

val default_config : config
(** Robustness defaults: no solver budget, no checkpointing, [cancel]
    constantly false, no chaos hook. *)

type trojan = {
  server_state_id : int;
  accept_label : string;
  witness : Bv.t array; (* a concrete Trojan message *)
  symbolic : Term.t list; (* pathS /\ negations: the Trojan expression *)
  msg_vars : Term.var array;
  confirmed : bool;
      (* [true]: the witness was enumerated from a [Sat] answer. [false]:
         the witness query came back [Unknown] (budget exhausted or fault
         injected) — the symbolic expression is still sound, but the
         all-zero placeholder witness is unverified and the accepting state
         itself is only an over-approximation *)
  found_at : float; (* seconds since the search started *)
}

type alive_sample = { state_id : int; path_length : int; alive : int }
(** One (execution-path length, surviving client paths) measurement —
    the raw data of Figure 11. *)

type drop_explanation = {
  at_state : int;
  dropped_path : int; (* cp_id of the dropped client path *)
  conflicting : Term.t list;
      (* the unsat core: server path constraints that together with the
         msgS = msgC binding rule this client path out — "why can't client
         path i trigger this state any more" *)
}

type stats = {
  accepting_paths : int;
  rejecting_paths : int;
  other_paths : int;
  pruned_states : int; (* states killed by the no-Trojan check *)
  forks : int;
  alive_checks : int;
      (* pathS /\ pathCi checks decided, by a solver query or by the model
         the client path carries from its last satisfiable check *)
  transitive_drops : int; (* drops decided by differentFrom alone *)
  alive_samples : alive_sample list;
  wall_time : float;
}

(** Honest accounting of what a (possibly degraded) run actually covered.

    Soundness of the degradation paths: an [Unknown] alive check keeps the
    client path alive (the implied negation stays in the Trojan query, so
    the answer set only shrinks to the sound side); an [Unknown] prune check
    keeps the state (more exploration, never less); an [Unknown] witness
    query emits an {e unconfirmed} Trojan. Budget exhaustion therefore
    over-approximates — it can add unconfirmed Trojans but never silently
    drops a real one. Failed or cancelled shards, by contrast, are missing
    coverage, which is why they are reported here instead of being folded
    into a seemingly complete report. *)
type coverage = {
  total_shards : int; (* 1 without checkpointing *)
  completed_shards : int;
  failed_shards : int list; (* positions of the shards a pass raised in *)
  resumed_shards : int; (* loaded from checkpoints instead of explored *)
  interrupted : bool; (* [cancel] fired during the run *)
  unknown_alive : int; (* alive checks degraded to keep-alive *)
  unknown_prune : int; (* prune checks degraded to keep-state *)
  unknown_witness : int; (* witness queries degraded to unconfirmed *)
  budget_exhaustions : int; (* solver escalation ladders ending Unknown *)
  injected_faults : int; (* faults fired by {!Solver.set_fault_injection} *)
  abandoned_states : int; (* states cut off by cancellation *)
  (* slice-oracle effectiveness (process-wide since the last stats reset;
     never digested): *)
  slice_static_branches : int; (* branch feasibilities settled statically *)
  slice_cone_queries : int; (* cone-restricted queries replacing full-path ones *)
}

val coverage_complete : coverage -> bool
(** Every shard completed, none failed, not interrupted. A complete run may
    still contain Unknown degradations — those over-approximate and are
    visible per-trojan via [confirmed]. *)

type report = {
  trojans : trojan list; (* discovery order *)
  accepting : Predicate.server_path list;
  drops : drop_explanation list; (* populated when [explain_drops] is set *)
  search_stats : stats;
  coverage : coverage;
}

val run :
  ?config:config ->
  ?different_from:Different_from.t ->
  client:Predicate.client_predicate ->
  server:Ast.program ->
  unit ->
  report

val trojan_queries :
  report -> (Predicate.server_path * Term.t list option) list
(** Every accepting state paired with the symbolic Trojan query the search
    decided it with ([pathS /\ AND_alive negate(pathCi)], the [symbolic]
    field of that state's trojans), or [None] when the query was
    unsatisfiable — no Trojan message can reach the state. This is the
    predicate export the filter compiler ([Achilles_filter]) consumes: the
    per-receiving-state [¬PC] the paper's offline analysis ends with. *)

val minimize_witness : trojan -> Bv.t array
(** A witness for the same Trojan expression with greedily as many zero
    bytes as the expression allows — easier to read and to diff against
    valid traffic when preparing fire-drill payloads. *)

(** {1 Shard checkpoint files}

    The files {!run} writes under [checkpoint_dir], exposed so tests can
    damage and reload them and the CLI can check a directory before any
    analysis runs. *)
module Shards : sig
  type out
  (** One completed shard's event log plus the fresh-variable counter at
      its end. Opaque: produced by {!load}, consumed by {!write}. *)

  val prepare_dir : string -> (unit, string) result
  (** Create the directory if needed (its parent must exist) and delete
      stale [*.tmp.*] leftovers from killed writers; [Error] says why the
      path cannot hold checkpoints (not a directory, or not creatable).
      {!run} calls it once per checkpointing run. *)

  val fingerprint :
    config:config ->
    client:Predicate.client_predicate ->
    server:Ast.program ->
    string
  (** The run identity {!run} stamps into its checkpoint files. *)

  val write : file:string -> fingerprint:string -> pos:int -> out -> unit
  (** Durable atomic checkpoint: marshal to a pid-qualified temp file,
      fsync, rename into place, fsync the directory. Never raises: a failed
      write removes its temp file, warns on stderr and counts
      ["checkpoint.write_failed"]; the file is then simply missing, so a
      later resume re-explores the shard. *)

  val load : file:string -> fingerprint:string -> pos:int -> out option
  (** [None] if the file is missing, torn, corrupt (payload digest
      mismatch), or belongs to a different run or shard — with a warning
      for everything but absence. A file written by a run with another
      fingerprint (another split or other options) counts as
      ["checkpoint.stale"]; every other rejection counts as
      ["checkpoint.corrupt"]. *)
end
