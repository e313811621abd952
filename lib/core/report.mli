(** Human-readable rendering of analysis results: discovered Trojan
    messages with field decoding, discovery curves, and alive-set data. *)

open Achilles_smt
open Achilles_symvm

val pp_witness : Layout.t -> Format.formatter -> Bv.t array -> unit
(** Decode a concrete message per the layout, one line per field. *)

val pp_trojan : Layout.t -> Format.formatter -> Search.trojan -> unit
(** Unconfirmed trojans (witness query degraded to [Unknown]) are marked as
    such in the rendering. *)

val pp_coverage : Format.formatter -> Search.coverage -> unit
(** The honest-accounting block: shard completion/failures/resumes,
    interruption, solver Unknown counts by site, budget exhaustions and
    injected faults. Quiet counters are omitted; a fault-free complete run
    renders as a single "complete" line. *)

val pp_metrics : Format.formatter -> Achilles_obs.Obs.snapshot -> unit
(** The observability metrics block: per-phase span counts and named
    counters from {!Achilles_obs.Obs.aggregate}. Counts only — digest-stable
    by construction, since digests never cover it and wall-clock values are
    confined to the trace file. Renders nothing when no spans or counters
    were recorded. *)

val discovery_curve :
  total:int -> Search.trojan list -> (float * float) list
(** Cumulative discovery points [(seconds, percent-of-total)] in found
    order — the series plotted in Figure 10. *)

val alive_scatter : Search.stats -> (int * int) list
(** (execution path length, alive client predicates) points — the scatter
    of Figure 11. *)

val render_ascii_curve :
  ?width:int -> ?height:int -> (float * float) list -> string
(** A small ASCII plot for terminal output of the benchmark harness. *)

(** {1 Deterministic digests}

    MD5 hex digests of canonical renderings that exclude every wall-clock
    field ([found_at], [wall_time]) and the history-dependent unsat-core
    contents of drop explanations. Two searches of the same client/server
    pair produce equal digests exactly when their reports agree on all
    deterministic content — the equality the search guarantees across any
    shard split and across a resume, and what the golden tests and the CI
    matrix pin. *)

val report_digest : Search.report -> string
(** Trojans (state id, label, witness bytes, symbolic expression, message
    variables, plus an [unconfirmed] marker on budget-degraded ones),
    accepting server paths, drop events (sans cores), counter stats, and
    alive samples. Coverage is included {e only for incomplete runs}
    (failed shards or interruption): a partial report can never digest
    equal to the complete one, while complete runs keep the pre-coverage
    digest — so fault-free goldens stay pinned and a resumed run that
    completes reproduces the uninterrupted digest byte-for-byte. *)

val discovery_digest : Search.report -> string
(** Only the discovery series of Figure 10: the ordered trojan list. *)

val alive_digest : Search.stats -> string
(** Only the alive-sample rows behind Figure 11. *)

(** {1 Grammar summaries}

    A human-readable digest of the extracted client predicate, in the
    spirit of protocol reverse-engineering (the Caballero-Song line of
    related work §7): per message field, what values correct clients put
    there. *)

type field_summary =
  | Constant of Bv.t list  (** finitely many constants across the paths *)
  | Ranged of { low : Bv.t; high : Bv.t }
      (** unsigned hull of the achievable values (solver-computed; an
          over-approximation of the exact set) *)
  | Unconstrained  (** some path can put any value there *)

val describe_grammar :
  ?mask:string list ->
  Predicate.client_predicate ->
  (string * field_summary) list
(** One summary per (analyzed) layout field. Fields wider than 64 bits are
    skipped. *)

val pp_grammar :
  Format.formatter -> (string * field_summary) list -> unit
