(** Observability: scoped phase timers, counters, latency histograms, and
    an optional JSONL event trace.

    Design rules (see DESIGN.md §9):

    - All in-memory metrics are plain module state of the one domain that
      runs the search (or the filter daemon); nothing is locked, and
      {!aggregate} copies them into a snapshot.
    - Counts (span counts, counters) are safe to print in reports; elapsed
      times are wall-clock and must only ever reach the trace file, never
      digested report text.
    - The trace writer flushes after every line, so a SIGINT/SIGTERM that
      kills the process mid-run still leaves a valid one-object-per-line
      JSONL file behind. *)

(** {1 Phase taxonomy} *)

(** The static phase taxonomy. Every scoped timer in the pipeline belongs to
    exactly one of these; [trace summarize] attributes wall-clock time to
    them by self-time (nested spans never double-count). *)
type phase =
  | Client_se        (** client-side symbolic execution ([Client_extract]) *)
  | Server_se        (** server-path exploration ([Search] over [Interp]) *)
  | Negate           (** predicate negation ([Negate.negate_path]) *)
  | Different_from   (** differentFrom set construction *)
  | Solver_query     (** one [Solver.check] / incremental check *)
  | Bitblast         (** term -> CNF translation inside a solver query *)
  | Checkpoint_io    (** shard checkpoint write/load *)
  | Report           (** report rendering *)
  | Filter_eval      (** one compiled-filter verdict ([Achilles_filter]) *)
  | Slice            (** static dependency slicing ([Achilles_slice]) *)

val all_phases : phase list

val phase_name : phase -> string

val phase_of_name : string -> phase option

(** {1 Scoped timers and counters} *)

(** [span p f] runs [f ()], charging its duration to phase [p] (count,
    total seconds, latency histogram) and — when a trace or sink is live —
    emitting [span_begin]/[span_end] events.
    [site] names the caller on whose behalf the span runs (a solver query's
    [witness], [alive], ...); it rides on [span_begin] only while a trace
    or sink is live, and {!Summary} splits the phase's time by it.
    Exceptions close the span before propagating. *)
val span : ?site:string -> phase -> (unit -> 'a) -> 'a

(** [count ?n name] bumps the named counter by [n] (default 1). Counter
    values are deterministic counts and may be printed in reports. *)
val count : ?n:int -> string -> unit

(** [record_span p dt] charges an externally-measured duration [dt] (seconds)
    to phase [p] — count, total seconds, histogram — without re-reading the
    clock. When a trace is live it emits a lone [span_end] event carrying
    [dur], which {!Summary.of_events} attributes via its orphan-end path.
    For hot paths (the serving daemon) that already hold the duration. *)
val record_span : phase -> float -> unit

(** {1 Aggregated snapshot} *)

(** Number of log2-microsecond latency buckets per phase: bucket [k] counts
    spans whose duration fell in [[2^k, 2^k+1)) microseconds. *)
val histogram_buckets : int

(** Bucket index for a duration in seconds (clamped to the last bucket). *)
val bucket_of_seconds : float -> int

type phase_metrics = {
  spans : int;            (** completed spans *)
  seconds : float;        (** total elapsed (wall-clock — never digest this) *)
  histogram : int array;  (** latency histogram, [histogram_buckets] buckets *)
}

type snapshot = {
  phases : (phase * phase_metrics) list;  (** in [all_phases] order *)
  counters : (string * int) list;         (** sorted by name *)
}

(** A copy of the current metrics. *)
val aggregate : unit -> snapshot

(** Zero every phase metric and counter. Tests/bench only. *)
val reset_all : unit -> unit

(** [estimate_quantile hist q] estimates the [q]-quantile (0..1) of the
    durations behind a log2-µs histogram, returning the geometric midpoint
    [2^(k+0.5) µs] of the first bucket whose cumulative count crosses
    [q * total]. Returns 0 for an empty histogram. *)
val estimate_quantile : int array -> float -> float

(** {1 Events} *)

type value = S of string | I of int | F of float | B of bool

type event = {
  ev_t : float;    (** seconds since trace start *)
  ev_kind : string;
  ev_name : string;
  ev_args : (string * value) list;
}

(** True when a trace file or sink is attached — use to guard event payloads
    that are expensive to build (e.g. rendered terms). *)
val live : unit -> bool

(** [emit ?args ~kind ~name ()] records one event. A no-op unless {!live}.
    Each event is one flushed JSONL line. *)
val emit : ?args:(string * value) list -> kind:string -> name:string -> unit -> unit

(** [set_sink (Some f)] mirrors every emitted event to [f], independently
    of whether a trace file is open. The CLI routes [--verbose] output
    through this so verbose text and trace events are two renderings of the
    same event stream. *)
val set_sink : (event -> unit) option -> unit

(** One-line JSON rendering of an event (the JSONL trace line, no newline). *)
val json_of_event : event -> string

(** {1 Trace file} *)

module Trace : sig
  (** Open [file] (truncating) and start writing JSONL events to it,
      closing any trace already open. Raises [Sys_error] when [file] cannot
      be opened, leaving tracing disabled. *)
  val enable : string -> unit

  (** Flush and close the trace file. Safe to call when disabled. *)
  val disable : unit -> unit

  (** [Sys.getenv_opt "ACHILLES_TRACE"] *)
  val file_of_env : unit -> string option
end

(** {1 Reading traces back} *)

module Json : sig
  type t = Null | Bool of bool | Num of float | Str of string

  (** Parse one flat JSONL object ([{"k":v,...}] with scalar values) into an
      assoc list. *)
  val parse_line : string -> ((string * t) list, string) result

  (** Full nested JSON values — JSON documents such as the benchmark
      declaration or an exported Chrome trace. *)
  type v =
    | VNull
    | VBool of bool
    | VNum of float
    | VStr of string
    | VArr of v list
    | VObj of (string * v) list

  val parse : string -> (v, string) result

  (** Compact single-line rendering; inverse of {!parse} up to float
      formatting. *)
  val to_string : v -> string

  (** Field lookup on a [VObj]; [None] otherwise. *)
  val mem : string -> v -> v option

  val to_float : v -> float option

  val to_str : v -> string option
end

module Summary : sig
  type row = {
    row_phase : string;
    self_seconds : float;   (** duration minus nested child spans *)
    total_seconds : float;  (** inclusive duration *)
    row_spans : int;
    max_seconds : float;    (** longest single span *)
    row_hist : int array;   (** log2-µs histogram of inclusive durations —
                                feed to {!estimate_quantile} for p50/p95/p99 *)
  }

  type t = {
    wall : float;              (** last event t - first event t *)
    attributed : float;        (** fraction of wall covered by root spans
                                   (begun on an empty span stack) *)
    rows : row list;           (** phases in first-seen order *)
    counters : (string * int) list;
    verdicts : (string * int) list;  (** solver verdict -> count *)
    events : int;
    kinds : (string * int) list;     (** event kind -> count *)
    sites : (string * row) list;
        (** spans that carried a call site: (site, row of that site's
            spans of phase [row_phase]), in first-seen order *)
  }

  (** Compute per-phase self-time from parsed events (file order), nesting
      every span on one stack; a ["tid"] field, which older traces carry,
      is ignored. Spans left open (e.g. the run was killed) are closed at
      the last timestamp. *)
  val of_events : (string * Json.t) list list -> t

  (** Read and summarize a JSONL trace file. *)
  val load : string -> (t, string) result
end

module Chrome : sig
  (** Convert a JSONL trace to a Chrome trace-event JSON file
      ([{"traceEvents":[...]}]) loadable in Perfetto / about://tracing. *)
  val export : src:string -> dst:string -> (unit, string) result

end
