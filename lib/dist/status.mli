(** Atomically-updated run status for a distributed search.

    The coordinator aggregates worker telemetry snapshots (piggybacked on
    heartbeats as {!Lease.to_coordinator.Snapshot} messages) and mirrors
    the run's state to [workdir/status.json] through the atomic-write
    discipline, so [achilles status --work-dir DIR] renders a consistent
    picture of a live run — or the last known picture of a crashed one —
    without talking to any process.

    Caveat: snapshots are cumulative per {e process}. With real worker
    processes (the headline use) per-worker numbers are exact; with
    in-process domain workers (tests/benchmarks) every worker reports the
    shared process aggregate, so per-worker sums overcount. *)

val version : int

val status_file : string -> string
(** [workdir/status.json]. *)

type worker = {
  w_wid : int;
  w_pid : int;  (** [-1] when unknown *)
  w_epoch : int;  (** respawns of this slot so far *)
  w_last_seen : float;  (** epoch seconds of the last message from it *)
  w_shard : int;  (** currently leased shard, [-1] when idle *)
  w_phase : string;  (** dominant phase since its previous snapshot *)
  w_queries : int;  (** cumulative solver queries it reported *)
}

type t = {
  s_run_id : string;
  s_state : string;  (** ["running"] or ["done"] *)
  s_updated : float;
  s_started : float;
  s_shards_total : int;
  s_done : int;
  s_leased : int;
  s_pending : int;
  s_uncovered : int;
  s_reassignments : int;
  s_queries : int;
  s_workers : worker list;
  s_counters : (string * int) list;  (** merged worker counters, sorted *)
}

val queries_per_sec : t -> float

val to_json : t -> Achilles_obs.Obs.Json.v
val of_json : Achilles_obs.Obs.Json.v -> (t, string) result

val save : workdir:string -> t -> bool
(** Atomic write to {!status_file}; [false] on I/O failure (a status write
    must never take the run down). *)

val load : workdir:string -> (t, string) result

val pp : ?now:float -> Format.formatter -> t -> unit
(** Human rendering; liveness ages are relative to [now] (default: the
    current time). *)
