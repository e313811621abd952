(** A fixed-size pool of domains with per-worker work-stealing deques.

    Built for the parallel Trojan search: batches of coarse-grained tasks
    (one route shard of the server exploration each) are distributed across
    the workers' deques; a worker runs its own deque newest-first and steals
    oldest-first from its siblings when it runs dry. Tasks must not submit
    further batches themselves — one batch is in flight at a time, submitted
    from a single coordinating domain, which works the batch as worker 0
    while it waits: a pool of size 1 runs every task inline on the caller.

    Determinism: {!parallel_map} places results by task index, so the output
    never depends on which worker ran which task or in what order tasks
    finished. *)

type t

val create : domains:int -> t
(** A pool of [domains] workers (at least 1): the submitting domain is
    worker 0 and [domains - 1] more domains are spawned. Raises
    [Invalid_argument] for [domains < 1]. *)

val size : t -> int

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element, tasks distributed over the pool; result [i]
    is [f arr.(i)]. Blocks until the whole batch has finished. If any task
    raised, the exception of the lowest-indexed failing task is re-raised
    here (with its backtrace) — after the batch has drained, so the pool
    stays usable. Raises [Invalid_argument] if the pool is shut down or a
    batch is already in flight. *)

val run_tasks : t -> (unit -> unit) array -> unit
(** [parallel_map] for effectful tasks without results. *)

type 'b outcome = {
  result : ('b, exn) result;
  attempts : int;  (** total attempts made, >= 1 *)
}

val map_with_retries :
  ?retries:int ->
  ?backoff:(int -> float) ->
  t ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** Fault-isolated [parallel_map]: a task that raises is retried in place up
    to [retries] more times (default 2), sleeping [backoff attempt] seconds
    before retry [attempt + 1] (default exponential, 50 ms doubling), and is
    recorded as [Error] once the cap is spent — the batch always completes
    and never re-raises a task exception. Raises [Invalid_argument] on
    negative [retries], a shut-down pool, or an in-flight batch. *)

val shutdown : t -> unit
(** Stop the workers and join their domains. Idempotent. Must not be called
    while a batch is in flight. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] (also on exceptions). *)
