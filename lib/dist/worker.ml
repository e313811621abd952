(* The worker side of the multi-process search: lease a shard, run the
   existing [Search] shard pipeline on it, publish the result through the
   atomic checkpoint format, repeat until drained.

   Heartbeats piggyback on the search's cancellation poll, which the
   interpreter calls at every branch constraint — no extra thread. The
   flip side is intended: a worker wedged inside a single solver query
   stops heartbeating, its lease expires, and the coordinator reassigns
   the shard to someone who can make progress.

   Fault injection ([ACHILLES_WORKER_FAULT_RATE]) kills the worker at
   heartbeat granularity with a per-(seed, wid, epoch) PRNG — the epoch
   (respawn count) is mixed in so a respawned worker does not
   deterministically die at the same poll forever. *)

module Search = Achilles_core.Search
module Obs = Achilles_obs.Obs

type job = {
  j_config : Search.config;
  j_different_from : Achilles_core.Different_from.t option;
  j_client : Achilles_core.Predicate.client_predicate;
  j_server : Achilles_symvm.Ast.program;
  j_bits : int;
  j_base : int;
  j_fingerprint : string;
}

let job_of ~config ?different_from ~client ~server () =
  let bits = Search.Shards.split_bits config in
  {
    j_config = config;
    j_different_from = different_from;
    j_client = client;
    j_server = server;
    j_bits = bits;
    j_base = Achilles_smt.Term.fresh_counter_value ();
    j_fingerprint = Search.Shards.fingerprint ~bits ~config ~client ~server;
  }

type params = {
  heartbeat_interval : float;
  snapshot_interval : float;
      (* how often to piggyback an Obs.Snapshot on the heartbeat tick;
         0 (or negative) disables telemetry snapshots entirely *)
  poll_sleep : float; (* idle-loop sleep between mailbox polls *)
  orphan_timeout : float;
      (* exit if the coordinator has been silent this long while we are
         idle and asking for work (it crashed without draining us, or it
         is restarting — long enough to ride out a restart) *)
  fault_rate : float; (* per-heartbeat-tick death probability *)
  fault_seed : int;
}

let float_env name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some f -> f | None -> default)
  | None -> default

let int_env name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> default)
  | None -> default

let params_of_env () =
  {
    heartbeat_interval = float_env "ACHILLES_HEARTBEAT_INTERVAL" 0.5;
    snapshot_interval = float_env "ACHILLES_SNAPSHOT_INTERVAL" 1.0;
    poll_sleep = 0.02;
    orphan_timeout = float_env "ACHILLES_WORKER_ORPHAN_TIMEOUT" 30.0;
    fault_rate = float_env "ACHILLES_WORKER_FAULT_RATE" 0.0;
    fault_seed = int_env "ACHILLES_WORKER_FAULT_SEED" 0;
  }

exception Killed
(* raised by the in-process [die] used in tests and benchmarks: simulates
   SIGKILL at poll granularity without taking the host process down *)

type t = {
  wid : int;
  epoch : int;
  workdir : string;
  job : job;
  negations : Search.Shards.negations; (* shared by every shard it explores *)
  params : params;
  inbox : Lease.Mailbox.t; (* to the coordinator *)
  mybox : Lease.Mailbox.t; (* from the coordinator *)
  rng : Random.State.t;
  die : unit -> unit;
  mutable drain : bool;
  mutable pending_grant : (int * int) option;
  mutable saw_wait : bool;
  mutable last_heartbeat : float;
  mutable last_snapshot : float;
}

let send w msg = Lease.Mailbox.send w.inbox (Lease.encode_to_coordinator msg)

(* The worker's cumulative metrics state: Obs.aggregate plus the solver's
   query total injected as a counter so the coordinator's status can sum
   it. *)
let telemetry_snapshot () =
  let snap = Obs.aggregate () in
  let queries =
    (Achilles_smt.Solver.aggregate_stats ()).Achilles_smt.Solver.queries
  in
  let solver_counters =
    if queries > 0 then [ ("solver.queries", queries) ] else []
  in
  {
    snap with
    Obs.counters =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (solver_counters @ snap.Obs.counters);
  }

let send_snapshot w ~shard =
  if w.params.snapshot_interval > 0. then
    send w (Lease.Snapshot { wid = w.wid; shard; snap = telemetry_snapshot () })

let snapshot_tick w ~shard ~now =
  if
    w.params.snapshot_interval > 0.
    && now -. w.last_snapshot >= w.params.snapshot_interval
  then begin
    w.last_snapshot <- now;
    send_snapshot w ~shard
  end

let maybe_die w =
  if w.params.fault_rate > 0. then
    if Random.State.float w.rng 1.0 < w.params.fault_rate then begin
      Lease.emit_worker_event ~name:"fault_kill"
        ~args:[ ("wid", Obs.I w.wid); ("epoch", Obs.I w.epoch) ];
      w.die ()
    end

(* Consume everything the coordinator sent us. At most one grant can be
   outstanding (we only request when idle), so keeping the latest is
   enough; a Drain latches. *)
let consume_mailbox w =
  List.iter
    (fun line ->
      match Lease.parse_to_worker line with
      | Some (Lease.Grant { shard; token }) ->
          w.pending_grant <- Some (shard, token)
      | Some Lease.Drain -> w.drain <- true
      | Some Lease.Wait -> w.saw_wait <- true
      | None -> ())
    (Lease.Mailbox.recv w.mybox)

(* The heartbeat tick, grafted onto the search's cancellation poll. *)
let heartbeat_tick w ~shard ~token =
  let now = Unix.gettimeofday () in
  if now -. w.last_heartbeat >= w.params.heartbeat_interval then begin
    w.last_heartbeat <- now;
    maybe_die w;
    consume_mailbox w;
    send w (Lease.Heartbeat { wid = w.wid; shard; token });
    snapshot_tick w ~shard ~now
  end

let run_shard w ~shard ~token ~started =
  let job = w.job in
  let base_cancel = job.j_config.Search.cancel in
  let config =
    {
      job.j_config with
      Search.cancel =
        (fun () ->
          heartbeat_tick w ~shard ~token;
          base_cancel ());
    }
  in
  w.last_heartbeat <- Unix.gettimeofday ();
  match
    (* the same chaos hook the in-process shard attempts honor — raising
       simulates a shard crash; here it exercises reassignment instead of
       in-place retry. [Killed] must escape: it is a (simulated) death of
       the whole worker, not a shard failure. *)
    (match job.j_config.Search.chaos with
    | Some hook -> hook ~shard_index:shard ~attempt:token
    | None -> ());
    Search.Shards.explore ~config ~different_from:job.j_different_from
      ~negations:w.negations ~client:job.j_client ~server:job.j_server
      ~bits:job.j_bits ~base:job.j_base ~started shard
  with
  | Some out, _ ->
      Search.Shards.write
        ~file:(Lease.checkpoint_file ~workdir:w.workdir ~shard ~token)
        ~fingerprint:job.j_fingerprint ~idx:shard out;
      send w (Lease.Completed { wid = w.wid; shard; token });
      Lease.emit_worker_event ~name:"shard_done"
        ~args:
          [ ("wid", Obs.I w.wid); ("shard", Obs.I shard); ("token", Obs.I token) ]
  | None, abandoned ->
      (* cancelled mid-shard: a partial log must not be merged *)
      send w (Lease.Failed { wid = w.wid; shard; token; abandoned });
      Lease.emit_worker_event ~name:"shard_abandoned"
        ~args:
          [ ("wid", Obs.I w.wid); ("shard", Obs.I shard); ("token", Obs.I token) ]
  | exception Killed -> raise Killed
  | exception _ ->
      (* a crashing shard (solver bug, full disk) fails the lease, not the
         worker: the coordinator reassigns within the shard's budget *)
      send w (Lease.Failed { wid = w.wid; shard; token; abandoned = 0 });
      Lease.emit_worker_event ~name:"shard_crashed"
        ~args:
          [ ("wid", Obs.I w.wid); ("shard", Obs.I shard); ("token", Obs.I token) ]

let run ~workdir ~wid ?(epoch = 0) ?params ?die ~job () =
  let params = match params with Some p -> p | None -> params_of_env () in
  let die =
    match die with
    | Some d -> d
    | None ->
        fun () ->
          (* _exit skips at_exit: close the trace here or a fault-injected
             kill leaves a dangling (though still line-complete) stream *)
          Obs.Trace.disable ();
          Unix._exit 137
  in
  let w =
    {
      wid;
      epoch;
      workdir;
      job;
      negations = Search.Shards.negations ();
      params;
      inbox = Lease.Mailbox.attach (Lease.inbox_dir workdir);
      mybox = Lease.Mailbox.attach (Lease.outbox_dir workdir wid);
      rng = Random.State.make [| params.fault_seed; wid; epoch; 0x5eed |];
      die;
      drain = false;
      pending_grant = None;
      saw_wait = false;
      last_heartbeat = Unix.gettimeofday ();
      last_snapshot = Unix.gettimeofday ();
    }
  in
  let started = Unix.gettimeofday () in
  Lease.emit_worker_event ~name:"start"
    ~args:[ ("wid", Obs.I wid); ("epoch", Obs.I epoch) ];
  send w (Lease.Hello { wid; pid = Unix.getpid () });
  let cancel = job.j_config.Search.cancel in
  (* Idle loop: request, poll for the reply, run grants, exit on drain,
     cancellation, or a silent coordinator. *)
  let requested = ref false in
  let last_seen = ref (Unix.gettimeofday ()) in
  let orphaned = ref false in
  while
    (not w.drain) && (not !orphaned) && not (cancel ())
  do
    consume_mailbox w;
    match w.pending_grant with
    | Some (shard, token) ->
        w.pending_grant <- None;
        requested := false;
        last_seen := Unix.gettimeofday ();
        maybe_die w;
        run_shard w ~shard ~token ~started
    | None ->
        if w.drain then ()
        else if not !requested then begin
          send w (Lease.Request { wid });
          requested := true
        end
        else begin
          Unix.sleepf params.poll_sleep;
          snapshot_tick w ~shard:(-1) ~now:(Unix.gettimeofday ());
          w.saw_wait <- false;
          consume_mailbox w;
          (* any reply (grant, wait, drain) proves the coordinator is
             alive; Wait clears [requested] so we ask again *)
          if w.saw_wait then begin
            last_seen := Unix.gettimeofday ();
            requested := false
          end
          else if w.pending_grant <> None || w.drain then
            last_seen := Unix.gettimeofday ()
          else if Unix.gettimeofday () -. !last_seen > params.orphan_timeout
          then begin
            Lease.emit_worker_event ~name:"orphaned"
              ~args:[ ("wid", Obs.I wid) ];
            orphaned := true
          end
        end
  done;
  (* final snapshot so the coordinator's status reflects finished work *)
  send_snapshot w ~shard:(-1);
  send w (Lease.Bye { wid });
  Lease.emit_worker_event ~name:"bye"
    ~args:
      [
        ("wid", Obs.I wid);
        ("drain", Obs.B w.drain);
        ("orphaned", Obs.B !orphaned);
      ]
