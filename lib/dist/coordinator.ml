(* The coordinator of the multi-process search.

   It owns the lease table (Lease.Table) and the merge; workers own
   nothing but the shard they are currently leased. The event loop drains
   the inbox, expires leases, reaps and respawns worker processes with
   exponential backoff + jitter, and stops when every shard is Done or
   Uncovered (or the run is cancelled / every worker slot is permanently
   dead).

   Checkpoints are loaded and validated *before* the table accepts a
   completion, so `Done` always implies a merged event log in hand; a
   corrupt or missing checkpoint behind a Completed message is treated as
   a shard failure and reassigned within budget.

   The worker transport is injected (`spawner`), so tests and benchmarks
   can run workers as domains in this process while the CLI spawns real
   `achilles worker` processes — the protocol is identical either way. *)

module Search = Achilles_core.Search
module Obs = Achilles_obs.Obs

type worker_handle = {
  wh_poll : unit -> [ `Running | `Exited of int ];
  wh_kill : unit -> unit; (* best-effort hard kill, idempotent *)
  wh_reap : unit -> unit; (* waitpid / Domain.join, call once after exit *)
}

type spawner = wid:int -> epoch:int -> worker_handle

type config = {
  c_workers : int;
  c_lease_ttl : float;
  c_reassign_budget : int; (* max assignments per shard *)
  c_max_respawns : int; (* extra spawns per worker slot after the first *)
  c_backoff : int -> float; (* respawn delay before spawn [epoch] *)
  c_drain_grace : float; (* seconds to wait for drained workers to exit *)
  c_tick : float; (* event-loop sleep *)
  c_cancel : unit -> bool;
  c_status_interval : float; (* status.json write cadence; <= 0 disables *)
}

let default_backoff =
  (* exponential from 50 ms with +-25% jitter, capped at 5 s; the jitter
     PRNG is deliberately self-contained — respawn timing is the one
     place the run is allowed to be non-deterministic *)
  let rng = Random.State.make [| 0xd15f; 0xbac0 |] in
  fun epoch ->
    let base = min 5.0 (0.05 *. (2.0 ** float_of_int (min epoch 10))) in
    base *. (0.75 +. (Random.State.float rng 0.5))

let default_config =
  {
    c_workers = 2;
    c_lease_ttl = 10.0;
    c_reassign_budget = 5;
    c_max_respawns = 10;
    c_backoff = default_backoff;
    c_drain_grace = 5.0;
    c_tick = 0.01;
    c_cancel = (fun () -> false);
    c_status_interval = 1.0;
  }

type slot = {
  wid : int;
  mutable handle : worker_handle option;
  mutable epoch : int; (* spawns so far *)
  mutable respawn_at : float option;
  mutable gave_up : bool; (* drained, or out of respawns *)
}

(* Per-worker telemetry tracking, fed by Hello/Heartbeat/Snapshot traffic
   and mirrored into status.json. Purely observational. *)
type wtrack = {
  mutable t_pid : int; (* -1 until Hello *)
  mutable t_last_seen : float;
  mutable t_shard : int; (* -1 when idle *)
  mutable t_phase : string;
  mutable t_snap : Obs.snapshot option; (* latest cumulative snapshot *)
}

(* Where did this worker spend its time since the previous snapshot? The
   snapshots are cumulative, so the dominant phase is the largest positive
   seconds delta; a brand-new worker falls back to its largest total. *)
let dominant_phase ~prev ~cur =
  let prev_sec p =
    match prev with
    | Some s -> (
        match List.assoc_opt p s.Obs.phases with
        | Some m -> m.Obs.seconds
        | None -> 0.)
    | None -> 0.
  in
  let pick f =
    List.fold_left
      (fun (bn, bd) (p, m) ->
        let d = f p m in
        if d > bd then (Obs.phase_name p, d) else (bn, bd))
      ("", 0.) cur.Obs.phases
  in
  match pick (fun p m -> m.Obs.seconds -. prev_sec p) with
  | "", _ -> fst (pick (fun _ m -> m.Obs.seconds))
  | name, _ -> name

(* --- resume: recover fencing floor and completed shards from disk ------- *)

let scan_checkpoints workdir =
  let dir = Lease.shards_dir workdir in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             try Scanf.sscanf name "shard-%d.t%d.ckpt" (fun s t -> Some (s, t))
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let resume_from_disk table outs ~workdir ~fingerprint =
  let by_shard = Hashtbl.create 16 in
  List.iter
    (fun (shard, token) ->
      if shard >= 0 && shard < Lease.Table.n_shards table then begin
        Lease.Table.observe_token table ~shard ~token;
        Hashtbl.replace by_shard shard
          (token :: Option.value ~default:[] (Hashtbl.find_opt by_shard shard))
      end)
    (scan_checkpoints workdir);
  (* a lease file from a previous incarnation also raises the floor *)
  for shard = 0 to Lease.Table.n_shards table - 1 do
    (match Lease.read_lease ~workdir ~shard with
    | Some (token, _, _) -> Lease.Table.observe_token table ~shard ~token
    | None -> ());
    Lease.remove_lease ~workdir ~shard
  done;
  Hashtbl.iter
    (fun shard tokens ->
      let tokens = List.sort (fun a b -> compare b a) tokens in
      (* newest first; fall back on older tokens if the newest is torn *)
      List.iter
        (fun token ->
          if outs.(shard) = None then
            match
              Search.Shards.load
                ~file:(Lease.checkpoint_file ~workdir ~shard ~token)
                ~fingerprint ~idx:shard
            with
            | Some out ->
                outs.(shard) <- Some out;
                Lease.Table.mark_done_resumed table ~shard ~token;
                Lease.emit_lease_event ~name:"resumed"
                  ~args:[ ("shard", Obs.I shard); ("token", Obs.I token) ]
            | None -> ())
        tokens)
    by_shard

(* --- the event loop ------------------------------------------------------ *)

let run ?(config = default_config) ?run_id ~workdir ~job ~spawn ?manifest () =
  let job : Worker.job = job in
  let run_id =
    match run_id with Some id -> id | None -> fst (Obs.identity ())
  in
  let started = Unix.gettimeofday () in
  Lease.ensure_dir workdir;
  Lease.ensure_dir (Lease.inbox_dir workdir);
  Lease.ensure_dir (Lease.leases_dir workdir);
  (* drop any traffic left over from a previous incarnation — a stale
     Drain in an outbox would make every fresh worker quit on arrival *)
  Lease.purge_mailboxes workdir;
  (* prepare_dir also sweeps stale *.tmp.* left by killed writers *)
  Search.Shards.prepare_dir (Lease.shards_dir workdir);
  (match manifest with
  | Some content -> Lease.atomic_write ~path:(Lease.manifest_file workdir) content
  | None -> ());
  let total = 1 lsl job.Worker.j_bits in
  let table = Lease.Table.create ~shards:total ~budget:config.c_reassign_budget in
  let outs = Array.make total None in
  resume_from_disk table outs ~workdir ~fingerprint:job.Worker.j_fingerprint;
  let inbox = Lease.Mailbox.attach (Lease.inbox_dir workdir) in
  let outboxes = Hashtbl.create 8 in
  let outbox wid =
    match Hashtbl.find_opt outboxes wid with
    | Some mb -> mb
    | None ->
        let mb = Lease.Mailbox.attach (Lease.outbox_dir workdir wid) in
        Hashtbl.add outboxes wid mb;
        mb
  in
  let reply wid msg = Lease.Mailbox.send (outbox wid) (Lease.encode_to_worker msg) in
  let abandoned = ref 0 in
  let draining = ref false in
  let slots =
    Array.init config.c_workers (fun wid ->
        { wid; handle = None; epoch = 0; respawn_at = Some 0.0; gave_up = false })
  in
  let wtracks : (int, wtrack) Hashtbl.t = Hashtbl.create 8 in
  let track wid =
    match Hashtbl.find_opt wtracks wid with
    | Some t -> t
    | None ->
        let t =
          { t_pid = -1; t_last_seen = 0.; t_shard = -1; t_phase = ""; t_snap = None }
        in
        Hashtbl.add wtracks wid t;
        t
  in
  let touch ?pid ?shard wid ~now =
    let t = track wid in
    t.t_last_seen <- now;
    (match pid with Some p -> t.t_pid <- p | None -> ());
    match shard with Some s -> t.t_shard <- s | None -> ()
  in
  let last_status = ref 0. in
  let write_status ~state ~now =
    if config.c_status_interval > 0. then begin
      last_status := now;
      let merged =
        Hashtbl.fold
          (fun _ t acc ->
            match t.t_snap with
            | Some s -> Obs.Snapshot.merge acc s
            | None -> acc)
          wtracks
          (Obs.Snapshot.empty ())
      in
      let counter s name =
        Option.value ~default:0 (List.assoc_opt name s.Obs.counters)
      in
      let workers =
        Hashtbl.fold
          (fun wid t acc ->
            {
              Status.w_wid = wid;
              w_pid = t.t_pid;
              w_epoch =
                (if wid >= 0 && wid < config.c_workers then
                   max 0 (slots.(wid).epoch - 1)
                 else 0);
              w_last_seen = t.t_last_seen;
              w_shard = t.t_shard;
              w_phase = t.t_phase;
              w_queries =
                (match t.t_snap with
                | Some s -> counter s "solver.queries"
                | None -> 0);
            }
            :: acc)
          wtracks []
      in
      ignore
        (Status.save ~workdir
           {
             Status.s_run_id = run_id;
             s_state = state;
             s_updated = now;
             s_started = started;
             s_shards_total = total;
             s_done = List.length (Lease.Table.done_tokens table);
             s_leased = Lease.Table.leased_count table;
             s_pending = Lease.Table.pending_count table;
             s_uncovered = List.length (Lease.Table.uncovered table);
             s_reassignments = Lease.Table.reassignments table;
             s_queries = counter merged "solver.queries";
             s_cache_hits = counter merged "solver.cache_hits";
             s_cache_misses = counter merged "solver.cache_misses";
             s_workers = workers;
             s_counters = merged.Obs.counters;
           })
    end
  in
  let spawn_slot slot ~now:_ =
    slot.respawn_at <- None;
    match spawn ~wid:slot.wid ~epoch:slot.epoch with
    | handle ->
        Lease.emit_worker_event ~name:"spawn"
          ~args:[ ("wid", Obs.I slot.wid); ("epoch", Obs.I slot.epoch) ];
        slot.epoch <- slot.epoch + 1;
        slot.handle <- Some handle
    | exception _ ->
        (* spawner failure counts as an instant exit: backoff and retry *)
        slot.epoch <- slot.epoch + 1;
        if slot.epoch > config.c_max_respawns then slot.gave_up <- true
        else
          slot.respawn_at <-
            Some (Unix.gettimeofday () +. config.c_backoff slot.epoch)
  in
  let release_leases_of ~worker =
    List.iter
      (fun (shard, token) ->
        Lease.remove_lease ~workdir ~shard;
        Lease.emit_lease_event ~name:"released"
          ~args:
            [
              ("shard", Obs.I shard);
              ("token", Obs.I token);
              ("wid", Obs.I worker);
            ])
      (Lease.Table.release_worker table ~worker)
  in
  let start_drain () =
    if not !draining then begin
      draining := true;
      Lease.emit_worker_event ~name:"drain" ~args:[];
      Array.iter (fun slot -> reply slot.wid Lease.Drain) slots
    end
  in
  let handle_message msg =
    let now = Unix.gettimeofday () in
    match msg with
    | Lease.Hello { wid; pid } ->
        touch wid ~pid ~now;
        Lease.emit_worker_event ~name:"hello"
          ~args:[ ("wid", Obs.I wid); ("pid", Obs.I pid) ]
    | Lease.Snapshot { wid; shard; snap } ->
        let t = track wid in
        t.t_last_seen <- now;
        t.t_shard <- shard;
        t.t_phase <- dominant_phase ~prev:t.t_snap ~cur:snap;
        t.t_snap <- Some snap;
        Lease.emit_worker_event ~name:"snapshot"
          ~args:[ ("wid", Obs.I wid); ("shard", Obs.I shard) ]
    | Lease.Request { wid } ->
        touch wid ~shard:(-1) ~now;
        if !draining || wid < 0 || wid >= config.c_workers then
          (* unknown wids are strays from another incarnation: drain them *)
          reply wid Lease.Drain
        else if Lease.Table.settled table then reply wid Lease.Drain
        else begin
          match
            Lease.Table.grant table ~now ~ttl:config.c_lease_ttl ~worker:wid
          with
          | Some (shard, token) ->
              Lease.write_lease ~workdir ~shard ~token ~worker:wid
                ~deadline:(now +. config.c_lease_ttl);
              Lease.emit_lease_event ~name:"grant"
                ~args:
                  [
                    ("shard", Obs.I shard);
                    ("token", Obs.I token);
                    ("wid", Obs.I wid);
                  ];
              reply wid (Lease.Grant { shard; token })
          | None ->
              if Lease.Table.settled table then reply wid Lease.Drain
              else reply wid Lease.Wait
        end
    | Lease.Heartbeat { wid; shard; token } -> (
        touch wid ~shard ~now;
        match
          Lease.Table.renew table ~now ~ttl:config.c_lease_ttl ~worker:wid
            ~shard ~token
        with
        | `Renewed ->
            Lease.write_lease ~workdir ~shard ~token ~worker:wid
              ~deadline:(now +. config.c_lease_ttl)
        | `Stale ->
            Lease.emit_lease_event ~name:"stale_heartbeat"
              ~args:
                [
                  ("shard", Obs.I shard);
                  ("token", Obs.I token);
                  ("wid", Obs.I wid);
                ])
    | Lease.Completed { wid; shard; token } -> (
        touch wid ~shard:(-1) ~now;
        (* validate the checkpoint before the table accepts the
           completion: Done must imply a merged log in hand *)
        let loaded =
          if shard >= 0 && shard < total then
            Search.Shards.load
              ~file:(Lease.checkpoint_file ~workdir ~shard ~token)
              ~fingerprint:job.Worker.j_fingerprint ~idx:shard
          else None
        in
        match loaded with
        | Some out -> (
            match Lease.Table.complete table ~shard ~token with
            | `Accepted ->
                outs.(shard) <- Some out;
                Lease.remove_lease ~workdir ~shard;
                Lease.emit_lease_event ~name:"complete"
                  ~args:
                    [
                      ("shard", Obs.I shard);
                      ("token", Obs.I token);
                      ("wid", Obs.I wid);
                    ]
            | `Stale ->
                (* fencing: a late finish of a reassigned lease — the
                   token-suffixed checkpoint is simply never merged *)
                Lease.emit_lease_event ~name:"stale_done"
                  ~args:
                    [
                      ("shard", Obs.I shard);
                      ("token", Obs.I token);
                      ("wid", Obs.I wid);
                    ])
        | None -> (
            Lease.emit_lease_event ~name:"corrupt_done"
              ~args:[ ("shard", Obs.I shard); ("token", Obs.I token) ];
            match Lease.Table.fail table ~shard ~token with
            | `Reassignable | `Exhausted -> Lease.remove_lease ~workdir ~shard
            | `Stale -> ()))
    | Lease.Failed { wid; shard; token; abandoned = ab } -> (
        touch wid ~shard:(-1) ~now;
        abandoned := !abandoned + ab;
        match Lease.Table.fail table ~shard ~token with
        | `Reassignable ->
            Lease.remove_lease ~workdir ~shard;
            Lease.emit_lease_event ~name:"failed"
              ~args:
                [
                  ("shard", Obs.I shard);
                  ("token", Obs.I token);
                  ("wid", Obs.I wid);
                ]
        | `Exhausted ->
            Lease.remove_lease ~workdir ~shard;
            Lease.emit_lease_event ~name:"uncovered"
              ~args:[ ("shard", Obs.I shard) ]
        | `Stale -> ())
    | Lease.Bye { wid } ->
        touch wid ~now;
        if wid >= 0 && wid < config.c_workers then begin
          slots.(wid).gave_up <- true;
          Lease.emit_worker_event ~name:"worker_bye" ~args:[ ("wid", Obs.I wid) ]
        end
  in
  let handle_inbox () =
    List.iter handle_message
      (List.filter_map Lease.parse_to_coordinator (Lease.Mailbox.recv inbox))
  in
  let poll_slots ~now =
    Array.iter
      (fun slot ->
        match slot.handle with
        | None ->
            if
              (not slot.gave_up) && (not !draining)
              && (match slot.respawn_at with
                 | Some at -> at <= now
                 | None -> false)
            then spawn_slot slot ~now
        | Some h -> (
            match h.wh_poll () with
            | `Running -> ()
            | `Exited code ->
                h.wh_reap ();
                slot.handle <- None;
                Lease.emit_worker_event ~name:"exit"
                  ~args:[ ("wid", Obs.I slot.wid); ("code", Obs.I code) ];
                (* whatever the worker sent before exiting is in the inbox
                   by now: a [Completed] read after its leases are released
                   would be fenced off as stale, losing a checkpointed shard *)
                handle_inbox ();
                release_leases_of ~worker:slot.wid;
                if (not slot.gave_up) && not !draining then begin
                  if slot.epoch > config.c_max_respawns then begin
                    slot.gave_up <- true;
                    Lease.emit_worker_event ~name:"gave_up"
                      ~args:[ ("wid", Obs.I slot.wid) ]
                  end
                  else begin
                    let delay = config.c_backoff slot.epoch in
                    Lease.emit_worker_event ~name:"respawn_scheduled"
                      ~args:
                        [ ("wid", Obs.I slot.wid); ("delay", Obs.F delay) ];
                    slot.respawn_at <- Some (now +. delay)
                  end
                end))
      slots
  in
  let live_handles () =
    Array.exists (fun slot -> slot.handle <> None) slots
  in
  let all_slots_dead () =
    Array.for_all (fun slot -> slot.handle = None && slot.gave_up) slots
  in
  Obs.span Obs.Dist (fun () ->
      (* main event loop *)
      let finished = ref false in
      while not !finished do
        let now = Unix.gettimeofday () in
        handle_inbox ();
        List.iter
          (fun (shard, token, wid) ->
            Lease.remove_lease ~workdir ~shard;
            Lease.emit_lease_event ~name:"expired"
              ~args:
                [
                  ("shard", Obs.I shard);
                  ("token", Obs.I token);
                  ("wid", Obs.I wid);
                ];
            if Lease.Table.state table shard = Lease.Table.Uncovered then
              Lease.emit_lease_event ~name:"uncovered"
                ~args:[ ("shard", Obs.I shard) ])
          (Lease.Table.expire table ~now);
        poll_slots ~now;
        if
          config.c_status_interval > 0.
          && now -. !last_status >= config.c_status_interval
        then write_status ~state:"running" ~now;
        if config.c_cancel () then start_drain ();
        if Lease.Table.settled table then begin
          start_drain ();
          finished := true
        end
        else if !draining then begin
          (* cancelled: in-flight shards finish gracefully, the rest stay
             missing (interrupted coverage), exactly like in-process *)
          if not (live_handles ()) then finished := true
          else Unix.sleepf config.c_tick
        end
        else if all_slots_dead () && Lease.Table.leased_count table = 0 then begin
          (* nothing alive and nothing respawnable: whatever is still
             pending is permanently uncoverable — report it, don't spin *)
          List.iter
            (fun shard ->
              Lease.emit_lease_event ~name:"uncovered"
                ~args:[ ("shard", Obs.I shard) ])
            (Lease.Table.give_up_pending table);
          finished := true
        end
        else Unix.sleepf config.c_tick
      done;
      (* drain: give workers a grace period to exit, then hard-kill *)
      start_drain ();
      let deadline = Unix.gettimeofday () +. config.c_drain_grace in
      while live_handles () && Unix.gettimeofday () < deadline do
        (* keep consuming messages so workers blocked on a reply drain *)
        handle_inbox ();
        poll_slots ~now:(Unix.gettimeofday ());
        Array.iter
          (fun slot -> if slot.handle <> None then reply slot.wid Lease.Drain)
          slots;
        Unix.sleepf config.c_tick
      done;
      Array.iter
        (fun slot ->
          match slot.handle with
          | Some h ->
              h.wh_kill ();
              Lease.emit_worker_event ~name:"killed"
                ~args:[ ("wid", Obs.I slot.wid) ];
              let rec reap tries =
                match h.wh_poll () with
                | `Exited _ -> h.wh_reap ()
                | `Running ->
                    if tries > 0 then begin
                      Unix.sleepf 0.02;
                      reap (tries - 1)
                    end
              in
              reap 100;
              slot.handle <- None
          | None -> ())
        slots;
      (* the last workers' final messages, sent after the loop's last read *)
      handle_inbox ());
  (* final status: the run is settled (or cancelled); ages freeze here *)
  write_status ~state:"done" ~now:(Unix.gettimeofday ());
  let outs_resumed =
    List.filter_map
      (fun (shard, _token, resumed) ->
        match outs.(shard) with
        | Some out -> Some (out, resumed)
        | None -> None (* unreachable: Done implies a validated load *))
      (Lease.Table.done_tokens table)
  in
  let failed_shards = Lease.Table.uncovered table in
  let interrupted = config.c_cancel () || not (Lease.Table.settled table) in
  (* a worker's cancelled shard is a failed lease: no partial logs here *)
  Search.Shards.merge ~total ~base:job.Worker.j_base ~started ~outs_resumed
    ~partial:[] ~failed_shards ~retry_attempts:(Lease.Table.reassignments table)
    ~interrupted ~abandoned:!abandoned

(* --- spawners ------------------------------------------------------------ *)

(* Real worker processes: [argv] must be the full command line for one
   worker sans [--id]/[--epoch] (the CLI builds it around
   `achilles worker --work-dir ...`). *)
let process_spawner ~prog ~argv () ~wid ~epoch =
  let args =
    Array.append argv
      [| "--id"; string_of_int wid; "--epoch"; string_of_int epoch |]
  in
  let pid = Unix.create_process prog args Unix.stdin Unix.stdout Unix.stderr in
  let status = ref None in
  let poll () =
    match !status with
    | Some code -> `Exited code
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> `Running
        | _, Unix.WEXITED code ->
            status := Some code;
            `Exited code
        | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
            status := Some (128 + n);
            `Exited (128 + n)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            status := Some 0;
            `Exited 0)
  in
  {
    wh_poll = poll;
    wh_kill =
      (fun () ->
        if !status = None then
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    wh_reap = (fun () -> ignore (poll ()));
  }

(* In-process workers on domains: the protocol (mailboxes, leases,
   checkpoints) is exercised end to end; only process isolation is
   simulated. [die] raises {!Worker.Killed}, which unwinds the worker
   loop — death at poll granularity. *)
let domain_spawner ~workdir ~job ~params () ~wid ~epoch =
  let exited = Atomic.make None in
  let killed = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        let die () = raise Worker.Killed in
        let result =
          match
            Worker.run ~workdir ~wid ~epoch ~params
              ~die
              ~job:
                {
                  job with
                  Worker.j_config =
                    {
                      job.Worker.j_config with
                      Search.cancel =
                        (fun () ->
                          Atomic.get killed
                          || job.Worker.j_config.Search.cancel ());
                    };
                }
              ()
          with
          | () -> 0
          | exception Worker.Killed -> 137
          | exception _ -> 70
        in
        Atomic.set exited (Some result))
  in
  {
    wh_poll =
      (fun () ->
        match Atomic.get exited with
        | Some code -> `Exited code
        | None -> `Running);
    wh_kill = (fun () -> Atomic.set killed true);
    wh_reap = (fun () -> Domain.join domain);
  }
