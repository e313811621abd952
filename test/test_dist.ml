(* The multi-process search: lease-table fencing, heartbeat expiry and
   reassignment, the coordinator/worker protocol end to end (on
   in-process domain workers), checkpoint corruption guards, and digest
   equality against undisturbed single-process runs under worker kills,
   duplicate-lease races, coordinator restart, and reassignment-budget
   exhaustion. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
module Dist = Achilles_dist
module Table = Dist.Lease.Table

(* --- the lease table: fencing, expiry, budget -------------------------------- *)

let test_table_fencing_race () =
  let t = Table.create ~shards:4 ~budget:5 in
  (* worker 0 leases shard 0, goes quiet, the lease expires, worker 1 is
     granted the same shard: both finish, only the current token merges *)
  let s0, tok0 =
    match Table.grant t ~now:0. ~ttl:1.0 ~worker:0 with
    | Some g -> g
    | None -> Alcotest.fail "expected a grant"
  in
  Alcotest.(check int) "first shard" 0 s0;
  let expired = Table.expire t ~now:2.0 in
  Alcotest.(check int) "one lease expired" 1 (List.length expired);
  let s1, tok1 =
    match Table.grant t ~now:2.0 ~ttl:1.0 ~worker:1 with
    | Some g -> g
    | None -> Alcotest.fail "expected a re-grant"
  in
  Alcotest.(check int) "same shard re-granted" 0 s1;
  Alcotest.(check bool) "fencing token strictly larger" true (tok1 > tok0);
  (* the stale worker finishes first: rejected *)
  Alcotest.(check bool) "stale completion rejected" true
    (Table.complete t ~shard:0 ~token:tok0 = `Stale);
  Alcotest.(check bool) "current completion accepted" true
    (Table.complete t ~shard:0 ~token:tok1 = `Accepted);
  (* duplicate and late messages can never merge twice *)
  Alcotest.(check bool) "duplicate completion rejected" true
    (Table.complete t ~shard:0 ~token:tok1 = `Stale);
  Alcotest.(check bool) "stale-after-done rejected" true
    (Table.complete t ~shard:0 ~token:tok0 = `Stale)

let test_table_heartbeat_renewal () =
  let t = Table.create ~shards:1 ~budget:3 in
  let shard, token =
    match Table.grant t ~now:0. ~ttl:1.0 ~worker:7 with
    | Some g -> g
    | None -> Alcotest.fail "expected a grant"
  in
  Alcotest.(check bool) "renewal accepted" true
    (Table.renew t ~now:0.9 ~ttl:1.0 ~worker:7 ~shard ~token = `Renewed);
  (* renewed at 0.9 with ttl 1.0: alive until 1.9 *)
  Alcotest.(check int) "not expired yet" 0
    (List.length (Table.expire t ~now:1.5));
  Alcotest.(check int) "expired once heartbeats stop" 1
    (List.length (Table.expire t ~now:2.0));
  Alcotest.(check bool) "stale renewal after expiry" true
    (Table.renew t ~now:2.0 ~ttl:1.0 ~worker:7 ~shard ~token = `Stale);
  (* wrong worker with the right token is also stale *)
  let shard, token =
    match Table.grant t ~now:2.0 ~ttl:1.0 ~worker:7 with
    | Some g -> g
    | None -> Alcotest.fail "expected a re-grant"
  in
  Alcotest.(check bool) "renewal from the wrong worker rejected" true
    (Table.renew t ~now:2.1 ~ttl:1.0 ~worker:8 ~shard ~token = `Stale)

let test_table_budget_exhaustion () =
  let t = Table.create ~shards:2 ~budget:2 in
  (* burn shard 0's two assignments *)
  for _ = 1 to 2 do
    match Table.grant t ~now:0. ~ttl:1.0 ~worker:0 with
    | Some (0, token) -> (
        match Table.fail t ~shard:0 ~token with
        | `Reassignable | `Exhausted -> ()
        | `Stale -> Alcotest.fail "live lease reported stale")
    | _ -> Alcotest.fail "expected shard 0"
  done;
  Alcotest.(check bool) "shard 0 degraded to uncovered" true
    (Table.state t 0 = Table.Uncovered);
  (* the next grant skips it and serves shard 1 *)
  (match Table.grant t ~now:0. ~ttl:1.0 ~worker:1 with
  | Some (1, token) ->
      Alcotest.(check bool) "shard 1 completes" true
        (Table.complete t ~shard:1 ~token = `Accepted)
  | _ -> Alcotest.fail "expected shard 1");
  Alcotest.(check (list int)) "uncovered reported, never dropped" [ 0 ]
    (Table.uncovered t);
  Alcotest.(check bool) "settled: done + uncovered" true (Table.settled t);
  Alcotest.(check int) "reassignment accounting" 1 (Table.reassignments t)

let test_table_release_worker () =
  let t = Table.create ~shards:4 ~budget:3 in
  ignore (Table.grant t ~now:0. ~ttl:5.0 ~worker:0);
  ignore (Table.grant t ~now:0. ~ttl:5.0 ~worker:1);
  ignore (Table.grant t ~now:0. ~ttl:5.0 ~worker:0);
  let released = Table.release_worker t ~worker:0 in
  Alcotest.(check int) "both of worker 0's leases released" 2
    (List.length released);
  Alcotest.(check int) "worker 1 untouched" 1 (Table.leased_count t);
  Alcotest.(check int) "released shards pending again" 3 (Table.pending_count t)

(* Random op storms: whatever the interleaving of grants, completions with
   arbitrary tokens, failures, and expiries, (a) a shard merges at most
   once, ever; (b) granted fencing tokens strictly increase per shard;
   (c) shard states only move forward into Done/Uncovered, never out. *)
let qcheck_table_invariants =
  QCheck2.Test.make ~name:"lease table invariants under random op storms"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup3 (int_range 0 3) (int_range 0 3) (int_range 0 9)))
    (fun ops ->
      let shards = 3 in
      let t = Table.create ~shards ~budget:3 in
      let accepted = Array.make shards 0 in
      let last_granted = Array.make shards 0 in
      let terminal = Array.make shards false in
      let now = ref 0. in
      List.for_all
        (fun (op, shard, token) ->
          now := !now +. 0.05;
          let ok =
            match op with
            | 0 -> (
                match Table.grant t ~now:!now ~ttl:0.3 ~worker:token with
                | Some (s, tok) ->
                    let fresh = tok > last_granted.(s) in
                    last_granted.(s) <- tok;
                    fresh && not terminal.(s)
                | None -> true)
            | 1 -> (
                match Table.complete t ~shard ~token with
                | `Accepted ->
                    accepted.(shard) <- accepted.(shard) + 1;
                    accepted.(shard) <= 1
                | `Stale -> true)
            | 2 -> (
                match Table.fail t ~shard ~token with
                | `Reassignable | `Exhausted | `Stale -> true)
            | _ ->
                now := !now +. 0.5;
                ignore (Table.expire t ~now:!now);
                true
          in
          for s = 0 to shards - 1 do
            match Table.state t s with
            | Table.Done _ | Table.Uncovered -> terminal.(s) <- true
            | _ -> assert (not terminal.(s))
            (* forward-only: a terminal shard never reopens *)
          done;
          ok)
        ops)

(* --- generated client/server pairs (same shape as the robustness suite) ------ *)

let message_size = 3
let layout = Layout.make ~name:"dist" [ ("tag", 1); ("a", 1); ("b", 1) ]

type tree =
  | Leaf of bool
  | Node of { field : int; op : int; konst : int; t : tree; f : tree }

type field_spec = Fconst of int | Fbounded of int

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_range 1 3) @@ fix (fun self depth ->
        let leaf = map (fun b -> Leaf b) bool in
        if depth = 0 then leaf
        else
          frequency
            [
              (1, leaf);
              ( 3,
                let* field = int_range 0 (message_size - 1) in
                let* op = int_range 0 3 in
                let* konst = int_range 0 7 in
                let* t = self (depth - 1) in
                let* f = self (depth - 1) in
                return (Node { field; op; konst; t; f }) );
            ]))

let client_gen =
  QCheck2.Gen.(
    list_size (int_range 1 2)
      (list_repeat message_size
         (oneof
            [
              map (fun c -> Fconst c) (int_range 0 7);
              map (fun hi -> Fbounded hi) (int_range 0 7);
            ])))

let case_gen = QCheck2.Gen.pair tree_gen client_gen

let server_of_tree tree =
  let open Builder in
  let labels = ref 0 in
  let next () =
    incr labels;
    string_of_int !labels
  in
  let rec block = function
    | Leaf true -> [ mark_accept ("ok" ^ next ()) ]
    | Leaf false -> [ mark_reject ("no" ^ next ()) ]
    | Node { field; op; konst; t; f } ->
        let byte = load "msg" (i8 field) in
        let cond =
          match op with
          | 0 -> byte =: i8 konst
          | 1 -> byte <>: i8 konst
          | 2 -> byte <: i8 konst
          | _ -> byte >: i8 konst
        in
        [ if_ cond (block t) (block f) ]
  in
  prog "dist-server"
    ~buffers:[ ("msg", message_size) ]
    (receive "msg" :: block tree)

let client_of_spec idx spec =
  let open Builder in
  let body =
    List.concat
      (List.mapi
         (fun i fs ->
           match fs with
           | Fconst c -> [ store "msg" (i8 i) (i8 c) ]
           | Fbounded hi ->
               let name = Printf.sprintf "din%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog
    (Printf.sprintf "dist-client%d" idx)
    ~buffers:[ ("msg", message_size) ]
    body

let extract_case (tree, client_specs) =
  let server = server_of_tree tree in
  let clients = List.mapi client_of_spec client_specs in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ = Client_extract.extract ~layout clients in
  (client, server, Term.fresh_counter_value ())

let run_case ?(config = Search.default_config) ~base client server =
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  Search.run ~config ~client ~server ()

let fixed_case =
  ( Node
      {
        field = 0;
        op = 2;
        konst = 4;
        t = Node { field = 1; op = 0; konst = 2; t = Leaf true; f = Leaf false };
        f = Leaf true;
      },
    [ [ Fbounded 5; Fconst 2; Fbounded 3 ]; [ Fconst 1; Fbounded 6; Fconst 0 ] ]
  )

(* --- workdir plumbing --------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_workdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* One distributed run on in-process domain workers: the full protocol
   (mailboxes, leases, fencing tokens, token-suffixed checkpoints), with
   process isolation simulated by Worker.Killed at poll granularity. *)
let dist_run ?(workers = 3) ?(fault_rate = 0.) ?(fault_seed = 1)
    ?(heartbeat = 0.002) ?(ttl = 1.0) ?(budget = 50) ?(max_respawns = 500)
    ?(cancel = fun () -> false) ?(chaos = None) ~workdir ~base client server =
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let config = { Search.default_config with Search.domains = 4; Search.chaos = chaos } in
  let job = Dist.Worker.job_of ~config ~client ~server () in
  let params =
    {
      Dist.Worker.heartbeat_interval = heartbeat;
      snapshot_interval = 0.01;
      poll_sleep = 0.002;
      orphan_timeout = 30.0;
      fault_rate;
      fault_seed;
    }
  in
  let ccfg =
    {
      Dist.Coordinator.c_workers = workers;
      Dist.Coordinator.c_lease_ttl = ttl;
      Dist.Coordinator.c_reassign_budget = budget;
      Dist.Coordinator.c_max_respawns = max_respawns;
      Dist.Coordinator.c_backoff = (fun _ -> 0.003);
      Dist.Coordinator.c_drain_grace = 10.0;
      Dist.Coordinator.c_tick = 0.002;
      Dist.Coordinator.c_cancel = cancel;
      Dist.Coordinator.c_status_interval = 0.05;
    }
  in
  let spawn = Dist.Coordinator.domain_spawner ~workdir ~job ~params () in
  Dist.Coordinator.run ~config:ccfg ~workdir ~job ~spawn ()

(* --- end-to-end digest equality ---------------------------------------------- *)

let test_dist_matches_single_process () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let workdir = fresh_workdir "achilles-dist-basic" in
  let report = dist_run ~workdir ~base client server in
  rm_rf workdir;
  Alcotest.(check bool) "coverage complete" true
    (Search.coverage_complete report.Search.coverage);
  Alcotest.(check string) "digest identical to single-process"
    (Report.report_digest clean)
    (Report.report_digest report)

let qcheck_dist_kill_at_any_point =
  QCheck2.Test.make
    ~name:"worker kills at any poll: digest identical to the no-fault run"
    ~count:6
    QCheck2.Gen.(pair case_gen (int_range 0 1000))
    (fun (case, seed) ->
      let client, server, base = extract_case case in
      let clean = run_case ~base client server in
      if not (Search.coverage_complete clean.Search.coverage) then false
      else begin
        let workdir = fresh_workdir "achilles-dist-kill" in
        let report =
          (* heartbeat every poll makes every branch constraint a
             potential death site; the generous budget means kills can
             never exhaust a shard, so the run must still complete *)
          dist_run ~fault_rate:0.2 ~fault_seed:seed ~heartbeat:0.0
            ~workdir ~base client server
        in
        rm_rf workdir;
        Search.coverage_complete report.Search.coverage
        && Report.report_digest report = Report.report_digest clean
      end)

(* Duplicate-lease race, end to end: a worker sleeps through its TTL
   mid-shard (as a wedged solver would), the shard is reassigned and
   completed by a rival, then the sleeper finishes late. Its stale
   checkpoint must not merge — the digest stays identical. *)
let test_dist_expiry_race_fencing () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let workdir = fresh_workdir "achilles-dist-race" in
  let slept = Atomic.make false in
  let chaos =
    Some
      (fun ~shard_index ~attempt:_ ->
        if shard_index = 2 && not (Atomic.exchange slept true) then
          Unix.sleepf 1.2 (* > ttl: lease expires mid-shard *))
  in
  let report = dist_run ~ttl:0.4 ~chaos ~workdir ~base client server in
  rm_rf workdir;
  Alcotest.(check bool) "coverage complete" true
    (Search.coverage_complete report.Search.coverage);
  Alcotest.(check bool) "the shard really was reassigned" true
    (report.Search.coverage.Search.shard_retry_attempts >= 1);
  Alcotest.(check string) "stale completion never merged: digest identical"
    (Report.report_digest clean)
    (Report.report_digest report)

exception Shard_crash

let test_dist_budget_exhaustion_uncovered () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let workdir = fresh_workdir "achilles-dist-budget" in
  let chaos =
    Some
      (fun ~shard_index ~attempt:_ ->
        if shard_index = 1 then raise Shard_crash)
  in
  let report = dist_run ~budget:2 ~chaos ~workdir ~base client server in
  rm_rf workdir;
  let c = report.Search.coverage in
  Alcotest.(check (list int)) "hopeless shard reported uncovered" [ 1 ]
    c.Search.failed_shards;
  Alcotest.(check int) "every other shard completed"
    (c.Search.total_shards - 1)
    c.Search.completed_shards;
  Alcotest.(check bool) "coverage honest: partial" false
    (Search.coverage_complete c);
  Alcotest.(check bool) "partial digest differs from complete" true
    (Report.report_digest clean <> Report.report_digest report)

let test_dist_coordinator_restart_resumes () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let digest = Report.report_digest clean in
  let workdir = fresh_workdir "achilles-dist-restart" in
  (* run 1: the coordinator is cancelled after a few shards start; the
     graceful drain lets in-flight shards flush their checkpoints *)
  let attempts = Atomic.make 0 in
  let chaos =
    Some (fun ~shard_index:_ ~attempt:_ -> Atomic.incr attempts)
  in
  let partial =
    dist_run ~chaos
      ~cancel:(fun () -> Atomic.get attempts >= 4)
      ~workdir ~base client server
  in
  let c = partial.Search.coverage in
  Alcotest.(check bool) "run 1 interrupted" true c.Search.interrupted;
  Alcotest.(check bool) "run 1 flushed some shards" true
    (c.Search.completed_shards >= 1);
  Alcotest.(check bool) "run 1 incomplete" true
    (c.Search.completed_shards < c.Search.total_shards);
  (* run 2: a fresh coordinator on the same workdir picks the completed
     shards up from disk and finishes the rest *)
  let resumed = dist_run ~workdir ~base client server in
  let c2 = resumed.Search.coverage in
  Alcotest.(check bool) "run 2 complete" true (Search.coverage_complete c2);
  Alcotest.(check int) "run 1's shards resumed, not re-explored"
    c.Search.completed_shards c2.Search.resumed_shards;
  Alcotest.(check string) "restart-resumed digest byte-identical" digest
    (Report.report_digest resumed);
  (* run 3: corrupt one checkpoint on disk; the restart treats it as
     missing, re-explores that shard, and still reproduces the digest *)
  let shards_dir = Dist.Lease.shards_dir workdir in
  let victim =
    Filename.concat shards_dir
      (List.find
         (fun f -> Filename.check_suffix f ".ckpt")
         (Array.to_list (Sys.readdir shards_dir)))
  in
  let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 victim in
  output_string oc "torn";
  close_out oc;
  let healed = dist_run ~workdir ~base client server in
  rm_rf workdir;
  Alcotest.(check bool) "run 3 complete despite corrupt checkpoint" true
    (Search.coverage_complete healed.Search.coverage);
  Alcotest.(check string) "corrupt checkpoint recomputed: digest identical"
    digest
    (Report.report_digest healed)

(* --- checkpoint durability guards (satellites) -------------------------------- *)

let explore_one_shard ~config ~base client server =
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let bits = Search.Shards.split_bits config in
  let out, _ =
    Search.Shards.explore ~config ~different_from:None ~client ~server ~bits
      ~base ~started:(Unix.gettimeofday ()) 0
  in
  match out with
  | Some out -> (bits, out)
  | None -> Alcotest.fail "shard exploration was cancelled?"

let test_checkpoint_corruption_guards () =
  let client, server, base = extract_case fixed_case in
  let config = { Search.default_config with Search.domains = 4 } in
  let _, out = explore_one_shard ~config ~base client server in
  let dir = fresh_workdir "achilles-dist-ckpt" in
  let file = Filename.concat dir "shard-0000.ckpt" in
  let fingerprint = "test-fingerprint" in
  Search.Shards.write ~file ~fingerprint ~idx:0 out;
  Alcotest.(check bool) "pristine checkpoint loads" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 <> None);
  Alcotest.(check bool) "wrong fingerprint rejected" true
    (Search.Shards.load ~file ~fingerprint:"other" ~idx:0 = None);
  Alcotest.(check bool) "wrong shard index rejected" true
    (Search.Shards.load ~file ~fingerprint ~idx:1 = None);
  let size = (Unix.stat file).Unix.st_size in
  (* truncation (a torn write surviving a crash) *)
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size / 2);
  Unix.close fd;
  Alcotest.(check bool) "truncated checkpoint treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  (* bad magic / junk header *)
  let oc = open_out_bin file in
  output_string oc "NOT-A-CHECKPOINT-AT-ALL";
  close_out oc;
  Alcotest.(check bool) "bad magic treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  (* empty file *)
  let oc = open_out_bin file in
  close_out oc;
  Alcotest.(check bool) "empty file treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  (* flipped payload byte: caught by the payload digest *)
  Search.Shards.write ~file ~fingerprint ~idx:0 out;
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  Alcotest.(check bool) "corrupted payload treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  rm_rf dir

let test_stale_tmp_cleanup () =
  let dir = fresh_workdir "achilles-dist-tmp" in
  let junk = Filename.concat dir "shard-0000.ckpt.tmp.12345.0" in
  let oc = open_out_bin junk in
  output_string oc "half-written by a killed worker";
  close_out oc;
  let keep = Filename.concat dir "shard-0001.ckpt" in
  let oc = open_out_bin keep in
  output_string oc "not actually loadable, but not tmp either";
  close_out oc;
  Search.Shards.prepare_dir dir;
  Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists junk);
  Alcotest.(check bool) "real files kept" true (Sys.file_exists keep);
  rm_rf dir

(* --- telemetry: snapshot wire messages and status.json ------------------------- *)

module Obs = Achilles_obs.Obs

let test_snapshot_wire_roundtrip () =
  let zero () = Array.make Obs.histogram_buckets 0 in
  let histogram = zero () in
  histogram.(3) <- 5;
  let snap =
    {
      Obs.phases =
        List.map
          (fun p ->
            if p = Obs.Solver_query then
              (p, { Obs.spans = 5; seconds = 0.25; histogram })
            else (p, { Obs.spans = 0; seconds = 0.; histogram = zero () }))
          Obs.all_phases;
      counters = [ ("solver.queries", 5); ("dist.shards.completed", 2) ];
    }
  in
  let msg = Dist.Lease.Snapshot { wid = 3; shard = -1; snap } in
  (* the snapshot body is multi-line: the mailbox codec must carry it as
     one message *)
  (match Dist.Lease.parse_to_coordinator (Dist.Lease.encode_to_coordinator msg) with
  | Some (Dist.Lease.Snapshot { wid; shard; snap = snap' }) ->
      Alcotest.(check int) "wid carried" 3 wid;
      Alcotest.(check int) "idle shard carried" (-1) shard;
      let solver = List.assoc Obs.Solver_query snap'.Obs.phases in
      Alcotest.(check int) "spans carried" 5 solver.Obs.spans;
      Alcotest.(check (float 0.)) "seconds carried" 0.25 solver.Obs.seconds;
      Alcotest.(check int) "histogram carried" 5 solver.Obs.histogram.(3);
      Alcotest.(check (list (pair string int))) "counters carried"
        [ ("dist.shards.completed", 2); ("solver.queries", 5) ]
        snap'.Obs.counters
  | Some _ -> Alcotest.fail "snapshot message parsed as something else"
  | None -> Alcotest.fail "snapshot message did not parse");
  (* a held shard id round-trips too *)
  match
    Dist.Lease.parse_to_coordinator
      (Dist.Lease.encode_to_coordinator
         (Dist.Lease.Snapshot { wid = 0; shard = 6; snap = Obs.Snapshot.empty () }))
  with
  | Some (Dist.Lease.Snapshot { shard = 6; _ }) -> ()
  | _ -> Alcotest.fail "held-shard snapshot did not round-trip"

let test_status_file () =
  let client, server, base = extract_case fixed_case in
  let workdir = fresh_workdir "achilles-dist-status" in
  (* the coordinator stamps the process identity's run id into status.json *)
  let saved_run, saved_proc = Obs.identity () in
  Obs.set_identity ~run_id:(Obs.fresh_run_id ()) ~proc:"coordinator";
  let report = dist_run ~workdir ~base client server in
  Obs.set_identity ~run_id:saved_run ~proc:saved_proc;
  let st =
    match Dist.Status.load ~workdir with
    | Ok st -> st
    | Error e -> Alcotest.fail ("status.json unreadable: " ^ e)
  in
  rm_rf workdir;
  let c = report.Search.coverage in
  Alcotest.(check string) "final state is done" "done" st.Dist.Status.s_state;
  Alcotest.(check bool) "run id stamped" true (st.Dist.Status.s_run_id <> "");
  Alcotest.(check int) "shard total matches the report" c.Search.total_shards
    st.Dist.Status.s_shards_total;
  Alcotest.(check int) "every shard accounted for" st.Dist.Status.s_shards_total
    (st.Dist.Status.s_done + st.Dist.Status.s_leased
   + st.Dist.Status.s_pending + st.Dist.Status.s_uncovered);
  Alcotest.(check int) "all shards done" c.Search.completed_shards
    st.Dist.Status.s_done;
  Alcotest.(check int) "nothing leased after the run" 0
    st.Dist.Status.s_leased;
  Alcotest.(check bool) "timestamps ordered" true
    (st.Dist.Status.s_updated >= st.Dist.Status.s_started);
  Alcotest.(check bool) "workers tracked" true
    (st.Dist.Status.s_workers <> []);
  List.iter
    (fun (w : Dist.Status.worker) ->
      Alcotest.(check bool) "worker was seen" true (w.Dist.Status.w_last_seen > 0.))
    st.Dist.Status.s_workers;
  (* the JSON codec round-trips the loaded status *)
  (match Dist.Status.of_json (Dist.Status.to_json st) with
  | Error e -> Alcotest.fail ("status JSON round-trip failed: " ^ e)
  | Ok st' ->
      Alcotest.(check string) "round-trip run id" st.Dist.Status.s_run_id
        st'.Dist.Status.s_run_id;
      Alcotest.(check int) "round-trip done count" st.Dist.Status.s_done
        st'.Dist.Status.s_done;
      Alcotest.(check int) "round-trip worker count"
        (List.length st.Dist.Status.s_workers)
        (List.length st'.Dist.Status.s_workers));
  (* the human rendering works and mentions the final state *)
  let rendered =
    Format.asprintf "%a"
      (Dist.Status.pp ~now:(st.Dist.Status.s_updated +. 1.0))
      st
  in
  let contains needle =
    let nl = String.length needle and l = String.length rendered in
    let rec go i =
      i + nl <= l && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "rendering mentions the state" true (contains "done");
  Alcotest.(check bool) "rendering mentions shards" true (contains "shards")

(* --- real worker processes (the CLI round trip) -------------------------------- *)

let cli_binary () =
  let candidate =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/achilles_cli.exe"
  in
  if Sys.file_exists candidate then Some candidate else None

let run_cli binary args =
  let out = Filename.temp_file "achilles-dist-cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process binary
      (Array.of_list (binary :: args))
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let ic = open_in out in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove out;
  (status, content)

let digest_of_output content =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "report digest" ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' content)

let test_real_worker_processes () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let status1, out1 = run_cli binary [ "analyze"; "rw"; "--digest" ] in
      Alcotest.(check bool) "single-process run exits 0" true
        (status1 = Unix.WEXITED 0);
      let workdir = fresh_workdir "achilles-dist-proc" in
      let status2, out2 =
        run_cli binary
          [
            "analyze"; "rw"; "--digest"; "--workers"; "2"; "--work-dir";
            workdir; "--lease-ttl"; "5";
          ]
      in
      rm_rf workdir;
      Alcotest.(check bool) "distributed run exits 0" true
        (status2 = Unix.WEXITED 0);
      match (digest_of_output out1, digest_of_output out2) with
      | Some d1, Some d2 ->
          Alcotest.(check string)
            "real worker processes reproduce the single-process digest" d1 d2
      | _ -> Alcotest.fail "no report digest in CLI output"

(* Worker processes must flush their trace sinks on EVERY exit path —
   including the fault-injected hard kill (_exit) — so each
   trace-worker-NNN.eN.jsonl left in the workdir is whole-line JSONL that
   summarize and merge can read. Fault injection forces kills + respawns;
   the epoch suffix keeps each incarnation's stream separate. *)
let test_worker_traces_flushed () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let workdir = fresh_workdir "achilles-dist-traces" in
      let coord_trace = Filename.concat workdir "coordinator.jsonl" in
      Unix.putenv "ACHILLES_WORKER_FAULT_RATE" "0.2";
      Unix.putenv "ACHILLES_WORKER_FAULT_SEED" "7";
      Unix.putenv "ACHILLES_HEARTBEAT_INTERVAL" "0.05";
      let status, _out =
        run_cli binary
          [
            "analyze"; "rw"; "--digest"; "--workers"; "2"; "--work-dir";
            workdir; "--lease-ttl"; "5"; "--reassign-budget"; "50";
            "--trace"; coord_trace;
          ]
      in
      Unix.putenv "ACHILLES_WORKER_FAULT_RATE" "0";
      Unix.putenv "ACHILLES_HEARTBEAT_INTERVAL" "0.5";
      (* kills may or may not exhaust the respawn budget depending on
         timing; either a complete (0) or partial (3) run must still leave
         clean traces behind *)
      Alcotest.(check bool) "run exited with a report" true
        (status = Unix.WEXITED 0 || status = Unix.WEXITED 3);
      let worker_traces =
        Sys.readdir workdir |> Array.to_list
        |> List.filter (fun f ->
               String.length f >= 12
               && String.sub f 0 12 = "trace-worker"
               && Filename.check_suffix f ".jsonl")
        |> List.map (Filename.concat workdir)
      in
      Alcotest.(check bool) "workers left trace files" true
        (worker_traces <> []);
      (* every stream — coordinator and each worker incarnation — is
         parseable to the last line and stamped with the same run id *)
      let run_id_of path =
        match Obs.Summary.load path with
        | Error e -> Alcotest.failf "%s unreadable: %s" path e
        | Ok s ->
            Alcotest.(check bool)
              (Printf.sprintf "%s has events" (Filename.basename path))
              true (s.Obs.Summary.events > 0);
            let ic = open_in path in
            let first = input_line ic in
            close_in ic;
            (match Obs.Json.parse_line first with
            | Ok fields -> (
                match
                  ( List.assoc_opt "name" fields,
                    List.assoc_opt "run_id" fields )
                with
                | Some (Obs.Json.Str "trace_start"), Some (Obs.Json.Str id) ->
                    id
                | _ ->
                    Alcotest.failf "%s: first line is not a trace_start stamp"
                      path)
            | Error e -> Alcotest.failf "%s: meta line unparseable: %s" path e)
      in
      let coord_id = run_id_of coord_trace in
      List.iter
        (fun path ->
          Alcotest.(check string)
            (Printf.sprintf "%s shares the run id" (Filename.basename path))
            coord_id (run_id_of path))
        worker_traces;
      (* the streams merge into one run_id-correlated timeline *)
      let merged = Filename.concat workdir "merged.json" in
      (match Obs.Chrome.merge ~srcs:(coord_trace :: worker_traces) ~dst:merged with
      | Error e -> Alcotest.fail ("trace merge failed: " ^ e)
      | Ok (n, run_id) ->
          Alcotest.(check int) "all streams merged"
            (1 + List.length worker_traces)
            n;
          Alcotest.(check (option string)) "merge agrees on the run id"
            (Some coord_id) run_id);
      (* ... and so does the CLI's `trace merge`, into valid Chrome JSON *)
      let cli_merged = Filename.concat workdir "cli-merged.json" in
      let mg_status, mg_out =
        run_cli binary
          ([ "trace"; "merge"; coord_trace ] @ worker_traces
          @ [ "-o"; cli_merged ])
      in
      Alcotest.(check bool) "trace merge exits 0" true
        (mg_status = Unix.WEXITED 0);
      Alcotest.(check bool) "trace merge prints its merged line" true
        (String.length mg_out >= 7 && String.sub mg_out 0 7 = "merged ");
      (match
         Obs.Json.parse
           (In_channel.with_open_bin cli_merged In_channel.input_all)
       with
      | Ok v -> (
          match Obs.Json.mem "traceEvents" v with
          | Some (Obs.Json.VArr (_ :: _)) -> ()
          | _ -> Alcotest.fail "merged trace has no traceEvents")
      | Error e -> Alcotest.failf "merged trace is not JSON: %s" e);
      (* `achilles status` renders the same run's final picture *)
      let st_status, st_out =
        run_cli binary [ "status"; "--work-dir"; workdir ]
      in
      Alcotest.(check bool) "status exits 0" true (st_status = Unix.WEXITED 0);
      let contains needle =
        let nl = String.length needle and l = String.length st_out in
        let rec go i =
          i + nl <= l && (String.sub st_out i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "status names the run" true (contains coord_id);
      Alcotest.(check bool) "status shows shard progress" true
        (contains "shards");
      rm_rf workdir

(* Every message one process sends gets its own (pid, sequence) name
   suffix, whichever handle sends it: worker domains share the pid, and a
   shared suffix let two same-microsecond sends overwrite each other. *)
let test_mailbox_names_unique_per_process () =
  let dir = fresh_workdir "achilles-dist-mailbox" in
  let handles = List.init 3 (fun _ -> Dist.Lease.Mailbox.attach dir) in
  for i = 0 to 2 do
    List.iteri
      (fun h mb -> Dist.Lease.Mailbox.send mb (Printf.sprintf "msg %d %d" h i))
      handles
  done;
  let suffixes =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun n -> Filename.check_suffix n ".msg")
    |> List.map (fun n ->
           match String.split_on_char '-' n with
           | [ _; _; pid; seq ] -> pid ^ "-" ^ seq
           | _ -> Alcotest.failf "unexpected mailbox file name %s" n)
  in
  Alcotest.(check int) "every send left a file" 9 (List.length suffixes);
  Alcotest.(check int) "no two sends share a (pid, sequence) suffix" 9
    (List.length (List.sort_uniq compare suffixes));
  Alcotest.(check int) "every message received" 9
    (List.length (Dist.Lease.Mailbox.recv (List.hd handles)));
  rm_rf dir

let () =
  Alcotest.run "dist"
    [
      ( "lease-table",
        [
          Alcotest.test_case "fencing race" `Quick test_table_fencing_race;
          Alcotest.test_case "heartbeat renewal" `Quick
            test_table_heartbeat_renewal;
          Alcotest.test_case "budget exhaustion" `Quick
            test_table_budget_exhaustion;
          Alcotest.test_case "worker release" `Quick test_table_release_worker;
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_table_invariants;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "digest matches single-process" `Quick
            test_dist_matches_single_process;
          Alcotest.test_case "expiry race: fencing wins" `Quick
            test_dist_expiry_race_fencing;
          Alcotest.test_case "budget exhaustion reported uncovered" `Quick
            test_dist_budget_exhaustion_uncovered;
          Alcotest.test_case "coordinator restart resumes" `Quick
            test_dist_coordinator_restart_resumes;
          QCheck_alcotest.to_alcotest ~verbose:false
            qcheck_dist_kill_at_any_point;
          Alcotest.test_case "mailbox names unique per process" `Quick
            test_mailbox_names_unique_per_process;
        ] );
      ( "checkpoint-durability",
        [
          Alcotest.test_case "corruption guards" `Quick
            test_checkpoint_corruption_guards;
          Alcotest.test_case "stale tmp cleanup" `Quick test_stale_tmp_cleanup;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "snapshot wire round-trip" `Quick
            test_snapshot_wire_roundtrip;
          Alcotest.test_case "status.json after a run" `Quick test_status_file;
        ] );
      ( "worker-processes",
        [
          Alcotest.test_case "CLI round trip" `Slow test_real_worker_processes;
          Alcotest.test_case "worker traces flushed on every exit path" `Slow
            test_worker_traces_flushed;
        ] );
    ]
