(* The resource-governance and fault-tolerance layer: solver budgets and
   their escalation ladder, deterministic fault injection, the sound
   degradation policies of the search (Unknown keeps things alive, never
   drops a Trojan), shard-level failure isolation, cooperative
   cancellation, and checkpoint/resume. *)

open Achilles_smt
open Achilles_core
open Achilles_targets

(* --- solver budgets and the escalation ladder ------------------------------- *)

(* A query the interval pre-check cannot settle, so it must reach the SAT
   solver; fresh variables per call keep every query distinct. *)
let hard_query () =
  let x = Term.fresh_var ~name:"rb_x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"rb_y" (Term.Bitvec 8) in
  [
    Term.eq (Term.bxor (Term.var x) (Term.var y)) (Term.int ~width:8 5);
    Term.eq (Term.add (Term.var x) (Term.var y)) (Term.int ~width:8 9);
  ]

let test_budget_exhaustion () =
  Solver.reset_all_for_tests ();
  (* conflicts = 0 answers Unknown on every rung (0 * 4 = 0), so the whole
     ladder runs and ends in an exhaustion — deterministically *)
  Solver.set_budget (Some (Solver.budget ~conflicts:0 ~escalations:2 ()));
  Fun.protect
    ~finally:(fun () -> Solver.set_budget None)
    (fun () ->
      let q = hard_query () in
      (match Solver.check q with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown under a zero conflict budget");
      Alcotest.(check bool) "is_sat false on Unknown" false (Solver.is_sat q);
      Alcotest.(check bool) "is_unsat false on Unknown" false (Solver.is_unsat q);
      let s = Solver.stats () in
      Alcotest.(check int) "x4 retries taken" (2 * 3) s.Solver.budget_escalations;
      Alcotest.(check int) "ladders exhausted" 3 s.Solver.budget_exhaustions;
      Alcotest.(check int) "final Unknowns" 3 s.Solver.unknown_results);
  (* with the budget cleared the same shape of query is decidable again *)
  match Solver.check (hard_query ()) with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected Sat without a budget"

let test_budget_generous_is_invisible () =
  Solver.reset_all_for_tests ();
  Solver.set_budget
    (Some (Solver.budget ~deadline:30. ~conflicts:1_000_000 ()));
  Fun.protect
    ~finally:(fun () -> Solver.set_budget None)
    (fun () ->
      (match Solver.check (hard_query ()) with
      | Solver.Sat _ -> ()
      | _ -> Alcotest.fail "expected Sat under a generous budget");
      let s = Solver.stats () in
      Alcotest.(check int) "no escalations" 0 s.Solver.budget_escalations;
      Alcotest.(check int) "no exhaustions" 0 s.Solver.budget_exhaustions)

let test_budget_validation () =
  (match Solver.budget ~deadline:(-1.) () with
  | _ -> Alcotest.fail "expected Invalid_argument for a negative deadline"
  | exception Invalid_argument _ -> ());
  (match Solver.budget ~conflicts:(-5) () with
  | _ -> Alcotest.fail "expected Invalid_argument for negative conflicts"
  | exception Invalid_argument _ -> ());
  match Solver.budget ~escalations:(-1) () with
  | _ -> Alcotest.fail "expected Invalid_argument for negative escalations"
  | exception Invalid_argument _ -> ()

(* The zero-budget ladder on the frame-stack route: Unknown under the
   budget, Sat once it is lifted (an Unknown must not be cached as a
   verdict). *)
let test_assuming_budget () =
  Solver.reset_all_for_tests ();
  let prev = Solver.incremental_enabled () in
  Solver.set_incremental true;
  Fun.protect ~finally:(fun () -> Solver.set_incremental prev) @@ fun () ->
  let x = Term.fresh_var ~name:"rbi_x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"rbi_y" (Term.Bitvec 8) in
  let path =
    [ Term.eq (Term.bxor (Term.var x) (Term.var y)) (Term.int ~width:8 5) ]
  in
  let q = [ Term.eq (Term.add (Term.var x) (Term.var y)) (Term.int ~width:8 9) ] in
  Solver.set_budget (Some (Solver.budget ~conflicts:0 ~escalations:1 ()));
  Fun.protect
    ~finally:(fun () -> Solver.set_budget None)
    (fun () ->
      match Solver.check_assuming ~path q with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown under a zero conflict budget");
  match Solver.check_assuming ~path q with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected Sat once the budget is lifted"

(* --- fault injection --------------------------------------------------------- *)

let test_fault_injection () =
  Solver.reset_all_for_tests ();
  Solver.set_fault_injection ~rate:1.0 ();
  Fun.protect
    ~finally:(fun () -> Solver.set_fault_injection ())
    (fun () ->
      Alcotest.(check (float 0.)) "rate readable" 1.0 (Solver.fault_rate ());
      (match Solver.check (hard_query ()) with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown at fault rate 1");
      Alcotest.(check bool) "faults counted" true
        ((Solver.stats ()).Solver.injected_faults > 0));
  Alcotest.(check (float 0.)) "off again" 0. (Solver.fault_rate ());
  (match Solver.check (hard_query ()) with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected Sat with injection off");
  match Solver.set_fault_injection ~rate:1.5 () with
  | _ -> Alcotest.fail "expected Invalid_argument for rate > 1"
  | exception Invalid_argument _ -> ()

(* An enumeration the solver gave up on is not an exhausted one: with every
   SAT attempt faulted, the classic baseline reports [exhausted = false],
   and the conformance check counts the client paths it could not finish
   instead of reporting that no lost message exists. *)
module Classic_se = Achilles_baselines.Classic_se

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let with_faults f =
  Solver.set_fault_injection ~rate:1.0 ();
  Fun.protect ~finally:(fun () -> Solver.set_fault_injection ()) f

let test_classic_se_unknown_not_exhausted () =
  Solver.reset_all_for_tests ();
  let x = Term.fresh_var ~name:"rcs_x" (Term.Bitvec 8) in
  let path =
    {
      Predicate.sp_state_id = 0;
      label = "ok";
      msg_vars = [| x |];
      sp_constraints = [ Term.ult (Term.var x) (Term.int ~width:8 3) ];
    }
  in
  let enumerate () = Classic_se.enumerate ~max_per_path:10 [ path ] in
  let clean = enumerate () in
  Alcotest.(check int) "three messages" 3
    (List.length clean.Classic_se.messages);
  Alcotest.(check bool) "clean run exhausted" true
    clean.Classic_se.exhausted;
  let faulty = with_faults enumerate in
  Alcotest.(check int) "no messages" 0
    (List.length faulty.Classic_se.messages);
  Alcotest.(check bool) "Unknown is not exhaustion" false
    faulty.Classic_se.exhausted

let test_conformance_unknown_incomplete () =
  Solver.reset_all_for_tests ();
  let client, _ =
    Client_extract.extract ~layout:Rw_example.layout [ Rw_example.client ]
  in
  let run () = Conformance.run ~client ~server:Rw_example.server () in
  let clean = run () in
  Alcotest.(check int) "clean run complete" 0 clean.Conformance.incomplete_paths;
  let faulty = with_faults run in
  Alcotest.(check bool) "accepting paths explored" true
    (faulty.Conformance.accepting_paths > 0);
  Alcotest.(check int) "every client path incomplete"
    faulty.Conformance.client_paths faulty.Conformance.incomplete_paths;
  Alcotest.(check int) "no lost message claimed" 0
    (List.length faulty.Conformance.lost);
  let printed =
    Format.asprintf "%a" (Conformance.pp_report Rw_example.layout) faulty
  in
  Alcotest.(check bool) "the report says so" true
    (contains printed "incomplete")

(* --- random client/server pairs (shared with the determinism suite) -------- *)

include Random_protocol.Make (struct
  let layout = "rob" and program = "rob" and input = "rin"
end)

(* Trojan identity across degraded runs: the accept label, which the
   generated servers make unique per accepting path. (State ids cannot be
   compared — they number states in creation order, and a degraded run
   that keeps extra states alive shifts everyone's id.) *)
let trojan_labels (r : Search.report) =
  List.sort_uniq compare
    (List.map (fun (t : Search.trojan) -> t.Search.accept_label) r.Search.trojans)

let qcheck_fault_superset =
  QCheck2.Test.make
    ~name:"injected Unknowns only ever add trojans (never drop one)" ~count:10
    case_gen
    (fun case ->
      let client, server, base = extract_case case in
      let clean = run_case ~base client server in
      if not (Search.coverage_complete clean.Search.coverage) then false
      else begin
        let clean_labels = trojan_labels clean in
        (* each chaos configuration runs on both solver routes: the default
           assumption-based frame contexts and the scratch-instance fallback
           ([Solver.set_incremental false]); degraded answers must
           over-approximate on either one *)
        let faulty_ok (split_bits, seed, incremental) =
          let prev = Solver.incremental_enabled () in
          Solver.set_fault_injection ~rate:0.3 ~seed ();
          Solver.set_incremental incremental;
          let faulty =
            Fun.protect
              ~finally:(fun () ->
                Solver.set_fault_injection ();
                Solver.set_incremental prev)
              (fun () ->
                run_case
                  ~config:
                    {
                      Search.default_config with
                      Search.split_bits = Some split_bits;
                    }
                  ~base client server)
          in
          let inc = (Solver.aggregate_stats ()).Solver.incremental_checks in
          let faulty_labels = trojan_labels faulty in
          (* the toggle really selects the route: the scratch leg must never
             touch a frame context *)
          (incremental || inc = 0)
          &&
          (* every fault-free trojan state is still reported… *)
          List.for_all (fun l -> List.mem l faulty_labels) clean_labels
          (* …faults never make coverage incomplete (they degrade answers,
             they don't lose shards)… *)
          && Search.coverage_complete faulty.Search.coverage
          (* …and a clean run's confirmed trojans stay confirmed: only a
             degraded witness query may flag one unconfirmed *)
          && List.for_all
               (fun (t : Search.trojan) ->
                 t.Search.confirmed
                 || faulty.Search.coverage.Search.unknown_witness > 0)
               faulty.Search.trojans
        in
        List.for_all faulty_ok
          [ (0, 7, true); (4, 42, true); (0, 7, false); (4, 42, false) ]
      end)

let qcheck_budget_superset =
  QCheck2.Test.make
    ~name:"a starved solver budget over-approximates, never drops" ~count:10
    case_gen
    (fun case ->
      let client, server, base = extract_case case in
      let clean = run_case ~base client server in
      let clean_labels = trojan_labels clean in
      (* starvation must stay an over-approximation on both solver routes:
         a frame context that runs out of rungs degrades exactly as soundly
         as a starved scratch instance *)
      let starved_ok incremental =
        let prev = Solver.incremental_enabled () in
        Solver.set_incremental incremental;
        let starved =
          Fun.protect
            ~finally:(fun () -> Solver.set_incremental prev)
            (fun () ->
              run_case
                ~config:
                  {
                    Search.default_config with
                    Search.solver_budget =
                      Some (Solver.budget ~conflicts:0 ~escalations:1 ());
                  }
                ~base client server)
        in
        let starved_labels = trojan_labels starved in
        List.for_all (fun l -> List.mem l starved_labels) clean_labels
        && Search.coverage_complete starved.Search.coverage
      in
      starved_ok true && starved_ok false)

(* --- shard chaos: failure isolation ------------------------------------------ *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

exception Chaos_crash

(* A shard that crashes is recorded as failed on its first attempt, and a
   resume from the run's checkpoints re-explores exactly that shard. *)
let test_chaos_crash_then_resume () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let dir = fresh_dir "achilles-rob-crash" in
  let crashed = Atomic.make false in
  let config ~resume =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
      Search.chaos =
        Some
          (fun idx ->
            if idx = 0 && Atomic.compare_and_set crashed false true then
              raise Chaos_crash);
    }
  in
  let first = run_case ~config:(config ~resume:false) ~base client server in
  let c = first.Search.coverage in
  Alcotest.(check (list int)) "shard 0 failed" [ 0 ] c.Search.failed_shards;
  Alcotest.(check bool) "coverage partial" false (Search.coverage_complete c);
  let resumed = run_case ~config:(config ~resume:true) ~base client server in
  let c' = resumed.Search.coverage in
  Alcotest.(check int) "only shard 0 re-explored" (c'.Search.total_shards - 1)
    c'.Search.resumed_shards;
  Alcotest.(check bool) "resumed coverage complete" true
    (Search.coverage_complete c');
  Alcotest.(check string) "resumed report identical to the undisturbed run"
    (Report.report_digest clean)
    (Report.report_digest resumed)

let test_chaos_shard_failure_isolated () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let config =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      Search.chaos = Some (fun idx -> if idx = 1 then raise Chaos_crash);
    }
  in
  (* the hopeless shard must not tear down the run: every other shard's
     results are delivered, the loss is reported as coverage *)
  let report = run_case ~config ~base client server in
  let c = report.Search.coverage in
  Alcotest.(check (list int)) "failed shard recorded" [ 1 ] c.Search.failed_shards;
  Alcotest.(check int) "everything else completed"
    (c.Search.total_shards - 1)
    c.Search.completed_shards;
  Alcotest.(check bool) "coverage partial" false (Search.coverage_complete c);
  Alcotest.(check bool) "partial digest differs from the complete one" true
    (Report.report_digest clean <> Report.report_digest report)

(* --- cooperative cancellation and checkpoint/resume -------------------------- *)

(* Run the built CLI with [env] on top of the test's environment: its exit
   code and stdout. *)
let run_cli ~env args =
  let binary =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/achilles_cli.exe"
  in
  let names = List.map (fun kv -> String.sub kv 0 (String.index kv '=')) env in
  let inherited =
    List.filter
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> not (List.mem (String.sub kv 0 i) names)
        | None -> true)
      (Array.to_list (Unix.environment ()))
  in
  let out = Filename.temp_file "achilles-rob-cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process_env binary
          (Array.of_list (binary :: args))
          (Array.of_list (env @ inherited))
          Unix.stdin fd Unix.stderr)
  in
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED code -> code
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (status, In_channel.with_open_bin out In_channel.input_all)

(* Each bundled target's [analyze T -w 16] report digest, plain, then
   resumed with each of the four shard checkpoints lost in turn: a lost
   shard is searched again, and its witnesses must come out as the
   undisturbed run's, so they cannot depend on what the solver saw before
   the shard. *)
let cli_resume_each_shard_lost () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "achilles-rob-cli-resume" in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let digest target args =
    let code, out =
      run_cli ~env:[]
        ([ "analyze"; target; "-w"; "16"; "--digest" ] @ args)
    in
    Alcotest.(check int) (target ^ ": exit code") 0 code;
    let prefix = "report digest: " in
    let n = String.length prefix in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = prefix)
        (String.split_on_char '\n' out)
    with
    | Some l -> String.sub l n (String.length l - n)
    | None -> Alcotest.failf "%s: no report digest" target
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  List.iter
    (fun target ->
      let plain = digest target [] in
      for lost = 0 to 3 do
        rm_rf dir;
        Alcotest.(check string)
          (Printf.sprintf "%s: checkpointed run" target)
          plain
          (digest target [ "--checkpoint-dir"; dir ]);
        Sys.remove (Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" lost));
        Alcotest.(check string)
          (Printf.sprintf "%s: resumed without shard %d" target lost)
          plain
          (digest target [ "--resume"; dir ])
      done)
    [ "rw"; "fsp"; "fsp-glob"; "pbft"; "kv"; "gossip"; "paxos" ]

let test_checkpoint_resume_identical () =
  let client, server, base = extract_case fixed_case in
  let dir = fresh_dir "achilles-rob-resume" in
  let config ~resume =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  let full = run_case ~config:(config ~resume:false) ~base client server in
  let digest = Report.report_digest full in
  let shards = Sys.readdir dir in
  Alcotest.(check int) "one checkpoint per shard"
    full.Search.coverage.Search.total_shards (Array.length shards);
  (* lose a couple of shards, as a kill -9 mid-run would *)
  Sys.remove (Filename.concat dir "shard-0001.ckpt");
  Sys.remove (Filename.concat dir "shard-0003.ckpt");
  let resumed = run_case ~config:(config ~resume:true) ~base client server in
  Alcotest.(check string) "resumed report byte-identical" digest
    (Report.report_digest resumed);
  Alcotest.(check int) "only missing shards re-explored"
    (full.Search.coverage.Search.total_shards - 2)
    resumed.Search.coverage.Search.resumed_shards;
  Alcotest.(check bool) "resumed coverage complete" true
    (Search.coverage_complete resumed.Search.coverage);
  cli_resume_each_shard_lost ()

let test_checkpoint_fingerprint_guard () =
  let client, server, base = extract_case fixed_case in
  let dir = fresh_dir "achilles-rob-fpr" in
  let config ?solver_budget ~witnesses ~resume () =
    {
      Search.default_config with
      Search.witnesses_per_path = witnesses;
      Search.solver_budget;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  (* a config change invalidates every checkpoint: nothing may be resumed
     into a run it no longer matches — a budget included, since a starved
     run's shards hold unconfirmed trojans *)
  List.iter
    (fun (what, changed) ->
      ignore
        (run_case ~config:(config ~witnesses:1 ~resume:false ()) ~base client
           server);
      let r = run_case ~config:changed ~base client server in
      Alcotest.(check int) (what ^ ": stale checkpoints ignored") 0
        r.Search.coverage.Search.resumed_shards)
    [
      ("witnesses", config ~witnesses:2 ~resume:true ());
      ( "solver budget",
        config
          ~solver_budget:(Solver.budget ~conflicts:1 ())
          ~witnesses:1 ~resume:true () );
    ]

(* Shard files of an older format must be re-explored, never loaded, even
   when everything else about them checks out: a format change may move the
   event logs (new witness bytes, other state names) while the run
   fingerprint stays the same. The stale files here carry a previous
   magic, this run's fingerprint and positions, and the payload of another
   run with a matching digest. *)
let test_checkpoint_old_magic_reexplored () =
  let client, server, base = extract_case fixed_case in
  let stale = fresh_dir "achilles-rob-stale" in
  let dir = fresh_dir "achilles-rob-magic" in
  let config ~dir ~witnesses ~resume =
    {
      Search.default_config with
      Search.witnesses_per_path = witnesses;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  ignore
    (run_case ~config:(config ~dir:stale ~witnesses:1 ~resume:false) ~base client
       server);
  let read file =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (Marshal.from_channel ic : string * string * int * Digest.t * string))
  in
  List.iter
    (fun magic ->
      let full =
        run_case ~config:(config ~dir ~witnesses:2 ~resume:false) ~base client
          server
      in
      Array.iter
        (fun f ->
          let _, fingerprint, pos, _, _ = read (Filename.concat dir f) in
          let _, _, _, digest, payload = read (Filename.concat stale f) in
          let oc = open_out_bin (Filename.concat dir f) in
          Marshal.to_channel oc (magic, fingerprint, pos, digest, payload) [];
          close_out oc)
        (Sys.readdir dir);
      let resumed =
        run_case ~config:(config ~dir ~witnesses:2 ~resume:true) ~base client
          server
      in
      Alcotest.(check int)
        (magic ^ ": no old-format shard loaded")
        0 resumed.Search.coverage.Search.resumed_shards;
      Alcotest.(check string)
        (magic ^ ": resumed report = uninterrupted run")
        (Report.report_digest full)
        (Report.report_digest resumed))
    [ "ACHILLES-CKPT-2"; "ACHILLES-CKPT-3" ]

let test_cancel_partial_then_resume () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let dir = fresh_dir "achilles-rob-cancel" in
  let calls = Atomic.make 0 in
  let interrupted_config =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      Search.checkpoint_dir = Some dir;
      (* trips partway through the run, like a SIGINT would: the flag is
         polled at every branch constraint and at shard boundaries *)
      Search.cancel = (fun () -> Atomic.fetch_and_add calls 1 >= 10);
    }
  in
  let partial = run_case ~config:interrupted_config ~base client server in
  let c = partial.Search.coverage in
  Alcotest.(check bool) "interruption reported" true c.Search.interrupted;
  Alcotest.(check bool) "not all shards completed" true
    (c.Search.completed_shards < c.Search.total_shards);
  Alcotest.(check bool) "partial run digests differently" true
    (Report.report_digest clean <> Report.report_digest partial);
  (* the flush is per completed shard: picking the run back up from the
     checkpoint directory reproduces the uninterrupted report exactly *)
  let resumed =
    run_case
      ~config:
        {
          Search.default_config with
          Search.split_bits = Some 4;
          Search.checkpoint_dir = Some dir;
          Search.resume = true;
        }
      ~base client server
  in
  Alcotest.(check string) "resume completes to the clean report"
    (Report.report_digest clean)
    (Report.report_digest resumed);
  Alcotest.(check bool) "resumed coverage complete" true
    (Search.coverage_complete resumed.Search.coverage)

(* --- one-shard runs (no checkpointing) ------------------------------------------ *)

(* A cancel still reports the Trojans found before it: the one shard's
   partial log joins the report, but the shard is not counted complete. *)
let test_interrupted_keeps_trojans () =
  let client, server, base = extract_case fixed_case in
  let polls = Atomic.make 0 in
  let clean =
    run_case
      ~config:
        {
          Search.default_config with
          Search.cancel = (fun () -> Atomic.incr polls; false);
        }
      ~base client server
  in
  let total = Atomic.get polls in
  let calls = Atomic.make 0 in
  let partial =
    run_case
      ~config:
        {
          Search.default_config with
          Search.cancel = (fun () -> Atomic.fetch_and_add calls 1 >= total / 2);
        }
      ~base client server
  in
  let c = partial.Search.coverage in
  Alcotest.(check bool) "interruption reported" true c.Search.interrupted;
  Alcotest.(check int) "the one shard is not complete" 0
    c.Search.completed_shards;
  Alcotest.(check bool) "trojans found before the cancel are kept" true
    (partial.Search.trojans <> []);
  Alcotest.(check bool) "and they are a subset of the clean run's" true
    (List.for_all
       (fun l -> List.mem l (trojan_labels clean))
       (trojan_labels partial))

(* The search installs [solver_budget] for its own queries only: the
   caller's ambient budget must be back in place afterwards. *)
let test_caller_budget_restored () =
  let client, server, base = extract_case fixed_case in
  let ambient = Some (Solver.budget ~conflicts:1_000_000 ()) in
  Solver.set_budget ambient;
  Fun.protect ~finally:(fun () -> Solver.set_budget None) @@ fun () ->
  let report =
    run_case
      ~config:
        {
          Search.default_config with
          Search.solver_budget = Some (Solver.budget ~conflicts:0 ~escalations:1 ());
        }
      ~base client server
  in
  Alcotest.(check bool) "the run used its own budget" true
    (report.Search.coverage.Search.budget_exhaustions > 0);
  Alcotest.(check bool) "the caller's budget is restored" true
    (Solver.get_budget () = ambient)

(* One shard run on the caller opens one [Server_se] span, not a covering
   span plus the shard's own: the Metrics block counts what a single
   exploration cost. *)
let test_one_shard_one_span () =
  let client, server, base = extract_case fixed_case in
  (* [run_case] resets the Obs counters before the search *)
  ignore
    (run_case
       ~config:Search.default_config ~base client server);
  let module Obs = Achilles_obs.Obs in
  let spans = (List.assoc Obs.Server_se (Obs.aggregate ()).Obs.phases).Obs.spans in
  Alcotest.(check int) "one server_se span" 1 spans

(* --- FSP end-to-end under faults (the acceptance drill) ----------------------- *)

let distinct_trojan_states (r : Search.report) =
  List.sort_uniq compare
    (List.map
       (fun (t : Search.trojan) -> t.Search.server_state_id)
       r.Search.trojans)

let server_fsp = Registry.fsp.server ()

let test_fsp_under_faults () =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let fsp_config =
    {
      (Registry.search_config ~witnesses:2 Registry.fsp) with
      Search.split_bits = Some 4;
    }
  in
  let client, _ =
    Client_extract.extract ~layout:Registry.fsp.layout (Registry.fsp.clients ())
  in
  let base = Term.fresh_counter_value () in
  let clean = run_case ~config:fsp_config ~base client server_fsp in
  let clean_states = distinct_trojan_states clean in
  Solver.set_fault_injection ~rate:0.05 ~seed:0xf5b ();
  (* pin the frame-context route for the chaos run, so the drill stays
     meaningful whatever route an earlier case left switched on *)
  let prev_incremental = Solver.incremental_enabled () in
  Solver.set_incremental true;
  let faulty =
    Fun.protect
      ~finally:(fun () ->
        Solver.set_fault_injection ();
        Solver.set_incremental prev_incremental)
      (fun () ->
        run_case ~config:fsp_config ~base client server_fsp)
  in
  (* the chaos run really went down the route under test: frame contexts
     decided queries while faults were being injected into them *)
  let s = Solver.aggregate_stats () in
  Alcotest.(check bool) "faults landed on the incremental path" true
    (s.Solver.injected_faults > 0 && s.Solver.incremental_checks > 0);
  Alcotest.(check bool) "faulty run terminated with complete coverage" true
    (Search.coverage_complete faulty.Search.coverage);
  Alcotest.(check bool) "no fewer trojan-bearing server states" true
    (List.length (distinct_trojan_states faulty) >= List.length clean_states);
  Alcotest.(check bool) "all clean-run trojans are confirmed" true
    (List.for_all (fun (t : Search.trojan) -> t.Search.confirmed) clean.Search.trojans);
  (* every confirmed witness of the degraded run still fire-drills cleanly;
     unconfirmed ones are skipped, not misreported as rejections *)
  let confirmation =
    Achilles_runtime.Inject.confirm ~server:server_fsp faulty.Search.trojans
  in
  Alcotest.(check int) "no false positives among confirmed witnesses" 0
    confirmation.Achilles_runtime.Inject.rejected

(* The same drill through the built CLI, in a child process whose
   environment alone carries the fault rate: the run
   must terminate with complete coverage (exit 0, not 3), account for the
   injected faults and still report Trojans; the working example must also
   finish under a one-second deadline. *)
let test_cli_under_faults () =
  let env = [ "ACHILLES_SOLVER_FAULT_RATE=0.05" ] in
  let expect what args needles =
    let code, output = run_cli ~env args in
    Alcotest.(check int) (what ^ ": exit code") 0 code;
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s prints %S" what needle)
          true (contains output needle))
      needles
  in
  expect "analyze fsp" [ "analyze"; "fsp" ]
    [ "Coverage: complete"; "injected faults"; "Trojan message" ];
  expect "analyze rw --deadline 1"
    [ "analyze"; "rw"; "--deadline"; "1" ]
    [ "Coverage: complete" ]

let () =
  Alcotest.run "robustness"
    [
      ( "solver-budgets",
        [
          Alcotest.test_case "exhaustion ladder" `Quick test_budget_exhaustion;
          Alcotest.test_case "generous budget invisible" `Quick
            test_budget_generous_is_invisible;
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "check_assuming budget" `Quick
            test_assuming_budget;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
          Alcotest.test_case "classic-se: Unknown is not exhaustion" `Quick
            test_classic_se_unknown_not_exhausted;
          Alcotest.test_case "conformance: Unknown paths counted" `Quick
            test_conformance_unknown_incomplete;
        ] );
      ( "degradation",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_fault_superset;
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_budget_superset;
        ] );
      ( "shard-isolation",
        [
          Alcotest.test_case "crash then resume" `Quick
            test_chaos_crash_then_resume;
          Alcotest.test_case "failure isolated" `Quick
            test_chaos_shard_failure_isolated;
        ] );
      ( "checkpoint-resume",
        [
          Alcotest.test_case "resume byte-identical" `Quick
            test_checkpoint_resume_identical;
          Alcotest.test_case "fingerprint guard" `Quick
            test_checkpoint_fingerprint_guard;
          Alcotest.test_case "cancel, flush, resume" `Quick
            test_cancel_partial_then_resume;
          Alcotest.test_case "old-format shards re-explored" `Quick
            test_checkpoint_old_magic_reexplored;
        ] );
      ( "single-domain",
        [
          Alcotest.test_case "interrupted run keeps its trojans" `Quick
            test_interrupted_keeps_trojans;
          Alcotest.test_case "caller budget restored" `Quick
            test_caller_budget_restored;
          Alcotest.test_case "one server_se span" `Quick
            test_one_shard_one_span;
        ] );
      ( "fsp-drill",
        [
          Alcotest.test_case "FSP under faults" `Slow test_fsp_under_faults;
          Alcotest.test_case "CLI under faults" `Slow test_cli_under_faults;
        ] );
    ]
