(* End-to-end integration tests: the paper's headline results, run whole.

   - §6.2 / Table 1: Achilles on bounded FSP finds all 80 Trojan message
     types with zero false positives.
   - Figure 10: discovery is incremental and monotone.
   - Figure 11: the alive-set size shrinks as server paths lengthen.
   - §6.2 PBFT: the MAC-attack Trojan, rediscovered in seconds, and its
     witnesses drive the recovery protocol in a live deployment.
   - §6.3: a discovered wildcard Trojan really manipulates the file store. *)

open Achilles_smt
open Achilles_core
open Achilles_runtime
open Achilles_symvm
open Achilles_targets

let fsp_config () = Registry.search_config ~witnesses:16 Registry.fsp
let fsp_analysis = lazy (Registry.analyze ~config:(fsp_config ()) Registry.fsp)

let trojan_classes analysis =
  List.filter_map
    (fun (t : Search.trojan) ->
      match Fsp_model.classify t.Search.witness with
      | Fsp_model.Trojan cls -> Some cls
      | Fsp_model.Valid _ | Fsp_model.Rejected -> None)
    (Achilles.trojans analysis)
  |> List.sort_uniq compare

let test_table1_achilles () =
  let analysis = Lazy.force fsp_analysis in
  let trojans = Achilles.trojans analysis in
  let classes = trojan_classes analysis in
  (* all 80 ground-truth types, nothing else *)
  Alcotest.(check int) "80 true positives" 80 (List.length classes);
  Alcotest.(check int) "no false positives" 80 (List.length trojans);
  List.iter
    (fun cls ->
      Alcotest.(check bool) "class is ground truth" true
        (List.mem cls Fsp_model.all_trojan_classes))
    classes;
  (* witnesses replay cleanly on the live server *)
  let confirmation = Inject.confirm ~server:Fsp_model.server trojans in
  Alcotest.(check int) "all accepted live" 0 confirmation.Inject.rejected

let test_figure10_discovery_curve () =
  let analysis = Lazy.force fsp_analysis in
  let trojans = Achilles.trojans analysis in
  let curve = Report.discovery_curve ~total:80 trojans in
  Alcotest.(check int) "one point per witness" 80 (List.length curve);
  (* timestamps are non-decreasing and percentages climb to 100 *)
  let rec monotone = function
    | (t1, p1) :: ((t2, p2) :: _ as rest) ->
        t1 <= t2 && p1 <= p2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone curve);
  Alcotest.(check (float 0.01)) "reaches 100%" 100. (snd (List.nth curve 79))

let test_figure11_alive_decay () =
  let analysis = Lazy.force fsp_analysis in
  let samples =
    analysis.Achilles.report.Search.search_stats.Search.alive_samples
  in
  Alcotest.(check bool) "enough samples" true (List.length samples >= 30);
  (* average alive-count over short paths must exceed the average over long
     paths: the specialization effect of Figure 11 *)
  let lengths = List.map (fun (s : Search.alive_sample) -> s.Search.path_length) samples in
  let max_len = List.fold_left max 0 lengths in
  let avg p =
    let xs = List.filter p samples in
    if xs = [] then 0.
    else
      List.fold_left
        (fun acc (s : Search.alive_sample) -> acc +. float_of_int s.Search.alive)
        0. xs
      /. float_of_int (List.length xs)
  in
  let early = avg (fun s -> s.Search.path_length <= max_len / 3) in
  let late = avg (fun s -> s.Search.path_length > 2 * max_len / 3) in
  Alcotest.(check bool)
    (Printf.sprintf "alive decays (early %.1f > late %.1f)" early late)
    true (early > late)

(* Server analysis against the *memoized* preprocessing. This is not the
   paper's §6.2 ordering (server analysis 45 of 63 minutes, against the
   unmemoized preprocessing): signature memoization collapses the
   differentFrom matrix, so the server search here outlasts client
   extraction and the memoized preprocessing. The paper-faithful
   (unmemoized) preprocessing is measured separately and only has to
   outlast client extraction; `--experiment timing` prints the full
   ordering. *)
let test_server_vs_memoized_preprocessing () =
  let analysis = Lazy.force fsp_analysis in
  let t = analysis.Achilles.timing in
  Alcotest.(check bool)
    "server analysis outlasts client extraction and memoized preprocessing"
    true
    (t.Achilles.server_analysis > t.Achilles.client_extraction
    && t.Achilles.server_analysis > t.Achilles.preprocessing);
  let _, raw =
    Different_from.compute ~memoize:false ~mask:Fsp_model.analysis_mask
      analysis.Achilles.client
  in
  Alcotest.(check bool) "raw preprocessing beats client extraction" true
    (raw.Different_from.wall_time > t.Achilles.client_extraction)

(* Every reported witness, replayed with no solver: [Concrete.run] on the
   target's server (from the same initial globals as the analysis) accepts
   it under the label the report gives, and an FSP witness is a Trojan
   message by [Fsp_model.classify]. The targets are the CLI's, at its
   default 4 witnesses per path and at 16. PBFT is left out: its analysis
   over-approximates the replica's [last_rid], so a witness is accepted
   in some replica state, not necessarily in the initial one. *)
let replay_targets = [ "rw"; "fsp"; "kv"; "gossip"; "paxos" ]

(* The label a concrete run ends with: its marker, or for an
   auto-classified server ([Kv_model.auto_classifier]) the status byte of
   its first reply, named as the classifier names it. *)
let concrete_label (interp : Interp.config) (o : Concrete.outcome) =
  match (o.Concrete.status, interp.Interp.auto_classify, o.Concrete.sent) with
  | State.Accepted label, _, _ -> Some label
  | State.Finished, Some _, (_, reply) :: _ when Bv.to_int reply.(0) = 2 ->
      Some "auto:status-2"
  | _ -> None

let test_witnesses_replay () =
  Solver.set_fault_injection ();
  List.iter
    (fun name ->
      let t = Option.get (Registry.find name) in
      List.iter
        (fun witnesses ->
          Solver.reset_all_for_tests ();
          Term.reset_fresh_counter ();
          let config = Registry.search_config ~witnesses t in
          let initial_globals =
            List.map
              (fun (name, v) -> (name, Option.get (Term.const_value v)))
              config.Search.interp.Interp.initial_globals
          in
          let analysis = Registry.analyze ~config t in
          let trojans = Achilles.trojans analysis in
          let what = Printf.sprintf "%s -w %d" name witnesses in
          Alcotest.(check bool) (what ^ ": reports witnesses") true (trojans <> []);
          List.iter
            (fun (tr : Search.trojan) ->
              Alcotest.(check bool) (what ^ ": witness confirmed") true
                tr.Search.confirmed;
              let outcome =
                Concrete.run ~incoming:[ tr.Search.witness ] ~initial_globals
                  (t.server ())
              in
              Alcotest.(check (option string))
                (what ^ ": concrete run accepts under the reported label")
                (Some tr.Search.accept_label)
                (concrete_label config.Search.interp outcome);
              if name = "fsp" then
                Alcotest.(check bool) (what ^ ": an FSP Trojan") true
                  (match Fsp_model.classify tr.Search.witness with
                  | Fsp_model.Trojan _ -> true
                  | Fsp_model.Valid _ | Fsp_model.Rejected -> false))
            trojans)
        [ 4; 16 ])
    replay_targets;
  Solver.reset_all_for_tests ()

let test_pbft_end_to_end () =
  let config = Registry.search_config ~witnesses:3 Registry.pbft in
  let t0 = Unix.gettimeofday () in
  let analysis = Registry.analyze ~config Registry.pbft in
  let elapsed = Unix.gettimeofday () -. t0 in
  let trojans = Achilles.trojans analysis in
  (* "a few seconds" in the paper; our bounded model is faster still *)
  Alcotest.(check bool) "completes quickly" true (elapsed < 30.);
  Alcotest.(check bool) "trojans on both accepting paths" true
    (List.length trojans >= 2);
  (* every witness is the MAC attack *)
  List.iter
    (fun (t : Search.trojan) ->
      Alcotest.(check bool) "MAC trojan" true
        (Pbft_model.is_mac_trojan t.Search.witness))
    trojans;
  (* drive a witness into a live deployment: recovery fires *)
  let deploy = Pbft_deploy.create () in
  let witness = (List.hd trojans).Search.witness in
  (* make the rid definitely fresh for the live replica *)
  let f = Layout.field Pbft_model.layout "rid" in
  witness.(f.Layout.offset) <- Bv.of_int ~width:8 0xFF;
  witness.(f.Layout.offset + 1) <- Bv.of_int ~width:8 0xFF;
  let r = Pbft_deploy.submit deploy witness in
  Alcotest.(check bool) "live replica accepts and recovery fires" true
    r.Pbft_deploy.recovery

(* The shard determinism guarantee on the headline workload: a 16-shard
   FSP analysis produces byte-identical Figure 10 / Figure 11 data to the
   one-shard one, and both match the pinned golden digests (reproducible
   because the runs start from a reset solver and fresh-variable counter). *)
let test_sharded_golden_digests () =
  let run split_bits =
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    Registry.analyze
      ~config:{ (fsp_config ()) with Search.split_bits = Some split_bits }
      Registry.fsp
  in
  let a1 = run 0 and a4 = run 4 in
  let fig10 (a : Achilles.analysis) = Report.discovery_digest a.Achilles.report in
  let fig11 (a : Achilles.analysis) =
    Report.alive_digest a.Achilles.report.Search.search_stats
  in
  Alcotest.(check string) "Fig 10 series: 16 shards = 1 shard" (fig10 a1)
    (fig10 a4);
  Alcotest.(check string) "Fig 11 samples: 16 shards = 1 shard" (fig11 a1)
    (fig11 a4);
  Alcotest.(check string) "Fig 10 golden digest" Goldens.fig10_digest (fig10 a4);
  Alcotest.(check string) "Fig 11 golden digest" Goldens.fig11_digest (fig11 a4);
  Alcotest.(check string) "full report agrees too"
    (Report.report_digest a1.Achilles.report)
    (Report.report_digest a4.Achilles.report)

(* The verdict-preserving switches of the term and solver layers: with
   hash-consing off, or with the incremental frame contexts off (every
   verdict query on the scratch route), the FSP and PBFT reports must not
   move, and each layer must still pay for itself in its deterministic work
   counter. Last measured on FSP: 19,089 -> 2,678 terms allocated with
   sharing on, 121,323 -> 7,549 bitblast memo misses with incremental on. *)
let test_layer_switches () =
  let run ?(sharing = true) ?(incremental = true) ?(split_bits = 0) target =
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    Term.set_sharing sharing;
    Solver.set_incremental incremental;
    let analysis =
      Fun.protect
        ~finally:(fun () ->
          Term.set_sharing true;
          Solver.set_incremental true)
        (fun () ->
          (* each config is built after the run's counter reset, so PBFT's
             local-state variable shares its id with no message variable *)
          match target with
          | `Fsp ->
              Registry.analyze
                ~config:{ (fsp_config ()) with Search.split_bits = Some split_bits }
                Registry.fsp
          | `Pbft ->
              Registry.analyze
                ~config:(Registry.search_config ~witnesses:2 Registry.pbft)
                Registry.pbft)
    in
    let _, terms_created = Term.aggregate_intern_stats () in
    let _, memo_misses = Bitblast.aggregate_memo_stats () in
    (Report.report_digest analysis.Achilles.report, terms_created, memo_misses)
  in
  let fsp, created_on, misses_on = run `Fsp in
  let digest, created_off, _ = run ~sharing:false `Fsp in
  Alcotest.(check string) "fsp: sharing off, same digest" fsp digest;
  Alcotest.(check bool)
    (Printf.sprintf "fsp: sharing allocates >= 2x fewer terms (%d -> %d)"
       created_off created_on)
    true
    (created_off >= 2 * created_on);
  let digest, _, misses_off = run ~incremental:false `Fsp in
  Alcotest.(check string) "fsp: incremental off, same digest" fsp digest;
  Alcotest.(check bool)
    (Printf.sprintf "fsp: incremental bitblasts less (%d -> %d memo misses)"
       misses_off misses_on)
    true (misses_on < misses_off);
  List.iter
    (fun incremental ->
      let digest, _, _ = run ~incremental ~split_bits:4 `Fsp in
      Alcotest.(check string)
        (Printf.sprintf "fsp: incremental %b at 16 shards, same digest"
           incremental)
        fsp digest)
    [ true; false ];
  let pbft, _, _ = run `Pbft in
  let digest, _, _ = run ~sharing:false `Pbft in
  Alcotest.(check string) "pbft: sharing off, same digest" pbft digest

(* Forced context recycling: with the frame context's variable cap at 600,
   the shared SAT instance is rebuilt many times per run, and each rebuild
   re-pushes the live frames. Verdicts cannot move: each report equals the
   default cap's run in this process (in-process runs name their fresh
   variables differently from the CLI's, so the digests are compared, not
   pinned). The SAT trajectory does move, and is pinned, from sliced,
   fault-free runs like {!Goldens.sat_counters}. *)
let test_context_recycling () =
  let run ~cap target =
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    Solver.set_fault_injection ();
    Solver.set_context_var_cap cap;
    (* the config is built after the counter reset, so PBFT's local-state
       variable shares its id with no message variable *)
    let analysis =
      let target = match target with `Fsp -> Registry.fsp | `Pbft -> Registry.pbft in
      Registry.analyze
        ~config:
          { (Registry.search_config ~witnesses:16 target) with Search.use_slice = true }
        target
    in
    let module Obs = Achilles_obs.Obs in
    let resets =
      Option.value ~default:0
        (List.assoc_opt "solver.context_resets" (Obs.aggregate ()).Obs.counters)
    in
    let s = Solver.stats () in
    ( analysis.Achilles.report,
      resets,
      (s.Solver.sat_conflicts, s.Solver.sat_decisions, s.Solver.sat_propagations)
    )
  in
  let check_target name target ~resets:expected ~sat:expected_sat =
    (* 200_000 is the documented default cap *)
    let default, _, _ = run ~cap:200_000 target in
    let report, resets, sat = run ~cap:600 target in
    Alcotest.(check int) (name ^ ": context resets") expected resets;
    Alcotest.(check string) (name ^ ": report digest as at the default cap")
      (Report.report_digest default) (Report.report_digest report);
    Alcotest.(check string) (name ^ ": verdict digest as at the default cap")
      (Report.verdict_digest default) (Report.verdict_digest report);
    Alcotest.(check (triple int int int)) (name ^ ": SAT counters")
      expected_sat sat
  in
  Fun.protect
    ~finally:(fun () ->
      Solver.set_context_var_cap 200_000;
      Solver.reset_all_for_tests ())
  @@ fun () ->
  check_target "fsp" `Fsp ~resets:22 ~sat:(126, 8513, 77069);
  check_target "pbft" `Pbft ~resets:30 ~sat:(1, 7652, 35680)

let cli_binary =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/achilles_cli.exe"

(* Run the CLI with [env] on top of the test's environment (the
   variables named there replace inherited ones): exit code, stdout and
   stderr. *)
let run_cli ?(env = []) args =
  let names = List.map (fun kv -> String.sub kv 0 (String.index kv '=')) env in
  let inherited =
    List.filter
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> not (List.mem (String.sub kv 0 i) names)
        | None -> true)
      (Array.to_list (Unix.environment ()))
  in
  let out = Filename.temp_file "achilles-cli" ".out" in
  let err = Filename.temp_file "achilles-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let outfd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close outfd;
        Unix.close errfd)
      (fun () ->
        Unix.create_process_env cli_binary
          (Array.of_list (cli_binary :: args))
          (Array.of_list (env @ inherited))
          Unix.stdin outfd errfd)
  in
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED code -> code
    | _ -> Alcotest.failf "%s: CLI killed by a signal" (String.concat " " args)
  in
  let read file = In_channel.with_open_bin file In_channel.input_all in
  (code, read out, read err)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_path name =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf path;
  path

(* The report digest [analyze ARGS --digest] prints (or, with [~prefix],
   another of its digest lines). The behaviour contract, pinned end to end
   through the CLI: see {!Goldens.cli_digests}. *)
let cli_digest ?env ?(prefix = "report digest: ") args =
  let _, out, _ = run_cli ?env (("analyze" :: args) @ [ "--digest" ]) in
  let n = String.length prefix in
  List.find_map
    (fun line ->
      if String.length line > n && String.sub line 0 n = prefix then
        Some (String.sub line n (String.length line - n))
      else None)
    (String.split_on_char '\n' out)

let test_cli_golden_digests () =
  List.iter
    (fun (args, golden) ->
      Alcotest.(check (option string))
        ("analyze " ^ String.concat " " args ^ " --digest")
        (Some golden) (cli_digest args))
    Goldens.cli_digests

(* Witness bytes aside, the reports are pinned apart from the models the
   SAT solver returns: see {!Goldens.verdict_digests}. *)
let test_cli_verdict_digests () =
  List.iter
    (fun (args, golden) ->
      Alcotest.(check (option string))
        ("analyze " ^ String.concat " " args ^ " --digest, verdicts")
        (Some golden)
        (cli_digest ~prefix:"verdict digest: " args))
    Goldens.verdict_digests

(* [predicate] and [conformance] extract every entry's client predicate
   with its client interpreter ({!Registry.client_config}): a target with
   no client interpreter of its own uses the default one, never the
   server's, whose local-state globals the clients do not declare. *)
let test_cli_client_commands () =
  List.iter
    (fun (t : Registry.t) ->
      List.iter
        (fun cmd ->
          let code, _, err = run_cli [ cmd; t.Registry.name ] in
          Alcotest.(check int)
            (Printf.sprintf "%s %s exits 0 (stderr: %s)" cmd t.Registry.name
               (String.trim err))
            0 code)
        [ "predicate"; "conformance" ])
    Registry.all

(* fsp-wide, FSP at 24 utilities, is a registry entry like any other: its
   one-witness run prints all three digest lines, so its SAT counters can
   be read from the CLI. *)
let test_cli_fsp_wide () =
  let code, out, _ = run_cli [ "analyze"; "fsp-wide"; "-w"; "1"; "--digest" ] in
  Alcotest.(check int) "analyze fsp-wide exits 0" 0 code;
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " printed") true
        (List.exists (String.starts_with ~prefix) (String.split_on_char '\n' out)))
    [ "report digest: "; "verdict digest: "; "sat counters: " ]

(* The search runs on one domain: [-j] and [--domains] are unknown
   options, refused while parsing the command line. *)
let test_cli_no_domains_option () =
  List.iter
    (fun args ->
      let code, _, _ = run_cli ("analyze" :: "rw" :: args) in
      Alcotest.(check int) (String.concat " " args ^ " is a usage error") 124
        code)
    [ [ "-j"; "2" ]; [ "--domains"; "1" ] ]

(* A reader that goes away early ([analyze fsp | head -1]) ends the CLI
   quietly, not with an internal error. The read end is closed before the
   child writes anything, so its first write meets a pipe with no reader
   whatever the pipe buffer could hold. *)
let test_cli_closed_pipe () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.close rd;
  let err = Filename.temp_file "achilles-cli-pipe" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close errfd)
      (fun () ->
        Unix.create_process cli_binary
          [| cli_binary; "analyze"; "fsp"; "-w"; "16" |]
          Unix.stdin wr errfd)
  in
  let _, status = Unix.waitpid [] pid in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check bool) "no internal error on stderr" false
    (contains stderr "internal error" || contains stderr "exception");
  Alcotest.(check bool) "ended by SIGPIPE or a clean exit" true
    (status = Unix.WSIGNALED Sys.sigpipe || status = Unix.WEXITED 0)

(* Checkpointing splits the one depth-first pass into shards; it adds no
   search work. The checkpointed FSP run issues exactly the unsharded
   run's solver queries, and under injected faults (seeded by the query
   sequence) it reports the unsharded run's digest. Slicing is pinned on:
   these are the sliced run's numbers. *)
let test_cli_checkpoint_no_extra_work () =
  let dir = scratch_path "achilles-cli-work" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let queries args =
    let trace = scratch_path "achilles-cli-work.jsonl" in
    let code, _, _ =
      run_cli
        ~env:[ "ACHILLES_SLICE=1"; "ACHILLES_SOLVER_FAULT_RATE=0" ]
        ([ "analyze"; "fsp"; "-w"; "16"; "--trace"; trace ] @ args)
    in
    Alcotest.(check int) "analyze fsp exits 0" 0 code;
    let lines = In_channel.with_open_bin trace In_channel.input_lines in
    Sys.remove trace;
    List.length
      (List.filter
         (fun l -> contains l {|"kind":"span_begin","name":"solver_query"|})
         lines)
  in
  Alcotest.(check int) "unsharded solver queries" 405 (queries []);
  Alcotest.(check int) "checkpointed solver queries" 405
    (queries [ "--checkpoint-dir"; dir ]);
  rm_rf dir;
  let env = [ "ACHILLES_SLICE=1"; "ACHILLES_SOLVER_FAULT_RATE=0.05" ] in
  let expected = Some "7a0bfe06031d6422689567dd30c44dca" in
  Alcotest.(check (option string)) "5% faults, unsharded" expected
    (cli_digest ~env [ "fsp"; "-w"; "16" ]);
  Alcotest.(check (option string)) "5% faults, checkpointed" expected
    (cli_digest ~env [ "fsp"; "-w"; "16"; "--checkpoint-dir"; dir ])

(* Every solver query an analysis issues comes from one of the search's
   own call sites: branch feasibility rides the frame context at site
   "feasibility", and no other component sends branch checks to the
   scratch instance under a site of its own. *)
let test_cli_query_sites () =
  let sites =
    List.map
      (Printf.sprintf {|"site":"%s"|})
      [ "feasibility"; "alive"; "prune"; "witness"; "negate"; "different_from" ]
  in
  List.iter
    (fun target ->
      let trace = scratch_path "achilles-cli-sites.jsonl" in
      let code, _, _ =
        run_cli [ "analyze"; target; "-w"; "16"; "--trace"; trace ]
      in
      Alcotest.(check int) ("analyze " ^ target ^ " exits 0") 0 code;
      let lines = In_channel.with_open_bin trace In_channel.input_lines in
      Sys.remove trace;
      let queries =
        List.filter
          (fun l -> contains l {|"kind":"span_begin","name":"solver_query"|})
          lines
      in
      Alcotest.(check bool) (target ^ ": some solver queries") true
        (queries <> []);
      List.iter
        (fun line ->
          if not (List.exists (contains line) sites) then
            Alcotest.failf "%s: query outside the search's sites: %s" target
              line)
        queries)
    [ "rw"; "fsp"; "fsp-glob"; "pbft"; "kv"; "gossip"; "paxos" ]

(* A usage error: exit 124, and stderr carries every needle. *)
let check_usage_error args needles =
  let what = String.concat " " args in
  let code, _, err = run_cli args in
  Alcotest.(check int) (what ^ ": exit 124") 124 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: stderr mentions %S" what needle)
        true (contains err needle))
    needles

(* --mask names a target's fields: an unknown one would analyze nothing
   and report a false all-clear. *)
let test_cli_mask_checked () =
  let valid = "sender, request, address, value, crc" in
  check_usage_error [ "analyze"; "rw"; "--mask=nosuchfield" ]
    [ "nosuchfield"; valid ];
  check_usage_error [ "analyze"; "rw"; "--mask=address,bogus" ] [ "bogus"; valid ];
  let output = scratch_path "achilles-cli-mask.achfilter" in
  check_usage_error
    [ "compile-filter"; "rw"; "--mask=bogus"; "-o"; output ]
    [ "bogus"; valid ];
  Alcotest.(check bool) "no filter written" false (Sys.file_exists output)

let test_cli_numeric_options_checked () =
  List.iter
    (fun args -> check_usage_error ("analyze" :: "rw" :: args) [ "achilles:" ])
    [
      [ "-w"; "0" ];
      [ "--witnesses=-2" ];
      [ "--deadline=-1" ];
      [ "--solver-budget=-1" ];
    ]

(* A checkpoint directory that cannot be made or used is refused with one
   [achilles:] line before any analysis runs. *)
let test_cli_unusable_checkpoint_dir () =
  let file = Filename.temp_file "achilles-cli-ckpt" ".file" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let missing_parent = Filename.concat (scratch_path "achilles-cli-gone") "dir" in
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, out, err = run_cli ("analyze" :: "rw" :: args) in
      Alcotest.(check int) (what ^ ": exit 124") 124 code;
      Alcotest.(check string) (what ^ ": nothing analyzed") "" out;
      Alcotest.(check bool) (what ^ ": one achilles: line") true
        (match String.split_on_char '\n' (String.trim err) with
        | [ line ] -> String.starts_with ~prefix:"achilles: " line
        | _ -> false))
    [
      [ "--checkpoint-dir"; missing_parent ];
      [ "--checkpoint-dir"; file ];
      [ "--resume"; missing_parent ];
      [ "--resume"; file ];
    ]

(* A --trace or ACHILLES_TRACE file that cannot be opened is a usage error
   for analyze and serve alike: one achilles: line and exit 124, not an
   uncaught exception. *)
let test_cli_unwritable_trace () =
  let filter = scratch_path "achilles-cli-trace.achfilter" in
  let code, _, _ = run_cli [ "compile-filter"; "rw"; "-o"; filter ] in
  Alcotest.(check int) "compile-filter rw" 0 code;
  let sock = scratch_path "achilles-cli-trace.sock" in
  let bad = Filename.concat (scratch_path "achilles-cli-gone") "t.jsonl" in
  List.iter
    (fun (env, args) ->
      let what = String.concat " " (env @ args) in
      let code, out, err = run_cli ~env args in
      Alcotest.(check int) (what ^ ": exit 124") 124 code;
      Alcotest.(check string) (what ^ ": nothing run") "" out;
      Alcotest.(check bool) (what ^ ": no internal error") false
        (contains err "internal error");
      Alcotest.(check bool) (what ^ ": one achilles: line naming the file") true
        (match String.split_on_char '\n' (String.trim err) with
        | [ line ] ->
            String.starts_with ~prefix:"achilles: " line && contains line bad
        | _ -> false))
    [
      ([], [ "analyze"; "rw"; "--trace"; bad ]);
      ([ "ACHILLES_TRACE=" ^ bad ], [ "analyze"; "rw" ]);
      ([], [ "serve"; filter; "--socket"; sock; "--trace"; bad ]);
      ([ "ACHILLES_TRACE=" ^ bad ], [ "serve"; filter; "--socket"; sock ]);
    ];
  Alcotest.(check bool) "serve never bound its socket" false
    (Sys.file_exists sock);
  Sys.remove filter

(* --verbose prints every trojan's symbolic expression straight to stdout,
   one block under each trojan; a trace holds no rendering of them. *)
let test_cli_verbose_prints_directly () =
  let trace = scratch_path "achilles-cli-verbose.jsonl" in
  Fun.protect ~finally:(fun () -> rm_rf trace) @@ fun () ->
  let code, out, _ =
    run_cli [ "analyze"; "gossip"; "-w"; "1"; "--verbose"; "--trace"; trace ]
  in
  Alcotest.(check int) "analyze gossip exits 0" 0 code;
  let lines prefix =
    List.length
      (List.filter (String.starts_with ~prefix) (String.split_on_char '\n' out))
  in
  let trojans = lines "Trojan message (" in
  Alcotest.(check bool) "gossip has trojans" true (trojans > 0);
  Alcotest.(check int) "one symbolic block per trojan" trojans
    (lines "  symbolic expression:");
  Alcotest.(check bool) "no trojan_symbolic event in the trace" false
    (contains (In_channel.with_open_bin trace In_channel.input_all)
       "trojan_symbolic")

let test_wildcard_trojan_via_analysis () =
  (* with globbing-aware clients, the analysis must produce a witness with a
     literal '*' in the path — the wildcard bug found by Achilles *)
  let target =
    {
      Registry.fsp_glob with
      clients = (fun () -> [ List.hd (Registry.fsp_glob.clients ()) ]);
    }
  in
  (* fsp-glob blocks exact bytes, not classes: 40 witnesses explore classes *)
  let analysis =
    Registry.analyze ~config:(Registry.search_config ~witnesses:40 target) target
  in
  let trojans = Achilles.trojans analysis in
  let wildcarded =
    List.filter
      (fun (t : Search.trojan) -> Fsp_model.contains_wildcard t.Search.witness)
      trojans
  in
  Alcotest.(check bool) "found a wildcard witness" true (wildcarded <> [])

(* The whole run's SAT trajectory: the conflicts, decisions and
   propagations [analyze T -w 16 --digest] prints, summed over every solve
   on the scratch and frame instances (see {!Goldens.sat_counters}). The
   pins are of a sliced, fault-free run, so both are set here: without
   differentFrom's slice shortcuts, or with injected faults, the run issues
   other solves. *)
let test_sat_counters_pinned () =
  let env = [ "ACHILLES_SLICE=1"; "ACHILLES_SOLVER_FAULT_RATE=0" ] in
  List.iter
    (fun (args, (c, d, p)) ->
      Alcotest.(check (option string))
        ("analyze " ^ String.concat " " args ^ " --digest, SAT counters")
        (Some
           (Printf.sprintf "conflicts=%d decisions=%d propagations=%d" c d p))
        (cli_digest ~env ~prefix:"sat counters: " args))
    Goldens.sat_counters

let () =
  Alcotest.run "integration"
    [
      ( "fsp",
        [
          Alcotest.test_case "Table 1 (Achilles side)" `Slow test_table1_achilles;
          Alcotest.test_case "Figure 10 curve" `Slow test_figure10_discovery_curve;
          Alcotest.test_case "Figure 11 decay" `Slow test_figure11_alive_decay;
          Alcotest.test_case "server vs memoized preprocessing" `Slow
            test_server_vs_memoized_preprocessing;
          Alcotest.test_case "wildcard bug" `Slow test_wildcard_trojan_via_analysis;
          Alcotest.test_case "sharded golden digests" `Slow
            test_sharded_golden_digests;
          Alcotest.test_case "layer switches keep digests" `Slow
            test_layer_switches;
          Alcotest.test_case "forced context recycling" `Slow
            test_context_recycling;
        ] );
      ( "cli",
        [
          Alcotest.test_case "golden report digests" `Slow
            test_cli_golden_digests;
          Alcotest.test_case "golden verdict digests" `Slow
            test_cli_verdict_digests;
          Alcotest.test_case "whole-run SAT counters" `Slow
            test_sat_counters_pinned;
          Alcotest.test_case "-j is not an option" `Quick
            test_cli_no_domains_option;
          Alcotest.test_case "closed stdout pipe ends quietly" `Quick
            test_cli_closed_pipe;
          Alcotest.test_case "checkpointing adds no search work" `Slow
            test_cli_checkpoint_no_extra_work;
          Alcotest.test_case "queries come from the search's sites" `Slow
            test_cli_query_sites;
          Alcotest.test_case "--mask names are checked" `Quick
            test_cli_mask_checked;
          Alcotest.test_case "numeric options are checked" `Quick
            test_cli_numeric_options_checked;
          Alcotest.test_case "unusable checkpoint dirs are usage errors" `Quick
            test_cli_unusable_checkpoint_dir;
          Alcotest.test_case "unwritable trace files are usage errors" `Quick
            test_cli_unwritable_trace;
          Alcotest.test_case "--verbose prints symbolic expressions" `Quick
            test_cli_verbose_prints_directly;
          Alcotest.test_case "fsp-wide prints its digest lines" `Quick
            test_cli_fsp_wide;
          Alcotest.test_case "predicate and conformance run every target"
            `Quick test_cli_client_commands;
        ] );
      ( "pbft",
        [ Alcotest.test_case "MAC attack end to end" `Slow test_pbft_end_to_end ] );
      (* Suite names stay short: alcotest cuts each result line at 80
         columns, so a wider suite column truncates the test names above. *)
      ( "all",
        [
          Alcotest.test_case "every witness replays concretely" `Slow
            test_witnesses_replay;
        ] );
    ]
