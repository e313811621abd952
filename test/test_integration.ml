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

let fsp_config =
  {
    Search.default_config with
    Search.mask = Some Fsp_model.analysis_mask;
    Search.witnesses_per_path = 16;
    Search.distinct_by = Some Fsp_model.block_class;
  }

let fsp_analysis =
  lazy
    (Achilles.analyze ~search_config:fsp_config ~layout:Fsp_model.layout
       ~clients:(Fsp_model.clients ()) ~server:Fsp_model.server ())

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

let test_timing_shape () =
  let analysis = Lazy.force fsp_analysis in
  let t = analysis.Achilles.timing in
  (* §6.2: server analysis dominates (45 of 63 minutes in the paper); our
     signature memoization collapses the preprocessing phase, so the raw
     (paper-faithful) cost is measured separately *)
  Alcotest.(check bool) "server analysis dominates" true
    (t.Achilles.server_analysis > t.Achilles.client_extraction
    && t.Achilles.server_analysis > t.Achilles.preprocessing);
  let _, raw =
    Different_from.compute ~memoize:false ~mask:Fsp_model.analysis_mask
      analysis.Achilles.client
  in
  Alcotest.(check bool) "raw preprocessing beats client extraction" true
    (raw.Different_from.wall_time > t.Achilles.client_extraction)

let test_pbft_end_to_end () =
  let interp =
    Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
      Interp.default_config
  in
  let config =
    {
      Search.default_config with
      Search.mask = Some Pbft_model.analysis_mask;
      Search.interp = interp;
      Search.witnesses_per_path = 3;
    }
  in
  let t0 = Unix.gettimeofday () in
  let analysis =
    Achilles.analyze ~search_config:config ~layout:Pbft_model.layout
      ~clients:[ Pbft_model.client ] ~server:Pbft_model.replica ()
  in
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
    Achilles.analyze
      ~search_config:{ fsp_config with Search.split_bits = Some split_bits }
      ~layout:Fsp_model.layout ~clients:(Fsp_model.clients ())
      ~server:Fsp_model.server ()
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
  let pbft_config =
    {
      Search.default_config with
      Search.mask = Some Pbft_model.analysis_mask;
      Search.interp =
        Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
          Interp.default_config;
      Search.witnesses_per_path = 2;
    }
  in
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
          match target with
          | `Fsp ->
              Achilles.analyze
                ~search_config:
                  { fsp_config with Search.split_bits = Some split_bits }
                ~layout:Fsp_model.layout ~clients:(Fsp_model.clients ())
                ~server:Fsp_model.server ()
          | `Pbft ->
              Achilles.analyze
                ~search_config:pbft_config
                ~layout:Pbft_model.layout ~clients:[ Pbft_model.client ]
                ~server:Pbft_model.replica ())
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

let cli_binary =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/achilles_cli.exe"

(* The behaviour contract, pinned end to end through the CLI: see
   {!Goldens.cli_digests}. *)
let cli_digest args =
  let binary = cli_binary in
  let argv = Array.of_list ((binary :: "analyze" :: args) @ [ "--digest" ]) in
  let ic = Unix.open_process_args_in binary argv in
  let rec digest found =
    match input_line ic with
    | line ->
        let prefix = "report digest: " in
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          digest (Some (String.sub line n (String.length line - n)))
        else digest found
    | exception End_of_file -> found
  in
  let found = digest None in
  ignore (Unix.close_process_in ic);
  found

let test_cli_golden_digests () =
  List.iter
    (fun (args, golden) ->
      Alcotest.(check (option string))
        ("analyze " ^ String.concat " " args ^ " --digest")
        (Some golden) (cli_digest args))
    Goldens.cli_digests

(* The search runs on one domain: [-j] and [--domains] are unknown
   options, refused while parsing the command line. *)
let test_cli_no_domains_option () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  let exit_code args =
    let argv = Array.of_list (cli_binary :: "analyze" :: "rw" :: args) in
    let pid = Unix.create_process cli_binary argv devnull devnull devnull in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> code
    | _ -> Alcotest.failf "%s: CLI killed by a signal" (String.concat " " args)
  in
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args ^ " is a usage error") 124
        (exit_code args))
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
  let mentions needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length stderr
      && (String.sub stderr i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no internal error on stderr" false
    (mentions "internal error" || mentions "exception");
  Alcotest.(check bool) "ended by SIGPIPE or a clean exit" true
    (status = Unix.WSIGNALED Sys.sigpipe || status = Unix.WEXITED 0)

let test_wildcard_trojan_via_analysis () =
  (* with globbing-aware clients, the analysis must produce a witness with a
     literal '*' in the path — the wildcard bug found by Achilles *)
  let config =
    {
      Search.default_config with
      Search.mask = Some Fsp_model.analysis_mask;
      Search.witnesses_per_path = 40;
      Search.distinct_by = None (* block exact bytes to explore classes *);
    }
  in
  let clients =
    [ Fsp_model.client ~model_globbing:true (List.hd Fsp_model.commands) ]
  in
  let analysis =
    Achilles.analyze ~search_config:config ~layout:Fsp_model.layout ~clients
      ~server:Fsp_model.server ()
  in
  let trojans = Achilles.trojans analysis in
  let wildcarded =
    List.filter
      (fun (t : Search.trojan) -> Fsp_model.contains_wildcard t.Search.witness)
      trojans
  in
  Alcotest.(check bool) "found a wildcard witness" true (wildcarded <> [])

let () =
  Alcotest.run "integration"
    [
      ( "fsp",
        [
          Alcotest.test_case "Table 1 (Achilles side)" `Slow test_table1_achilles;
          Alcotest.test_case "Figure 10 curve" `Slow test_figure10_discovery_curve;
          Alcotest.test_case "Figure 11 decay" `Slow test_figure11_alive_decay;
          Alcotest.test_case "timing shape" `Slow test_timing_shape;
          Alcotest.test_case "wildcard bug" `Slow test_wildcard_trojan_via_analysis;
          Alcotest.test_case "sharded golden digests" `Slow
            test_sharded_golden_digests;
          Alcotest.test_case "layer switches keep digests" `Slow
            test_layer_switches;
        ] );
      ( "cli",
        [
          Alcotest.test_case "golden report digests" `Slow
            test_cli_golden_digests;
          Alcotest.test_case "-j is not an option" `Quick
            test_cli_no_domains_option;
          Alcotest.test_case "closed stdout pipe ends quietly" `Quick
            test_cli_closed_pipe;
        ] );
      ( "pbft",
        [ Alcotest.test_case "MAC attack end to end" `Slow test_pbft_end_to_end ] );
    ]
