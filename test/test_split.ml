(* The headline determinism guarantee of the sharded search: any
   [split_bits] setting produces the identical report, checked here on
   random client/server pairs and on the degenerate cases. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Obs = Achilles_obs.Obs

(* --- determinism: random client/server pairs ---------------------------------- *)

(* A random server is a binary decision tree over the three message bytes;
   a random client pins each field to a constant or bounds it from above. *)
include Random_protocol.Make (struct
  let layout = "par" and program = "gen" and input = "in"
end)

(* [negate(pathCi)] builds this run made: the [negate.paths_negated]
   counter and the [negate] span count *)
let negations_built () =
  let snap = Obs.aggregate () in
  ( Option.value ~default:0
      (List.assoc_opt "negate.paths_negated" snap.Obs.counters),
    (List.assoc Obs.Negate snap.Obs.phases).Obs.spans )

let digest_at ~split_bits ~base client server =
  (* identical starting state for every run: fresh solver contexts, zeroed
     stats, and the fresh-variable counter back where extraction left it *)
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let config =
    {
      Search.default_config with
      Search.split_bits = Some split_bits;
      Search.witnesses_per_path = 2;
    }
  in
  Report.report_digest (Search.run ~config ~client ~server ())

let qcheck_split_determinism =
  QCheck2.Test.make
    ~name:"reports are identical for split bits 0, 1, 2 and 4" ~count:15
    case_gen
    (fun (tree, client_specs) ->
      let server = server_of_tree tree in
      let clients = List.mapi client_of_spec client_specs in
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let client, _ = Client_extract.extract ~layout clients in
      let base = Term.fresh_counter_value () in
      let reference = digest_at ~split_bits:0 ~base client server in
      (* each client path is negated once per run at any split, or
         never when no state constrains the message *)
      let paths = Predicate.client_path_count client in
      let negated_once () =
        match negations_built () with
        | 0, 0 -> true
        | n, spans -> n = paths && spans = paths
      in
      negated_once ()
      && List.for_all
           (fun split_bits ->
             digest_at ~split_bits ~base client server = reference
             && negated_once ())
           [ 1; 2; 4 ])

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

exception Crash

(* Resume from any subset of a run's shard files, after a run in which one
   shard crashed: the resumed pass skips the loaded shards' subtrees and
   still reproduces the uninterrupted report. *)
let qcheck_resume_any_subset =
  QCheck2.Test.make ~name:"crash, then resume from any subset of shard files"
    ~count:15
    QCheck2.Gen.(triple case_gen (int_range 0 15) (int_range 0 0xffff))
    (fun ((tree, client_specs), crash, keep) ->
      let server = server_of_tree tree in
      let clients = List.mapi client_of_spec client_specs in
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let client, _ = Client_extract.extract ~layout clients in
      let base = Term.fresh_counter_value () in
      let reference = digest_at ~split_bits:0 ~base client server in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "achilles-split-resume-%d" (Unix.getpid ()))
      in
      rm_rf dir;
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let run ?chaos ~resume () =
        Solver.reset_all_for_tests ();
        Term.set_fresh_counter base;
        Search.run
          ~config:
            {
              Search.default_config with
              Search.split_bits = Some 4;
              Search.witnesses_per_path = 2;
              Search.checkpoint_dir = Some dir;
              Search.resume;
              Search.chaos;
            }
          ~client ~server ()
      in
      let crashed =
        run ~resume:false
          ~chaos:(fun idx -> if idx = crash then raise Crash)
          ()
      in
      let files = Sys.readdir dir in
      Array.iter
        (fun f ->
          let idx = Scanf.sscanf f "shard-%04d.ckpt" Fun.id in
          if keep land (1 lsl idx) = 0 then Sys.remove (Filename.concat dir f))
        files;
      let resumed = run ~resume:true () in
      crashed.Search.coverage.Search.failed_shards = [ crash ]
      && Array.length files = 15
      && Search.coverage_complete resumed.Search.coverage
      && Report.report_digest resumed = reference)

(* The headline workload: one search pass builds the negations once, so
   FSP negates each of its 32 client paths exactly once at 1, 4 and 16
   shards. *)
let test_fsp_negations_once_per_run () =
  List.iter
    (fun split_bits ->
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let a =
        Registry.analyze
          ~config:
            {
              (Registry.search_config Registry.fsp) with
              Search.split_bits = Some split_bits;
            }
          Registry.fsp
      in
      let paths = Predicate.client_path_count a.Achilles.client in
      Alcotest.(check int) "FSP has 32 client paths" 32 paths;
      let counted, spans = negations_built () in
      let at what = Printf.sprintf "%s at %d split bits" what split_bits in
      Alcotest.(check int) (at "negate.paths_negated") paths counted;
      Alcotest.(check int) (at "negate spans") paths spans)
    [ 0; 2; 4 ]

(* The empty-frontier degenerate case: a server that never forks puts
   every state in shard 0, the other shards are finished empty, and the
   merged report still matches the one-shard one. *)
let test_no_forks () =
  let open Builder in
  let server =
    prog "reject-all"
      ~buffers:[ ("msg", message_size) ]
      [ receive "msg"; mark_reject "always" ]
  in
  let spec = [ [ Fconst 1; Fconst 2; Fconst 3 ] ] in
  let clients = List.mapi client_of_spec spec in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ = Client_extract.extract ~layout clients in
  let base = Term.fresh_counter_value () in
  let d0 = digest_at ~split_bits:0 ~base client server in
  let d4 = digest_at ~split_bits:4 ~base client server in
  Alcotest.(check string) "fork-free server: 1 shard = 16 shards" d0 d4

let () =
  Alcotest.run "split"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_split_determinism;
          Alcotest.test_case "no forks" `Quick test_no_forks;
          Alcotest.test_case "FSP negates each client path once" `Quick
            test_fsp_negations_once_per_run;
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_resume_any_subset;
        ] );
    ]
