(* The multicore search machinery: the domain pool, the thread-safety of the
   per-domain solver layer, and the headline determinism guarantee — any
   [domains] setting produces the identical report, checked here on random
   client/server pairs and on the degenerate cases. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Obs = Achilles_obs.Obs

(* --- the domain pool --------------------------------------------------------- *)

let ok_exn = function Ok v -> v | Error e -> raise e

let test_pool_map () =
  let input = Array.init 20 (fun i -> i + 1) in
  Alcotest.(check (array int))
    "squares by index"
    (Array.map (fun x -> x * x) input)
    (Array.map ok_exn (Pool.map ~domains:3 (fun x -> x * x) input))

let test_pool_empty () =
  Alcotest.(check int) "empty batch" 0
    (Array.length (Pool.map ~domains:2 Fun.id [||]))

exception Task_failed of int

(* A raising task fills its own slot with the exception; its siblings
   still run and deliver. *)
let test_pool_exception () =
  let ran = Array.make 6 false in
  let results =
    Pool.map ~domains:2
      (fun i ->
        ran.(i) <- true;
        if i = 2 || i = 4 then raise (Task_failed i);
        i * 10)
      (Array.init 6 Fun.id)
  in
  Alcotest.(check bool) "every task ran" true (Array.for_all Fun.id ran);
  Array.iteri
    (fun i r ->
      match r with
      | Error (Task_failed j) when j = i && (i = 2 || i = 4) -> ()
      | Ok v when v = i * 10 && i <> 2 && i <> 4 -> ()
      | _ -> Alcotest.failf "slot %d holds the wrong outcome" i)
    results

let test_pool_domain_bounds () =
  List.iter
    (fun domains ->
      match Pool.map ~domains Fun.id [| 1 |] with
      | _ -> Alcotest.failf "expected Invalid_argument for %d domains" domains
      | exception Invalid_argument _ -> ())
    [ 0; 129 ]

(* [domains = 1] spawns nothing: every task runs inline on the caller. *)
let test_pool_size_one_inline () =
  let caller = Domain.self () in
  let ran_on = Pool.map ~domains:1 (fun _ -> Domain.self ()) [| 0; 1; 2 |] in
  Alcotest.(check bool) "every task ran on the caller's domain" true
    (Array.for_all (fun d -> ok_exn d = caller) ran_on)

(* Domain ids are handed out in spawn order, so the ids of two probe domains
   around the call bound the number of domains it spawned. *)
let test_pool_spawn_count () =
  let probe () = (Domain.join (Domain.spawn Domain.self) :> int) in
  let spawned domains n =
    let before = probe () in
    ignore (Pool.map ~domains Fun.id (Array.make n ()));
    probe () - before - 1
  in
  Alcotest.(check int) "2 tasks on 8 domains spawn 1" 1 (spawned 8 2);
  Alcotest.(check int) "5 tasks on 3 domains spawn 2" 2 (spawned 3 5);
  Alcotest.(check int) "1 task spawns none" 0 (spawned 4 1)

(* --- solver thread-safety ----------------------------------------------------- *)

(* Four domains hammer overlapping sat/unsat queries; every model must
   satisfy its own query, and the per-domain statistics must sum to the
   aggregate snapshot. *)
let test_solver_stress () =
  Solver.reset_all_for_tests ();
  let x = Term.fresh_var ~name:"stress_x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"stress_y" (Term.Bitvec 8) in
  let sat_query i =
    [
      Term.ugt (Term.var x) (Term.int ~width:8 i);
      Term.ult (Term.var x) (Term.int ~width:8 (i + 40));
      Term.eq
        (Term.band (Term.var y) (Term.int ~width:8 1))
        (Term.int ~width:8 (i land 1));
    ]
  in
  let unsat_query i =
    [
      Term.ult (Term.var x) (Term.int ~width:8 i);
      Term.ugt (Term.var x) (Term.int ~width:8 (i + 40));
    ]
  in
  let tasks = 8 and rounds = 5 in
  let before = (Solver.aggregate_stats ()).Solver.queries in
  let results =
    Pool.map ~domains:4
      (fun t ->
        let ok = ref true in
        for r = 0 to rounds - 1 do
          let i = ((t + r) mod 6) + 1 in
          (match Solver.check (sat_query i) with
          | Solver.Sat model ->
              if not (Model.satisfies model (sat_query i)) then ok := false
          | Solver.Unsat | Solver.Unknown -> ok := false);
          if Solver.is_sat (unsat_query i) then ok := false
        done;
        !ok)
      (Array.init tasks Fun.id)
  in
  Alcotest.(check bool)
    "all answers correct, all models satisfy their query" true
    (Array.for_all (fun r -> r = Ok true) results);
  let after = (Solver.aggregate_stats ()).Solver.queries in
  Alcotest.(check int)
    "per-domain query counts sum to the aggregate" (tasks * rounds * 2)
    (after - before)

(* Statistics are domain-local: a worker's queries never leak into the main
   domain's record, [reset_stats] only touches the caller, and
   [reset_all_for_tests] wipes everyone. *)
let test_stats_isolation () =
  Solver.reset_all_for_tests ();
  let x = Term.fresh_var ~name:"iso_x" (Term.Bitvec 8) in
  let q = [ Term.ult (Term.var x) (Term.int ~width:8 5) ] in
  ignore (Solver.is_sat q);
  Alcotest.(check int) "main counts its query" 1 (Solver.stats ()).Solver.queries;
  let worker =
    Domain.spawn (fun () ->
        ignore (Solver.is_sat q);
        ignore (Solver.is_sat q);
        ignore
          (Solver.is_unsat
             [
               Term.ult (Term.var x) (Term.int ~width:8 3);
               Term.ugt (Term.var x) (Term.int ~width:8 9);
             ]);
        (Solver.stats ()).Solver.queries)
  in
  let worker_queries = Domain.join worker in
  Alcotest.(check int) "worker saw only its own" 3 worker_queries;
  Alcotest.(check int) "main unchanged by the worker" 1
    (Solver.stats ()).Solver.queries;
  Alcotest.(check int) "aggregate sums both" 4
    (Solver.aggregate_stats ()).Solver.queries;
  Solver.reset_stats ();
  Alcotest.(check int) "reset_stats clears the caller" 0
    (Solver.stats ()).Solver.queries;
  Alcotest.(check int) "…but not the worker's record" 3
    (Solver.aggregate_stats ()).Solver.queries;
  Solver.reset_all_for_tests ();
  Alcotest.(check int) "reset_all clears every domain" 0
    (Solver.aggregate_stats ()).Solver.queries

(* --- determinism: random client/server pairs ---------------------------------- *)

let message_size = 3

let layout =
  Layout.make ~name:"par" [ ("tag", 1); ("a", 1); ("b", 1) ]

(* A random server is a binary decision tree over the three message bytes;
   a random client pins each field to a constant or bounds it from above. *)
type tree =
  | Leaf of bool (* accept? *)
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
  prog "gen-server"
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
               let name = Printf.sprintf "in%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog (Printf.sprintf "gen-client%d" idx) ~buffers:[ ("msg", message_size) ] body

(* [negate(pathCi)] builds this run made: the [negate.paths_negated]
   counter and the [negate] span count *)
let negations_built () =
  let snap = Obs.aggregate () in
  ( Option.value ~default:0
      (List.assoc_opt "negate.paths_negated" snap.Obs.counters),
    (List.assoc Obs.Negate snap.Obs.phases).Obs.spans )

let digest_at ~domains ?split_bits ~base client server =
  (* identical starting state for every run: fresh solver contexts, zeroed
     stats, and the fresh-variable counter back where extraction left it *)
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let config =
    {
      Search.default_config with
      Search.domains;
      Search.split_bits;
      Search.witnesses_per_path = 2;
    }
  in
  Report.report_digest (Search.run ~config ~client ~server ())

let qcheck_parallel_determinism =
  QCheck2.Test.make
    ~name:"reports are identical for domains 1, 2 and 4" ~count:15 case_gen
    (fun (tree, client_specs) ->
      let server = server_of_tree tree in
      let clients = List.mapi client_of_spec client_specs in
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let client, _ = Client_extract.extract ~layout clients in
      let base = Term.fresh_counter_value () in
      let reference = digest_at ~domains:1 ~base client server in
      (* each client path is negated once per run at any decomposition, or
         never when no state constrains the message *)
      let paths = Predicate.client_path_count client in
      let negated_once () =
        match negations_built () with
        | 0, 0 -> true
        | n, spans -> n = paths && spans = paths
      in
      negated_once ()
      && List.for_all
           (fun (domains, split_bits) ->
             digest_at ~domains ?split_bits ~base client server = reference
             && negated_once ())
           [ (2, None); (4, None); (4, Some 4); (3, Some 1) ])

(* The headline workload: every shard shares one negation table per run,
   so FSP negates each of its 32 client paths exactly once at -j 1, 2 and
   4 (each shard used to rebuild the whole table). *)
let test_fsp_negations_once_per_run () =
  List.iter
    (fun domains ->
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let a =
        Achilles.analyze
          ~search_config:
            {
              Search.default_config with
              Search.domains;
              Search.mask = Some Fsp_model.analysis_mask;
              Search.witnesses_per_path = 1;
            }
          ~layout:Fsp_model.layout ~clients:(Fsp_model.clients ())
          ~server:Fsp_model.server ()
      in
      let paths = Predicate.client_path_count a.Achilles.client in
      Alcotest.(check int) "FSP has 32 client paths" 32 paths;
      let counted, spans = negations_built () in
      let at what = Printf.sprintf "%s at -j %d" what domains in
      Alcotest.(check int) (at "negate.paths_negated") paths counted;
      Alcotest.(check int) (at "negate spans") paths spans)
    [ 1; 2; 4 ]

(* The empty-frontier degenerate case: a server that never forks gives every
   shard the same spine, exactly one shard owns it, and the merged report
   still matches the sequential one. *)
let test_parallel_no_forks () =
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
  let d1 = digest_at ~domains:1 ~base client server in
  let d4 = digest_at ~domains:4 ~base client server in
  Alcotest.(check string) "fork-free server: domains 1 = domains 4" d1 d4

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map" `Quick test_pool_map;
          Alcotest.test_case "empty batch" `Quick test_pool_empty;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "domain bounds" `Quick test_pool_domain_bounds;
          Alcotest.test_case "size 1 runs inline" `Quick
            test_pool_size_one_inline;
          Alcotest.test_case "spawns at most n - 1 domains" `Quick
            test_pool_spawn_count;
        ] );
      ( "solver",
        [
          Alcotest.test_case "4-domain stress" `Quick test_solver_stress;
          Alcotest.test_case "stats isolation" `Quick test_stats_isolation;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_parallel_determinism;
          Alcotest.test_case "no forks" `Quick test_parallel_no_forks;
          Alcotest.test_case "FSP negates each client path once" `Quick
            test_fsp_negations_once_per_run;
        ] );
    ]
