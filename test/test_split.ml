(* The headline determinism guarantee of the sharded search: any
   [split_bits] setting produces the identical report, checked here on
   random client/server pairs and on the degenerate cases. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Obs = Achilles_obs.Obs

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

(* The headline workload: every shard shares one negation table per run,
   so FSP negates each of its 32 client paths exactly once at 1, 4 and 16
   shards (each shard used to rebuild the whole table). *)
let test_fsp_negations_once_per_run () =
  List.iter
    (fun split_bits ->
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let a =
        Achilles.analyze
          ~search_config:
            {
              Search.default_config with
              Search.split_bits = Some split_bits;
              Search.mask = Some Fsp_model.analysis_mask;
              Search.witnesses_per_path = 1;
            }
          ~layout:Fsp_model.layout ~clients:(Fsp_model.clients ())
          ~server:Fsp_model.server ()
      in
      let paths = Predicate.client_path_count a.Achilles.client in
      Alcotest.(check int) "FSP has 32 client paths" 32 paths;
      let counted, spans = negations_built () in
      let at what = Printf.sprintf "%s at %d split bits" what split_bits in
      Alcotest.(check int) (at "negate.paths_negated") paths counted;
      Alcotest.(check int) (at "negate spans") paths spans)
    [ 0; 2; 4 ]

(* The empty-frontier degenerate case: a server that never forks gives every
   shard the same spine, exactly one shard owns it, and the merged report
   still matches the one-shard one. *)
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
        ] );
    ]
