(* Random client/server pairs over a 3-byte message, for the suites that
   check the search's invariants on generated protocols (split determinism,
   robustness, observability, shard checkpoints, slicing). A random server
   is a binary decision tree over the three message bytes; a random client
   pins each field to a constant or bounds it from above.

   Each suite instantiates {!Make} with its own names for the layout, the
   programs and the client inputs, so its reports and traces stay its own:

     include Random_protocol.Make (struct
       let layout = "par" and program = "gen" and input = "in"
     end) *)

open Achilles_smt
open Achilles_symvm
open Achilles_core

module Make (Names : sig
  val layout : string (* the message layout's name *)
  val program : string (* the server is PROGRAM-server, client i PROGRAM-clienti *)
  val input : string (* client i's input for field j is INPUTi_j *)
end) =
struct
  let message_size = 3

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

  (* A two-path server and two clients, for the suites' fixed scenarios. *)
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

  let run_case ?(config = Search.default_config) ~base client server =
    Solver.reset_all_for_tests ();
    Term.set_fresh_counter base;
    Search.run ~config ~client ~server ()

  let layout =
    Layout.make ~name:Names.layout [ ("tag", 1); ("a", 1); ("b", 1) ]

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
    prog (Names.program ^ "-server")
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
                 let name = Printf.sprintf "%s%d_%d" Names.input idx i in
                 [
                   read_input name ~width:8;
                   when_ (v name >: i8 hi) [ halt ];
                   store "msg" (i8 i) (v name);
                 ])
           spec)
      @ [ send (i8 0) "msg" ]
    in
    prog
      (Printf.sprintf "%s-client%d" Names.program idx)
      ~buffers:[ ("msg", message_size) ]
      body

  (* The case's client predicate, extracted from a reset state, its server,
     and the fresh-variable counter a search of the pair starts from. *)
  let extract_case (tree, client_specs) =
    let server = server_of_tree tree in
    let clients = List.mapi client_of_spec client_specs in
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    let client, _ = Client_extract.extract ~layout clients in
    (client, server, Term.fresh_counter_value ())
end
