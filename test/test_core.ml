(* Tests for the Achilles core: predicates, the negate operator, the
   differentFrom matrix, the incremental search, and the local-state
   modes. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets

let b8 n = Bv.of_int ~width:8 n

(* A tiny 3-field layout for hand-built client paths. *)
let tiny = Layout.make ~name:"tiny" [ ("kind", 1); ("val", 1); ("pad", 1) ]

let fresh8 name = Term.fresh_var ~name (Term.Bitvec 8)

let path_of ~kind ~value ~constraints =
  {
    Predicate.cp_id = 0;
    source = "test";
    message = [| kind; value; Term.int ~width:8 0 |];
    constraints;
  }

let server_vars () =
  Array.init 3 (fun i -> Term.fresh_var ~name:(Printf.sprintf "m%d" i) (Term.Bitvec 8))

(* --- negate ------------------------------------------------------------------ *)

let test_negate_constant_field () =
  let path =
    path_of ~kind:(Term.int ~width:8 7) ~value:(Term.int ~width:8 1)
      ~constraints:[]
  in
  let target = Term.var (fresh8 "t") in
  match Negate.negate_field ~layout:tiny ~target path "kind" with
  | Some negation ->
      (* models of the negation are exactly target <> 7 *)
      Alcotest.(check bool) "7 excluded" false
        (Solver.is_sat [ negation; Term.eq target (Term.int ~width:8 7) ]);
      Alcotest.(check bool) "8 included" true
        (Solver.is_sat [ negation; Term.eq target (Term.int ~width:8 8) ])
  | None -> Alcotest.fail "constant field must be negatable"

let test_negate_constrained_symbolic_field () =
  let x = fresh8 "x" in
  let constraints =
    [ Term.ult (Term.var x) (b8 10 |> Term.const); Term.ugt (Term.var x) (Term.const (b8 2)) ]
  in
  let path =
    path_of ~kind:(Term.int ~width:8 1) ~value:(Term.var x) ~constraints
  in
  let target = Term.var (fresh8 "t") in
  match Negate.negate_field ~layout:tiny ~target path "val" with
  | Some negation ->
      (* anything in (2, 10) is generable, so it must NOT satisfy the
         negation; values outside are exactly what the negation captures *)
      Alcotest.(check bool) "5 excluded" false
        (Solver.is_sat [ negation; Term.eq target (Term.int ~width:8 5) ]);
      Alcotest.(check bool) "1 included" true
        (Solver.is_sat [ negation; Term.eq target (Term.int ~width:8 1) ]);
      Alcotest.(check bool) "200 included" true
        (Solver.is_sat [ negation; Term.eq target (Term.int ~width:8 200) ])
  | None -> Alcotest.fail "constrained field must be negatable"

let test_negate_abandons_unconstrained () =
  let x = fresh8 "x" in
  let path =
    path_of ~kind:(Term.int ~width:8 1) ~value:(Term.var x) ~constraints:[]
  in
  let target = Term.var (fresh8 "t") in
  Alcotest.(check bool) "unconstrained symbolic field abandoned" true
    (Negate.negate_field ~layout:tiny ~target path "val" = None)

let test_negate_path_overlap_discard () =
  (* field value x mod 4 under constraint x < 8: the constraint does not
     actually restrict the field (x mod 4 covers {0..3} either way), so the
     negation's values (x' mod 4 with x' >= 8) are all producible by the
     client and the overlap check must discard the disjunct; with only this
     field analyzed the whole path negation collapses to false *)
  let x = fresh8 "x" in
  let value = Term.urem (Term.var x) (Term.int ~width:8 4) in
  let path =
    path_of ~kind:(Term.int ~width:8 1) ~value
      ~constraints:[ Term.ult (Term.var x) (Term.const (b8 8)) ]
  in
  let vars = server_vars () in
  let negation =
    Negate.negate_path ~check_overlap:true ~mask:[ "val" ] ~layout:tiny
      ~server_vars:vars path
  in
  Alcotest.(check bool) "collapsed to false" true (Term.equal negation Term.fls);
  (* without the overlap check the unsound disjunct survives *)
  let unsound =
    Negate.negate_path ~check_overlap:false ~mask:[ "val" ] ~layout:tiny
      ~server_vars:vars path
  in
  Alcotest.(check bool) "kept without the check" false
    (Term.equal unsound Term.fls)

let test_negate_related_constraints_transitive () =
  let x = fresh8 "x" and y = fresh8 "y" in
  let path =
    path_of ~kind:(Term.int ~width:8 1) ~value:(Term.var x)
      ~constraints:
        [
          Term.eq (Term.var y) (Term.add (Term.var x) (Term.int ~width:8 1));
          Term.ult (Term.var y) (Term.const (b8 5));
        ]
  in
  let related = Negate.related_constraints path [ x.Term.id ] in
  Alcotest.(check int) "closure pulls in the y constraint" 2
    (List.length related)

(* negate is an under-approximation and, with the overlap check, has no
   false positives: any model of negate_path names a message the client
   path cannot produce. *)
let qcheck_negate_sound =
  let gen =
    QCheck2.Gen.(
      let* lo = int_range 0 120 in
      let* hi = int_range (lo + 1) 127 in
      let* kind = int_range 0 255 in
      return (lo, hi, kind))
  in
  QCheck2.Test.make ~name:"negate has no false positives" ~count:40 gen
    (fun (lo, hi, kind) ->
      let x = fresh8 "x" in
      let constraints =
        [
          Term.ule (Term.const (b8 lo)) (Term.var x);
          Term.ule (Term.var x) (Term.const (b8 hi));
        ]
      in
      let path =
        path_of ~kind:(Term.int ~width:8 kind) ~value:(Term.var x) ~constraints
      in
      let vars = server_vars () in
      let negation =
        Negate.negate_path ~layout:tiny ~server_vars:vars path
      in
      match Solver.get_model [ negation ] with
      | None -> true (* nothing claimed: trivially sound *)
      | Some model ->
          let witness_kind =
            match Model.find model vars.(0) with
            | Some (Model.Vbv v) -> Bv.to_int v
            | _ -> 0
          in
          let witness_val =
            match Model.find model vars.(1) with
            | Some (Model.Vbv v) -> Bv.to_int v
            | _ -> 0
          in
          (* the client produces exactly kind = [kind], value in [lo,hi] *)
          not (witness_kind = kind && witness_val >= lo && witness_val <= hi))

(* --- predicates ----------------------------------------------------------------- *)

let test_bind_to_server () =
  let x = fresh8 "x" in
  let path =
    path_of ~kind:(Term.int ~width:8 3) ~value:(Term.var x)
      ~constraints:[ Term.ult (Term.var x) (Term.const (b8 10)) ]
  in
  let vars = server_vars () in
  let binding = Predicate.bind_to_server ~server_vars:vars path in
  (* a server message with kind 3 and small value is compatible... *)
  Alcotest.(check bool) "compatible" true
    (Solver.is_sat
       (Term.eq (Term.var vars.(0)) (Term.int ~width:8 3)
       :: Term.eq (Term.var vars.(1)) (Term.int ~width:8 4)
       :: binding));
  (* ...but kind 4 is not *)
  Alcotest.(check bool) "incompatible kind" false
    (Solver.is_sat
       (Term.eq (Term.var vars.(0)) (Term.int ~width:8 4) :: binding))

let test_independent_fields () =
  let pc, _ =
    Client_extract.extract ~layout:Rw_example.layout [ Rw_example.client ]
  in
  (* unmasked, the checksum couples every field: nothing is independent *)
  let all = Predicate.independent_fields pc in
  Alcotest.(check bool) "crc is dependent" false (List.mem "crc" all);
  Alcotest.(check bool) "address coupled through crc" false
    (List.mem "address" all);
  (* with the checksum masked out (as the paper's evaluation does), the
     remaining fields decouple *)
  let masked =
    Predicate.independent_fields ~mask:[ "request"; "address"; "value" ] pc
  in
  Alcotest.(check bool) "address independent under mask" true
    (List.mem "address" masked);
  Alcotest.(check bool) "request independent under mask" true
    (List.mem "request" masked)

(* --- differentFrom ---------------------------------------------------------------- *)

let fsp_predicate =
  lazy (fst (Client_extract.extract ~layout:Fsp_model.layout (Fsp_model.clients ())))

let test_different_from_fsp () =
  let pc = Lazy.force fsp_predicate in
  let df, stats = Different_from.compute ~mask:Fsp_model.analysis_mask pc in
  Alcotest.(check bool) "cmd covered" true (Different_from.covers_field df "cmd");
  Alcotest.(check bool) "bb_len covered" true
    (Different_from.covers_field df "bb_len");
  Alcotest.(check bool) "some pair checks ran" true
    (stats.Different_from.pairs_checked > 0);
  (* paths 0..3 come from the first client (lengths 1..4), later ones from
     other clients; find two paths of the same client and two of different
     clients and check cmd/bb_len difference *)
  let paths = Array.of_list pc.Predicate.paths in
  let cmd_of i =
    match
      Term.const_value
        (Layout.field_term Fsp_model.layout paths.(i).Predicate.message "cmd")
    with
    | Some bv -> Bv.to_int bv
    | None -> -1
  in
  let len_of i =
    match
      Term.const_value
        (Layout.field_term Fsp_model.layout paths.(i).Predicate.message "bb_len")
    with
    | Some bv -> Bv.to_int bv
    | None -> -1
  in
  let same_cmd = ref None and diff_cmd = ref None in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          if i <> j then begin
            if cmd_of i = cmd_of j && !same_cmd = None then
              same_cmd := Some (i, j);
            if cmd_of i <> cmd_of j && !diff_cmd = None then
              diff_cmd := Some (i, j)
          end)
        paths)
    paths;
  (match !diff_cmd with
  | Some (i, j) ->
      Alcotest.(check bool) "different commands differ on cmd" true
        (Different_from.different df ~i ~j ~field:"cmd")
  | None -> Alcotest.fail "no differing-cmd pair");
  (match !same_cmd with
  | Some (i, j) ->
      Alcotest.(check bool) "same command: no cmd difference" false
        (Different_from.different df ~i ~j ~field:"cmd");
      if len_of i <> len_of j then
        Alcotest.(check bool) "different lengths differ on bb_len" true
          (Different_from.different df ~i ~j ~field:"bb_len")
  | None -> Alcotest.fail "no same-cmd pair")

(* --- search ------------------------------------------------------------------------ *)

let rw_analysis config = Registry.analyze ~config Registry.rw
let rw_config () = Registry.search_config Registry.rw

let test_search_rw_finds_trojan () =
  let analysis = rw_analysis (rw_config ()) in
  let trojans = Achilles.trojans analysis in
  Alcotest.(check int) "one accepting trojan path" 1 (List.length trojans);
  let t = List.hd trojans in
  Alcotest.(check string) "on the READ path" "read" t.Search.accept_label;
  Alcotest.(check bool) "witness is a ground-truth trojan" true
    (Rw_example.is_trojan t.Search.witness);
  (* the WRITE path was pruned before reaching its accept marker *)
  Alcotest.(check bool) "a state was pruned" true
    (analysis.Achilles.report.Search.search_stats.Search.pruned_states >= 1)

let test_search_optimizations_equivalent () =
  (* all four on/off combinations of the two §3.3 optimizations find the
     same Trojans on the working example *)
  let label_sets =
    List.map
      (fun (drop_alive, use_df) ->
        let config =
          {
            (rw_config ()) with
            Search.drop_alive = drop_alive;
            Search.use_different_from = use_df;
          }
        in
        let analysis = rw_analysis config in
        List.map
          (fun (t : Search.trojan) ->
            (t.Search.accept_label, Rw_example.is_trojan t.Search.witness))
          (Achilles.trojans analysis))
      [ (true, true); (true, false); (false, true); (false, false) ]
  in
  match label_sets with
  | first :: rest ->
      List.iteri
        (fun i other ->
          Alcotest.(check (list (pair string bool)))
            (Printf.sprintf "config %d equivalent" (i + 1))
            first other)
        rest
  | [] -> assert false

let test_search_no_pruning_still_correct () =
  let config = { (rw_config ()) with Search.prune_no_trojan = false } in
  let analysis = rw_analysis config in
  (* without pruning, the WRITE path reaches its accept marker but yields no
     witness (its Trojan query is unsatisfiable) *)
  Alcotest.(check int) "both paths accept" 2
    analysis.Achilles.report.Search.search_stats.Search.accepting_paths;
  let trojans = Achilles.trojans analysis in
  Alcotest.(check int) "still exactly one trojan" 1 (List.length trojans);
  Alcotest.(check bool) "and it is real" true
    (Rw_example.is_trojan (List.hd trojans).Search.witness)

let test_search_alive_samples_decrease () =
  let analysis = rw_analysis (rw_config ()) in
  let samples =
    analysis.Achilles.report.Search.search_stats.Search.alive_samples
  in
  Alcotest.(check bool) "samples recorded" true (List.length samples > 0);
  List.iter
    (fun (s : Search.alive_sample) ->
      Alcotest.(check bool) "alive bounded by client paths" true
        (s.Search.alive <= 2))
    samples

let test_search_witness_enumeration () =
  let config =
    {
      (rw_config ()) with
      Search.witnesses_per_path = 5 (* block exact bytes between witnesses *);
    }
  in
  let analysis = rw_analysis config in
  let trojans = Achilles.trojans analysis in
  Alcotest.(check int) "five distinct witnesses" 5 (List.length trojans);
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun (t : Search.trojan) ->
           Array.to_list (Array.map Bv.value t.Search.witness))
         trojans)
  in
  Alcotest.(check int) "all different" 5 (List.length distinct);
  List.iter
    (fun (t : Search.trojan) ->
      Alcotest.(check bool) "each is a ground-truth trojan" true
        (Rw_example.is_trojan t.Search.witness))
    trojans

(* --- local state -------------------------------------------------------------------- *)

(* the registry's Paxos target, analysed from the acceptor state [interp] *)
let paxos_trojans interp =
  Achilles.trojans
    (Registry.analyze { Registry.paxos with interp = (fun () -> interp) })

let test_local_state_concrete () =
  (* acceptor promised ballot 5, proposers locked on value 7: Accepts with
     value <> 7 are Trojan *)
  let interp =
    Local_state.concrete ~prefix:(Paxos_model.phase1_prefix ~ballot:5)
      Interp.default_config
  in
  let trojans =
    paxos_trojans interp
  in
  Alcotest.(check bool) "found trojans" true (trojans <> []);
  List.iter
    (fun (t : Search.trojan) ->
      Alcotest.(check bool) "value <> 7, ballot >= 5" true
        (Paxos_model.is_phase2_trojan ~promised:5 ~chosen_value:7
           t.Search.witness
        || (* prepare-side trojans are possible too: any prepare with a high
              ballot is generable... the proposer only sends Accept, so
              Prepare messages are all Trojan *)
        Bv.to_int
          (Layout.field_value Paxos_model.layout t.Search.witness "mtype")
        = Paxos_model.msg_prepare))
    trojans

let test_local_state_constructed_symbolic () =
  (* run the symbolic proposer once; its Accept (with symbolic value V)
     becomes round 1, binding the acceptor's... in this simple acceptor the
     interesting part is that the analysis still completes and finds value
     Trojans for the fresh round-2 message *)
  let pc, _ =
    Client_extract.extract ~layout:Paxos_model.layout
      [ Paxos_model.proposer_symbolic ]
  in
  Alcotest.(check bool) "proposer captured" true (pc.Predicate.paths <> []);
  let first = List.hd pc.Predicate.paths in
  let rounds =
    [
      {
        State.dst = Term.int ~width:8 0;
        State.payload = first.Predicate.message;
        State.path_at_send = List.rev first.Predicate.constraints;
        State.during_analysis = false;
      };
    ]
  in
  let interp = Local_state.constructed_symbolic ~rounds Interp.default_config in
  let trojans =
    paxos_trojans interp
  in
  Alcotest.(check bool) "analysis completes with symbolic round" true
    (trojans <> [])

let test_local_state_over_approximate () =
  let interp =
    Local_state.over_approximate
      ~vars:[ ("promised", 16) ]
      ~constrain:(fun m ->
        [
          Term.ule
            (State.String_map.find "promised" m)
            (Term.int ~width:16 10);
        ])
      Interp.default_config
  in
  let trojans =
    paxos_trojans interp
  in
  Alcotest.(check bool) "found trojans under symbolic state" true
    (trojans <> [])

(* --- report helpers ------------------------------------------------------------------- *)

let test_discovery_curve () =
  let mk found_at =
    {
      Search.server_state_id = 0;
      accept_label = "a";
      witness = [||];
      symbolic = [];
      msg_vars = [||];
      confirmed = true;
      found_at;
    }
  in
  let curve = Report.discovery_curve ~total:4 [ mk 1.0; mk 2.0; mk 3.0 ] in
  Alcotest.(check int) "three points" 3 (List.length curve);
  Alcotest.(check (float 0.01)) "last point at 75%" 75.
    (snd (List.nth curve 2));
  let ascii = Report.render_ascii_curve curve in
  Alcotest.(check bool) "plot rendered" true (String.length ascii > 0)

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "core"
    [
      ( "negate",
        [
          Alcotest.test_case "constant field" `Quick test_negate_constant_field;
          Alcotest.test_case "constrained field" `Quick
            test_negate_constrained_symbolic_field;
          Alcotest.test_case "abandons unconstrained" `Quick
            test_negate_abandons_unconstrained;
          Alcotest.test_case "overlap discard" `Quick
            test_negate_path_overlap_discard;
          Alcotest.test_case "transitive constraints" `Quick
            test_negate_related_constraints_transitive;
        ] );
      qsuite "negate-properties" [ qcheck_negate_sound ];
      ( "predicate",
        [
          Alcotest.test_case "bind to server" `Quick test_bind_to_server;
          Alcotest.test_case "independent fields" `Quick test_independent_fields;
        ] );
      ( "different-from",
        [ Alcotest.test_case "fsp matrix" `Slow test_different_from_fsp ] );
      ( "search",
        [
          Alcotest.test_case "rw trojan found" `Quick test_search_rw_finds_trojan;
          Alcotest.test_case "optimizations equivalent" `Slow
            test_search_optimizations_equivalent;
          Alcotest.test_case "no pruning still correct" `Quick
            test_search_no_pruning_still_correct;
          Alcotest.test_case "alive samples" `Quick
            test_search_alive_samples_decrease;
          Alcotest.test_case "witness enumeration" `Quick
            test_search_witness_enumeration;
        ] );
      ( "local-state",
        [
          Alcotest.test_case "concrete" `Quick test_local_state_concrete;
          Alcotest.test_case "constructed symbolic" `Quick
            test_local_state_constructed_symbolic;
          Alcotest.test_case "over-approximate" `Quick
            test_local_state_over_approximate;
        ] );
      ( "report",
        [ Alcotest.test_case "discovery curve" `Quick test_discovery_curve ] );
    ]
