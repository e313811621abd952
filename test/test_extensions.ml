(* Tests for features beyond the paper's core pipeline: witness refinement
   (the §4.1 future work), automatic accept/reject classification (§5.1 and
   its HTTP-style extension, on the kv target), and witness minimization. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets

let b8 n = Bv.of_int ~width:8 n

(* --- refinement (§4.1) ----------------------------------------------------------- *)

let test_refine_confirms_rw_trojans () =
  let analysis = Registry.analyze Registry.rw in
  let result =
    Refine.refine ~client:analysis.Achilles.client (Achilles.trojans analysis)
  in
  Alcotest.(check int) "nothing refuted" 0 (List.length result.Refine.refuted);
  Alcotest.(check bool) "witnesses confirmed" true (result.Refine.confirmed <> [])

(* A client whose field value is x mod 4 under a constraint that does not
   restrict the field: without the overlap check, negate produces false
   positives, which the refinement must catch. *)
let tricky_layout = Layout.make ~name:"tricky" [ ("kind", 1); ("val", 1) ]

let tricky_client =
  let open Builder in
  prog "tricky-client" ~buffers:[ ("msg", 2) ]
    [
      read_input "x" ~width:8;
      when_ (v "x" >=: i8 8) [ halt ];
      store "msg" (i8 0) (i8 1);
      store "msg" (i8 1) (v "x" %: i8 4);
      send (i8 0) "msg";
      halt;
    ]

let tricky_server =
  let open Builder in
  prog "tricky-server" ~buffers:[ ("msg", 2); ("reply", 1) ]
    [
      receive "msg";
      when_ (load "msg" (i8 0) <>: i8 1) [ mark_reject "bad-kind" ];
      when_ (load "msg" (i8 1) >=: i8 4) [ mark_reject "bad-val" ];
      send (i8 0) "reply";
      mark_accept "ok";
    ]

let test_refine_catches_overlap_false_positives () =
  (* the server accepts exactly the client's value set {0..3}: there are NO
     Trojan values. With the overlap discard disabled, negate claims some;
     the refinement refutes every one of them. *)
  let config =
    {
      Search.default_config with
      Search.mask = Some [ "val" ];
      Search.check_overlap = false;
      Search.witnesses_per_path = 4;
    }
  in
  let analysis =
    Achilles.analyze ~search_config:config ~layout:tricky_layout
      ~clients:[ tricky_client ] ~server:tricky_server ()
  in
  let trojans = Achilles.trojans analysis in
  Alcotest.(check bool) "unsound run reports false positives" true
    (trojans <> []);
  let result = Refine.refine ~client:analysis.Achilles.client trojans in
  Alcotest.(check int) "all refuted" (List.length trojans)
    (List.length result.Refine.refuted);
  Alcotest.(check int) "none left" 0 (List.length result.Refine.confirmed);
  (* and with the overlap check on (the default), none are reported *)
  let sound =
    Achilles.analyze
      ~search_config:{ config with Search.check_overlap = true }
      ~layout:tricky_layout ~clients:[ tricky_client ] ~server:tricky_server ()
  in
  Alcotest.(check int) "sound run reports none" 0
    (List.length (Achilles.trojans sound))

let test_refine_generable_by () =
  let pc, _ =
    Client_extract.extract ~layout:tricky_layout [ tricky_client ]
  in
  Alcotest.(check bool) "kind=1 val=2 generable" true
    (Refine.generable_by ~client:pc [| b8 1; b8 2 |] <> None);
  Alcotest.(check bool) "kind=1 val=9 not generable" true
    (Refine.generable_by ~client:pc [| b8 1; b8 9 |] = None);
  Alcotest.(check bool) "kind=2 not generable" true
    (Refine.generable_by ~client:pc [| b8 2; b8 0 |] = None)

(* --- automatic classification (§5.1) ------------------------------------------------ *)

let test_classify_by_reply () =
  let open Builder in
  let server =
    prog "replier" ~buffers:[ ("m", 1); ("r", 1) ]
      [
        receive "m";
        if_ (load "m" (i8 0) <: i8 100) [ send (i8 1) "r"; halt ] [ halt ];
      ]
  in
  let config =
    {
      Interp.default_config with
      Interp.auto_classify = Some Interp.classify_by_reply;
    }
  in
  let run = Interp.run ~config server in
  let statuses =
    List.map
      (fun (s : State.t) -> State.status_string s.State.status)
      run.Interp.terminals
    |> List.sort compare
  in
  Alcotest.(check (list string)) "reply => accept, silence => reject"
    [ "accepted:auto:reply"; "rejected:auto:no-reply" ]
    statuses

let test_kv_auto_classification () =
  let run = Interp.run ~config:(Registry.kv.interp ()) (Registry.kv.server ()) in
  let accepted, rejected =
    List.partition
      (fun (s : State.t) ->
        match s.State.status with State.Accepted _ -> true | _ -> false)
      run.Interp.terminals
  in
  (* accepting: GET-200 and PUT-200; rejecting: 400 and 404 *)
  Alcotest.(check int) "two 2xx paths" 2 (List.length accepted);
  Alcotest.(check bool) "some 4xx paths" true (List.length rejected >= 2);
  List.iter
    (fun (s : State.t) ->
      match s.State.status with
      | State.Accepted label ->
          Alcotest.(check string) "status label" "auto:status-2" label
      | _ -> ())
    accepted

let kv_analysis =
  lazy
    (Registry.analyze
       ~config:(Registry.search_config ~witnesses:8 Registry.kv)
       Registry.kv)

let test_kv_trojans () =
  let analysis = Lazy.force kv_analysis in
  let trojans = Achilles.trojans analysis in
  Alcotest.(check bool) "trojans found" true (trojans <> []);
  List.iter
    (fun (t : Search.trojan) ->
      Alcotest.(check bool) "matches ground truth" true
        (Kv_model.is_trojan t.Search.witness))
    trojans;
  (* both families appear among the witnesses *)
  let bad_token =
    List.exists
      (fun (t : Search.trojan) ->
        Bv.to_int (Layout.field_value Kv_model.layout t.Search.witness "token")
        <> Kv_model.secret_token)
      trojans
  in
  let foreign_key =
    List.exists
      (fun (t : Search.trojan) ->
        let key =
          Bv.to_int (Layout.field_value Kv_model.layout t.Search.witness "key")
        in
        key >= Kv_model.client_key_space && key < Kv_model.server_key_space)
      trojans
  in
  Alcotest.(check bool) "unchecked-token family found" true bad_token;
  Alcotest.(check bool) "foreign-key family found" true foreign_key;
  (* refinement confirms them all *)
  let result = Refine.refine ~client:analysis.Achilles.client trojans in
  Alcotest.(check int) "refinement confirms" 0 (List.length result.Refine.refuted)

let test_kv_concrete_agrees () =
  (* the concrete server accepts exactly what the oracle says it accepts *)
  let mk ~meth ~key ~token =
    let bytes = Array.make Kv_model.message_size (Bv.zero 8) in
    bytes.(0) <- b8 meth;
    bytes.(1) <- b8 (key lsr 8);
    bytes.(2) <- b8 (key land 0xFF);
    bytes.(5) <- b8 (token lsr 8);
    bytes.(6) <- b8 (token land 0xFF);
    bytes
  in
  let server_status msg =
    let outcome = Concrete.run ~incoming:[ msg ] Kv_model.server in
    match outcome.Concrete.sent with
    | (_, reply) :: _ -> Bv.to_int reply.(0)
    | [] -> -1
  in
  Alcotest.(check int) "valid GET -> 2xx" 2
    (server_status (mk ~meth:1 ~key:5 ~token:Kv_model.secret_token));
  Alcotest.(check int) "bad token still 2xx (the bug)" 2
    (server_status (mk ~meth:1 ~key:5 ~token:0));
  Alcotest.(check int) "foreign key still 2xx (the bug)" 2
    (server_status (mk ~meth:1 ~key:150 ~token:Kv_model.secret_token));
  Alcotest.(check int) "oversized key -> 4xx" 4
    (server_status (mk ~meth:1 ~key:5000 ~token:Kv_model.secret_token));
  Alcotest.(check int) "bad method -> 4xx" 4
    (server_status (mk ~meth:9 ~key:5 ~token:Kv_model.secret_token))

(* the symbolic exploration's auto-classified verdict must match the
   concrete server's reply status for any message *)
let qcheck_kv_classification_consistent =
  let exploration =
    lazy
      (let run = Interp.run ~config:(Registry.kv.interp ()) (Registry.kv.server ()) in
       List.filter_map
         (fun (st : State.t) ->
           match st.State.msg_vars, st.State.status with
           | Some vars, (State.Accepted _ | State.Rejected _) ->
               Some (vars, State.constraints st, st.State.status)
           | _ -> None)
         run.Interp.terminals)
  in
  let gen =
    QCheck2.Gen.(
      let* meth = int_range 0 3 in
      let* key = int_range 0 300 in
      let* token = oneofl [ Kv_model.secret_token; 0; 0xFFFF ] in
      return (meth, key, token))
  in
  QCheck2.Test.make ~name:"auto-classification matches concrete replies"
    ~count:60 gen (fun (meth, key, token) ->
      let message =
        let bytes = Array.make Kv_model.message_size (Bv.zero 8) in
        bytes.(0) <- b8 meth;
        bytes.(1) <- b8 (key lsr 8);
        bytes.(2) <- b8 (key land 0xFF);
        bytes.(5) <- b8 (token lsr 8);
        bytes.(6) <- b8 (token land 0xFF);
        bytes
      in
      let concrete_accepts =
        let outcome = Concrete.run ~incoming:[ message ] Kv_model.server in
        match outcome.Concrete.sent with
        | (_, reply) :: _ -> Bv.to_int reply.(0) = 2
        | [] -> false
      in
      (* exactly one symbolic path covers the message, with the same verdict *)
      let covering =
        List.filter
          (fun (vars, constraints, _) ->
            let model =
              Array.to_seq vars
              |> Seq.mapi (fun i v -> (v, Model.Vbv message.(i)))
              |> List.of_seq |> Model.of_list
            in
            Model.satisfies model constraints)
          (Lazy.force exploration)
      in
      match covering with
      | [ (_, _, State.Accepted _) ] -> concrete_accepts
      | [ (_, _, State.Rejected _) ] -> not concrete_accepts
      | _ -> false)

(* --- witness minimization -------------------------------------------------------------- *)

let test_minimize_witness () =
  let analysis = Lazy.force kv_analysis in
  match Achilles.trojans analysis with
  | [] -> Alcotest.fail "no trojans"
  | t :: _ ->
      let minimized = Search.minimize_witness t in
      let zeros a =
        Array.fold_left
          (fun n b -> if Bv.equal b (Bv.zero 8) then n + 1 else n)
          0 a
      in
      Alcotest.(check bool) "no fewer zero bytes" true
        (zeros minimized >= zeros t.Search.witness);
      (* still a Trojan of the same expression *)
      let still_trojan =
        Solver.is_sat
          (Array.to_list
             (Array.mapi
                (fun i b -> Term.eq (Term.var t.Search.msg_vars.(i)) (Term.const b))
                minimized)
          @ t.Search.symbolic)
      in
      Alcotest.(check bool) "minimized witness satisfies the expression" true
        still_trojan;
      Alcotest.(check bool) "and the ground truth" true
        (Kv_model.is_trojan minimized)

(* --- drop explanations (unsat cores) ------------------------------------------------ *)

let test_drop_explanations () =
  let config =
    { (Registry.search_config Registry.rw) with Search.explain_drops = true }
  in
  let analysis = Registry.analyze ~config Registry.rw in
  let drops = analysis.Achilles.report.Search.drops in
  Alcotest.(check bool) "drops recorded" true (drops <> []);
  (* the WRITE client path (cp_id 1) dies on the READ branch, and vice
     versa; each explanation carries a non-empty conflicting core *)
  let dropped_ids =
    List.sort_uniq compare
      (List.map (fun (d : Search.drop_explanation) -> d.Search.dropped_path) drops)
  in
  Alcotest.(check (list int)) "both client paths die somewhere" [ 0; 1 ]
    dropped_ids;
  List.iter
    (fun (d : Search.drop_explanation) ->
      Alcotest.(check bool) "non-empty core" true (d.Search.conflicting <> []))
    drops;
  (* a core really is conflicting: re-checking it against the binding of the
     dropped path must be UNSAT. A drop refuted by substitution names the
     one server conjunct that folded, never the core of an earlier query *)
  let server_paths = analysis.Achilles.report.Search.accepting in
  match server_paths with
  | sp :: _ ->
      let server_vars = sp.Predicate.msg_vars in
      let refuted =
        List.filter
          (fun (d : Search.drop_explanation) ->
            let path =
              List.nth analysis.Achilles.client.Predicate.paths
                d.Search.dropped_path
            in
            Alcotest.(check bool) "core conflicts with the binding" true
              (Solver.is_unsat
                 (d.Search.conflicting @ Predicate.bind_to_server ~server_vars path));
            match d.Search.conflicting with
            | [ c ] -> Predicate.refuter ~server_vars path c
            | _ -> false)
          drops
      in
      Alcotest.(check bool) "a refuted drop names its folded conjunct" true
        (refuted <> [])
  | [] -> Alcotest.fail "no accepting paths"

(* --- conformance: lost messages (C \ S) ----------------------------------------------- *)

let test_conformance_fsp_lost_messages () =
  (* FSP clients copy unconstrained trailing bytes; the server insists they
     are NUL-or-printable: lost messages must exist *)
  let client, _ =
    Client_extract.extract ~layout:Fsp_model.layout
      [ Fsp_model.client (List.hd Fsp_model.commands) ]
  in
  let report = Conformance.run ~client ~server:Fsp_model.server () in
  Alcotest.(check bool) "lost messages found" true (report.Conformance.lost <> []);
  List.iter
    (fun (l : Conformance.lost) ->
      (* generable by the client... *)
      Alcotest.(check bool) "client can generate it" true
        (Refine.generable_by ~client l.Conformance.witness <> None);
      (* ...rejected by the live server *)
      let outcome =
        Concrete.run ~incoming:[ l.Conformance.witness ] Fsp_model.server
      in
      match outcome.Concrete.status with
      | State.Rejected _ -> ()
      | s ->
          Alcotest.failf "server should reject a lost message, got %s"
            (State.status_string s))
    report.Conformance.lost

let test_conformance_rw_clean () =
  (* the working example's server accepts everything its client produces *)
  let client, _ =
    Client_extract.extract ~layout:Rw_example.layout [ Rw_example.client ]
  in
  let report = Conformance.run ~client ~server:Rw_example.server () in
  Alcotest.(check int) "no lost messages" 0 (List.length report.Conformance.lost);
  Alcotest.(check int) "both accepting paths seen" 2
    report.Conformance.accepting_paths

(* --- gossip / Amazon-S3 scenario (§1 + §3.4 concrete local state) ------------------ *)

let gossip_client_interp ~observed =
  Local_state.concrete
    ~incoming:(List.init observed (fun _ -> Gossip_model.failure_event))
    ~prefix:Gossip_model.reporter_prefix Interp.default_config

(* the registry's gossip target, with the aggregator [hardened] or not and
   the reporter having observed [observed] failure events *)
let gossip_analysis ~hardened ~observed =
  let target =
    {
      Registry.gossip with
      server = (fun () -> Gossip_model.aggregator ~hardened ());
      client_interp = Some (fun () -> gossip_client_interp ~observed);
    }
  in
  Registry.analyze ~config:(Registry.search_config ~witnesses:6 target) target

let test_gossip_concrete_state_trojans () =
  let observed = 2 in
  let analysis = gossip_analysis ~hardened:false ~observed in
  let trojans = Achilles.trojans analysis in
  Alcotest.(check bool) "trojans found" true (trojans <> []);
  List.iter
    (fun (t : Search.trojan) ->
      Alcotest.(check bool) "count differs from the scenario's" true
        (Gossip_model.is_trojan ~observed t.Search.witness))
    trojans;
  (* the client predicate pins count to the concrete local state *)
  let path = List.hd analysis.Achilles.client.Predicate.paths in
  let count_term =
    Layout.field_term Gossip_model.layout path.Predicate.message "count"
  in
  Alcotest.(check bool) "count field is the concrete 2" true
    (Term.equal count_term (Term.int ~width:8 observed))

let test_gossip_scenario_dependence () =
  (* the same message is Trojan in one scenario and valid in another — the
     paper's point about the S3 outage message *)
  let report count =
    let bytes = Array.make Gossip_model.message_size (Bv.zero 8) in
    bytes.(0) <- b8 Gossip_model.msg_report;
    bytes.(1) <- b8 1;
    bytes.(2) <- b8 count;
    bytes.(4) <- b8 Gossip_model.current_epoch;
    bytes
  in
  Alcotest.(check bool) "count 5 is Trojan with 2 failures" true
    (Gossip_model.is_trojan ~observed:2 (report 5));
  Alcotest.(check bool) "count 5 is valid with 5 failures" false
    (Gossip_model.is_trojan ~observed:5 (report 5));
  (* and Achilles agrees: with 5 observed failures, count=5 is generable *)
  let analysis = gossip_analysis ~hardened:false ~observed:5 in
  Alcotest.(check bool) "witness counts never equal 5" true
    (List.for_all
       (fun (t : Search.trojan) ->
         Bv.to_int
           (Layout.field_value Gossip_model.layout t.Search.witness "count")
         <> 5)
       (Achilles.trojans analysis))

let test_gossip_hardened_rejects_corruption () =
  let node =
    Achilles_runtime.Node.create (Gossip_model.aggregator ~hardened:true ())
  in
  let bad =
    let bytes = Array.make Gossip_model.message_size (Bv.zero 8) in
    bytes.(0) <- b8 Gossip_model.msg_report;
    bytes.(1) <- b8 1;
    bytes.(2) <- b8 66 (* the bit-flipped count *);
    bytes.(4) <- b8 Gossip_model.current_epoch;
    bytes
  in
  let outcome = Achilles_runtime.Node.deliver node bad in
  Alcotest.(check string) "implausible count rejected"
    "rejected:implausible-count"
    (State.status_string outcome.Achilles_symvm.Concrete.status)

(* grammar describer sanity (appended suite) *)
let test_grammar_rw () =
  let pc, _ =
    Client_extract.extract ~layout:Rw_example.layout [ Rw_example.client ]
  in
  let grammar = Report.describe_grammar pc in
  let find name = List.assoc name grammar in
  (match find "request" with
  | Report.Constant values ->
      Alcotest.(check (list int)) "request constants" [ 1; 2 ]
        (List.map Bv.to_int values)
  | _ -> Alcotest.fail "request should be constant");
  (match find "address" with
  | Report.Ranged { low; high } ->
      Alcotest.(check int) "address low" 0 (Bv.to_int low);
      Alcotest.(check int) "address high" 99 (Bv.to_int high)
  | _ -> Alcotest.fail "address should be ranged");
  (match find "sender" with
  | Report.Ranged { low; high } ->
      Alcotest.(check int) "sender low" 1 (Bv.to_int low);
      Alcotest.(check int) "sender high" 3 (Bv.to_int high)
  | _ -> Alcotest.fail "sender should be ranged");
  match find "value" with
  | Report.Unconstrained -> ()
  | _ -> Alcotest.fail "value should be unconstrained (WRITE path)"

let test_grammar_fsp () =
  let pc, _ =
    Client_extract.extract ~layout:Fsp_model.layout
      [ Fsp_model.client (List.hd Fsp_model.commands) ]
  in
  let grammar = Report.describe_grammar ~mask:Fsp_model.analysis_mask pc in
  (match List.assoc "cmd" grammar with
  | Report.Constant [ v ] -> Alcotest.(check int) "cmd" 0x10 (Bv.to_int v)
  | _ -> Alcotest.fail "cmd should be one constant");
  match List.assoc "bb_len" grammar with
  | Report.Constant values ->
      Alcotest.(check (list int)) "lengths" [ 1; 2; 3; 4 ]
        (List.map Bv.to_int values)
  | _ -> Alcotest.fail "bb_len should be constants"

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "extensions"
    [
      qsuite "auto-classify-properties" [ qcheck_kv_classification_consistent ];
      ( "refine",
        [
          Alcotest.test_case "confirms real trojans" `Quick
            test_refine_confirms_rw_trojans;
          Alcotest.test_case "catches overlap FPs" `Quick
            test_refine_catches_overlap_false_positives;
          Alcotest.test_case "generable_by" `Quick test_refine_generable_by;
        ] );
      ( "auto-classify",
        [
          Alcotest.test_case "by reply" `Quick test_classify_by_reply;
          Alcotest.test_case "kv status codes" `Quick test_kv_auto_classification;
          Alcotest.test_case "kv trojans" `Quick test_kv_trojans;
          Alcotest.test_case "kv concrete agrees" `Quick test_kv_concrete_agrees;
        ] );
      ( "minimize",
        [ Alcotest.test_case "witness minimization" `Quick test_minimize_witness ] );
      ( "explain",
        [ Alcotest.test_case "drop explanations" `Quick test_drop_explanations ] );
      ( "conformance",
        [
          Alcotest.test_case "fsp lost messages" `Quick
            test_conformance_fsp_lost_messages;
          Alcotest.test_case "rw has none" `Quick test_conformance_rw_clean;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "rw summary" `Quick test_grammar_rw;
          Alcotest.test_case "fsp summary" `Quick test_grammar_fsp;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "concrete-state trojans" `Quick
            test_gossip_concrete_state_trojans;
          Alcotest.test_case "scenario dependence" `Quick
            test_gossip_scenario_dependence;
          Alcotest.test_case "hardened rejects corruption" `Quick
            test_gossip_hardened_rejects_corruption;
        ] );
    ]
