(* Tests for the target-system models: the working example, FSP, PBFT and
   Paxos — mostly through concrete execution, which pins down the protocol
   semantics the symbolic experiments rely on — and for the registry that
   bundles them. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets

let b8 n = Bv.of_int ~width:8 n

let status_of outcome = State.status_string outcome.Concrete.status

(* --- helpers to build concrete FSP messages ----------------------------------- *)

let fsp_message ~cmd ~len ~buf =
  let bytes = Array.make Fsp_model.message_size (Bv.zero 8) in
  let set_field name value =
    let f = Layout.field Fsp_model.layout name in
    let rec go i v =
      if i >= 0 then begin
        bytes.(f.Layout.offset + i) <- Bv.of_int ~width:8 (v land 0xFF);
        go (i - 1) (v lsr 8)
      end
    in
    go (f.Layout.size - 1) value
  in
  set_field "cmd" cmd;
  set_field "sum" Fsp_model.sum_const;
  set_field "bb_key" Fsp_model.key_const;
  set_field "bb_seq" Fsp_model.seq_const;
  set_field "bb_pos" Fsp_model.pos_const;
  set_field "bb_len" len;
  String.iteri
    (fun i c ->
      bytes.((Layout.field Fsp_model.layout "buf").Layout.offset + i) <-
        b8 (Char.code c))
    buf;
  bytes

let run_fsp_server message =
  Concrete.run ~incoming:[ message ] Fsp_model.server

(* --- FSP server acceptance --------------------------------------------------- *)

let test_fsp_server_accepts_valid () =
  let msg = fsp_message ~cmd:0x12 ~len:2 ~buf:"ab" in
  Alcotest.(check string) "valid del accepted" "accepted:del"
    (status_of (run_fsp_server msg))

let test_fsp_server_accepts_early_nul () =
  (* the mismatched-length Trojan: reported length 3, true length 1 *)
  let msg = fsp_message ~cmd:0x10 ~len:3 ~buf:"a\000x" in
  Alcotest.(check string) "early NUL accepted (the bug)" "accepted:get"
    (status_of (run_fsp_server msg))

let test_fsp_server_rejects () =
  let reject msg expect =
    match (run_fsp_server msg).Concrete.status with
    | State.Rejected label -> Alcotest.(check string) "label" expect label
    | s -> Alcotest.failf "expected rejection, got %s" (State.status_string s)
  in
  reject (fsp_message ~cmd:0x99 ~len:2 ~buf:"ab") "bad-cmd";
  reject (fsp_message ~cmd:0x10 ~len:0 ~buf:"") "len-zero";
  reject (fsp_message ~cmd:0x10 ~len:5 ~buf:"abcd") "len-too-big";
  reject (fsp_message ~cmd:0x10 ~len:2 ~buf:"a\007") "bad-char";
  reject (fsp_message ~cmd:0x10 ~len:2 ~buf:"abc") "no-term";
  let bad_sum = fsp_message ~cmd:0x10 ~len:2 ~buf:"ab" in
  let f = Layout.field Fsp_model.layout "sum" in
  bad_sum.(f.Layout.offset) <- b8 0;
  reject bad_sum "bad-sum"

let test_fsp_server_accepts_wildcard () =
  (* '*' is printable: the server takes it — half of the wildcard bug *)
  let msg = fsp_message ~cmd:0x12 ~len:2 ~buf:"f*" in
  Alcotest.(check string) "literal wildcard accepted" "accepted:del"
    (status_of (run_fsp_server msg))

(* --- FSP clients --------------------------------------------------------------- *)

let client_send ?model_globbing command path =
  let inputs =
    List.init Fsp_model.buf_size (fun i ->
        if i < String.length path then b8 (Char.code path.[i]) else Bv.zero 8)
  in
  let outcome =
    Concrete.run ~inputs (Fsp_model.client ?model_globbing command)
  in
  match outcome.Concrete.sent with
  | [ (_, payload) ] -> Some payload
  | _ -> None

let del_command = List.nth Fsp_model.commands 2

let test_fsp_client_valid_path () =
  match client_send del_command "ab" with
  | Some payload ->
      Alcotest.(check int) "bb_len = 2" 2
        (Bv.to_int (Layout.field_value Fsp_model.layout payload "bb_len"));
      Alcotest.(check string) "server accepts what the client sends"
        "accepted:del"
        (status_of (run_fsp_server payload))
  | None -> Alcotest.fail "client refused a valid path"

let test_fsp_client_rejects_bad_chars () =
  Alcotest.(check bool) "control character refused" true
    (client_send del_command "a\007" = None);
  Alcotest.(check bool) "empty path refused" true
    (client_send del_command "" = None)

let test_fsp_client_glob_variant_blocks_wildcard () =
  Alcotest.(check bool) "plain client transmits '*'" true
    (client_send del_command "f*" <> None);
  Alcotest.(check bool) "globbing client never transmits '*'" true
    (client_send ~model_globbing:true del_command "f*" = None)

(* every message a client emits is accepted by the server: the clients are
   "correct" in the paper's sense *)
let qcheck_fsp_client_server_compatible =
  let printable_char =
    QCheck2.Gen.map Char.chr (QCheck2.Gen.int_range 33 126)
  in
  let gen =
    QCheck2.Gen.(
      let* len = int_range 1 4 in
      let* cmd_idx = int_range 0 7 in
      let+ chars = list_size (return len) printable_char in
      (cmd_idx, String.init len (List.nth chars)))
  in
  QCheck2.Test.make ~name:"client messages are always accepted" ~count:50 gen
    (fun (cmd_idx, path) ->
      let command = List.nth Fsp_model.commands cmd_idx in
      match client_send command path with
      | Some payload -> (
          match (run_fsp_server payload).Concrete.status with
          | State.Accepted label -> label = command.Fsp_model.cmd_name
          | _ -> false)
      | None -> false)

(* --- FSP ground truth ------------------------------------------------------------ *)

let test_fsp_ground_truth_classes () =
  Alcotest.(check int) "80 Trojan classes" 80
    (List.length Fsp_model.all_trojan_classes);
  let distinct = List.sort_uniq compare Fsp_model.all_trojan_classes in
  Alcotest.(check int) "all distinct" 80 (List.length distinct)

let test_fsp_classify () =
  let check msg expect =
    let verdict = Fsp_model.classify msg in
    Alcotest.(check bool) "verdict" true (verdict = expect)
  in
  check
    (fsp_message ~cmd:0x10 ~len:2 ~buf:"ab")
    (Fsp_model.Valid { class_cmd = 0x10; reported_len = 2; true_len = 2 });
  check
    (fsp_message ~cmd:0x10 ~len:3 ~buf:"a\000x")
    (Fsp_model.Trojan { class_cmd = 0x10; reported_len = 3; true_len = 1 });
  check (fsp_message ~cmd:0x99 ~len:2 ~buf:"ab") Fsp_model.Rejected;
  (* classifier must agree with the concrete server on acceptance *)
  let msgs =
    [
      fsp_message ~cmd:0x11 ~len:1 ~buf:"\000";
      fsp_message ~cmd:0x11 ~len:4 ~buf:"ab\000d";
      fsp_message ~cmd:0x17 ~len:4 ~buf:"abcd";
      fsp_message ~cmd:0x17 ~len:2 ~buf:"\127\127";
    ]
  in
  List.iter
    (fun msg ->
      let oracle_accepts = Fsp_model.classify msg <> Fsp_model.Rejected in
      let server_accepts =
        match (run_fsp_server msg).Concrete.status with
        | State.Accepted _ -> true
        | _ -> false
      in
      Alcotest.(check bool) "oracle matches server" server_accepts
        oracle_accepts)
    msgs

let test_fsp_wildcard_classifier () =
  let msg = fsp_message ~cmd:0x12 ~len:2 ~buf:"f*" in
  Alcotest.(check bool) "wildcard variant flags it" true
    (match Fsp_model.classify_with_globbing msg with
    | Fsp_model.Trojan _ -> true
    | _ -> false);
  Alcotest.(check bool) "plain classifier calls it valid" true
    (match Fsp_model.classify msg with
    | Fsp_model.Valid _ -> true
    | _ -> false)

(* --- PBFT ------------------------------------------------------------------------ *)

let pbft_request ?(corrupt_mac = false) ~cid ~rid () =
  let inputs =
    [
      Bv.of_int ~width:16 cid;
      Bv.of_int ~width:16 rid;
      Bv.of_int ~width:16 0;
      Bv.of_int ~width:16 1;
      Bv.of_int ~width:32 7;
    ]
  in
  match (Concrete.run ~inputs Pbft_model.client).Concrete.sent with
  | [ (_, payload) ] ->
      if corrupt_mac then begin
        let f = Layout.field Pbft_model.layout "mac" in
        payload.(f.Layout.offset) <- b8 0x00
      end;
      Some payload
  | _ -> None

let test_pbft_client_builds_valid_requests () =
  match pbft_request ~cid:1 ~rid:5 () with
  | Some payload ->
      Alcotest.(check bool) "valid MAC" true (Pbft_model.has_valid_mac payload);
      Alcotest.(check int) "tag" Pbft_model.tag_request
        (Bv.to_int (Layout.field_value Pbft_model.layout payload "tag"))
  | None -> Alcotest.fail "client refused"

let test_pbft_client_refuses_bad_cid () =
  Alcotest.(check bool) "cid out of range refused" true
    (pbft_request ~cid:100 ~rid:5 () = None)

let test_pbft_replica_accepts_bad_mac () =
  (* the vulnerability: the replica never looks at the authenticators *)
  match pbft_request ~corrupt_mac:true ~cid:1 ~rid:5 () with
  | Some payload -> (
      let outcome = Concrete.run ~incoming:[ payload ] Pbft_model.replica in
      match outcome.Concrete.status with
      | State.Accepted "pre-prepare" ->
          Alcotest.(check bool) "oracle flags it" true
            (Pbft_model.is_mac_trojan payload)
      | s -> Alcotest.failf "expected acceptance, got %s" (State.status_string s))
  | None -> Alcotest.fail "client refused"

let test_pbft_replica_rejects () =
  match pbft_request ~cid:1 ~rid:5 () with
  | None -> Alcotest.fail "client refused"
  | Some payload ->
      let with_field name value =
        let p = Array.copy payload in
        let f = Layout.field Pbft_model.layout name in
        p.(f.Layout.offset + f.Layout.size - 1) <- b8 value;
        p
      in
      let reject p expect =
        match (Concrete.run ~incoming:[ p ] Pbft_model.replica).Concrete.status with
        | State.Rejected label -> Alcotest.(check string) "label" expect label
        | s -> Alcotest.failf "expected %s, got %s" expect (State.status_string s)
      in
      reject (with_field "tag" 9) "bad-tag";
      reject (with_field "cid" 200) "unknown-client";
      reject (with_field "rid" 0) "stale-rid";
      let bad_od = Array.copy payload in
      let f = Layout.field Pbft_model.layout "od" in
      bad_od.(f.Layout.offset + 3) <- b8 0;
      reject bad_od "bad-digest"

let test_pbft_replica_rid_state_advances () =
  (* deliver rid 5 then rid 5 again through a persistent node: the second
     must be stale *)
  let node = Achilles_runtime.Node.create Pbft_model.replica in
  match pbft_request ~cid:1 ~rid:5 () with
  | None -> Alcotest.fail "client refused"
  | Some payload ->
      let first = Achilles_runtime.Node.deliver node payload in
      Alcotest.(check string) "first accepted" "accepted:pre-prepare"
        (status_of first);
      let second = Achilles_runtime.Node.deliver node payload in
      Alcotest.(check string) "replay is stale" "rejected:stale-rid"
        (status_of second)

(* --- Paxos ------------------------------------------------------------------------ *)

let paxos_message ~mtype ~ballot ~value ~proposer =
  let bytes = Array.make Paxos_model.message_size (Bv.zero 8) in
  bytes.(0) <- b8 mtype;
  bytes.(1) <- b8 (ballot lsr 8);
  bytes.(2) <- b8 (ballot land 0xFF);
  bytes.(3) <- b8 (value lsr 8);
  bytes.(4) <- b8 (value land 0xFF);
  bytes.(5) <- b8 proposer;
  bytes

let test_paxos_acceptor_phases () =
  let deliver ?(promised = 0) msg =
    Concrete.run
      ~initial_globals:[ ("promised", Bv.of_int ~width:16 promised) ]
      ~incoming:[ msg ] Paxos_model.acceptor
  in
  Alcotest.(check string) "fresh prepare accepted" "accepted:promise"
    (status_of (deliver (paxos_message ~mtype:1 ~ballot:4 ~value:0 ~proposer:0)));
  Alcotest.(check string) "old prepare rejected" "rejected:old-ballot"
    (status_of
       (deliver ~promised:9 (paxos_message ~mtype:1 ~ballot:4 ~value:0 ~proposer:0)));
  Alcotest.(check string) "accept at promise taken" "accepted:accepted"
    (status_of
       (deliver ~promised:5 (paxos_message ~mtype:2 ~ballot:5 ~value:7 ~proposer:1)));
  Alcotest.(check string) "below-promise accept rejected" "rejected:below-promise"
    (status_of
       (deliver ~promised:5 (paxos_message ~mtype:2 ~ballot:4 ~value:7 ~proposer:1)));
  (* the bug: a different value is accepted just the same *)
  Alcotest.(check string) "wrong value taken (the bug)" "accepted:accepted"
    (status_of
       (deliver ~promised:5 (paxos_message ~mtype:2 ~ballot:5 ~value:99 ~proposer:1)))

let test_paxos_ground_truth () =
  Alcotest.(check bool) "wrong value is a trojan" true
    (Paxos_model.is_phase2_trojan ~promised:5 ~chosen_value:7
       (paxos_message ~mtype:2 ~ballot:6 ~value:99 ~proposer:1));
  Alcotest.(check bool) "right value is not" false
    (Paxos_model.is_phase2_trojan ~promised:5 ~chosen_value:7
       (paxos_message ~mtype:2 ~ballot:6 ~value:7 ~proposer:1))

(* --- the working example ------------------------------------------------------------ *)

let rw_message ~sender ~request ~address =
  let bytes = Array.make Rw_example.message_size (Bv.zero 8) in
  bytes.(0) <- b8 sender;
  bytes.(1) <- b8 request;
  let a = Int64.of_int address in
  for i = 0 to 3 do
    bytes.(2 + i) <-
      Bv.make ~width:8 (Int64.shift_right_logical a (8 * (3 - i)))
  done;
  (* additive checksum over bytes 0..9 *)
  let crc = ref (Bv.zero 8) in
  for i = 0 to Rw_example.message_size - 2 do
    crc := Bv.add !crc bytes.(i)
  done;
  bytes.(Rw_example.message_size - 1) <- !crc;
  bytes

let test_rw_server_bug () =
  let deliver msg = Concrete.run ~incoming:[ msg ] Rw_example.server in
  Alcotest.(check string) "valid read accepted" "accepted:read"
    (status_of (deliver (rw_message ~sender:1 ~request:1 ~address:42)));
  (* negative address on READ: accepted — the planted bug *)
  Alcotest.(check string) "negative read accepted" "accepted:read"
    (status_of (deliver (rw_message ~sender:1 ~request:1 ~address:(-3))));
  Alcotest.(check string) "negative write rejected" "rejected:write-neg"
    (status_of (deliver (rw_message ~sender:1 ~request:2 ~address:(-3))));
  Alcotest.(check string) "oob read rejected" "rejected:read-oob"
    (status_of (deliver (rw_message ~sender:1 ~request:1 ~address:1000)));
  Alcotest.(check string) "unknown peer" "rejected:unknown-peer"
    (status_of (deliver (rw_message ~sender:9 ~request:1 ~address:42)))

(* --- the target registry -------------------------------------------------- *)

(* Each entry builds its interpreter when asked, after the caller's
   fresh-counter reset: PBFT's [last_rid] takes the counter's next id, and
   no entry's local-state variable shares an id with a message variable of
   the same analysis. Two rounds, each after its own reset, so a config
   built at module load or cached in a lazy fails the second. *)
let test_registry_thunks () =
  for round = 1 to 2 do
    List.iter
      (fun (t : Registry.t) ->
        Solver.reset_all_for_tests ();
        Term.reset_fresh_counter ();
        let config = Registry.search_config t in
        let local =
          List.concat_map
            (fun (_, v) -> Term.var_ids v)
            config.Search.interp.Interp.initial_globals
        in
        let what = Printf.sprintf "round %d, %s" round t.Registry.name in
        if t.Registry.name = "pbft" then
          Alcotest.(check (list int))
            (what ^ ": last_rid is the counter's next variable")
            [ 1 ] local;
        let report = (Registry.analyze ~config t).Achilles.report in
        let message =
          List.concat_map
            (fun ((sp : Predicate.server_path), _) ->
              Array.to_list
                (Array.map (fun (v : Term.var) -> v.Term.id) sp.Predicate.msg_vars))
            (Search.trojan_queries report)
        in
        Alcotest.(check bool) (what ^ ": has accepting paths") true (message <> []);
        Alcotest.(check (list int))
          (what ^ ": no local-state variable is a message variable")
          []
          (List.filter (fun id -> List.mem id message) local))
      Registry.all
  done

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "targets"
    [
      ( "fsp-server",
        [
          Alcotest.test_case "accepts valid" `Quick test_fsp_server_accepts_valid;
          Alcotest.test_case "accepts early NUL (bug)" `Quick
            test_fsp_server_accepts_early_nul;
          Alcotest.test_case "rejections" `Quick test_fsp_server_rejects;
          Alcotest.test_case "accepts wildcard" `Quick
            test_fsp_server_accepts_wildcard;
        ] );
      ( "fsp-client",
        [
          Alcotest.test_case "valid path" `Quick test_fsp_client_valid_path;
          Alcotest.test_case "validation" `Quick test_fsp_client_rejects_bad_chars;
          Alcotest.test_case "glob variant" `Quick
            test_fsp_client_glob_variant_blocks_wildcard;
        ] );
      qsuite "fsp-compat" [ qcheck_fsp_client_server_compatible ];
      ( "fsp-oracle",
        [
          Alcotest.test_case "80 classes" `Quick test_fsp_ground_truth_classes;
          Alcotest.test_case "classification" `Quick test_fsp_classify;
          Alcotest.test_case "wildcard classifier" `Quick
            test_fsp_wildcard_classifier;
        ] );
      ( "pbft",
        [
          Alcotest.test_case "client requests" `Quick
            test_pbft_client_builds_valid_requests;
          Alcotest.test_case "client cid validation" `Quick
            test_pbft_client_refuses_bad_cid;
          Alcotest.test_case "replica accepts bad MAC" `Quick
            test_pbft_replica_accepts_bad_mac;
          Alcotest.test_case "replica rejections" `Quick test_pbft_replica_rejects;
          Alcotest.test_case "rid state advances" `Quick
            test_pbft_replica_rid_state_advances;
        ] );
      ( "paxos",
        [
          Alcotest.test_case "acceptor phases" `Quick test_paxos_acceptor_phases;
          Alcotest.test_case "ground truth" `Quick test_paxos_ground_truth;
        ] );
      ( "rw-example",
        [ Alcotest.test_case "server bug" `Quick test_rw_server_bug ] );
      ( "registry",
        [
          Alcotest.test_case "interpreters built after the counter reset" `Quick
            test_registry_thunks;
        ] );
    ]
