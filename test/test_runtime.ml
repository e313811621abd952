(* Tests for the concrete runtime: nodes, the simulated network, the FSP
   file store and deployment (wildcard + extra-payload impact), the PBFT
   deployment (MAC-attack impact), and Trojan fault injection. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_runtime
open Achilles_targets

let b8 n = Bv.of_int ~width:8 n

(* --- Fsp_fs / globbing ----------------------------------------------------------- *)

let test_glob_match () =
  let cases =
    [
      ("f*", "f1", true);
      ("f*", "f", true);
      ("f*", "f*", true);
      ("f*", "g1", false);
      ("*", "anything", true);
      ("a*b", "axxb", true);
      ("a*b", "ab", true);
      ("a*b", "axc", false);
      ("no-star", "no-star", true);
      ("no-star", "other", false);
    ]
  in
  List.iter
    (fun (pattern, name, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ~ %s" pattern name)
        expected
        (Fsp_fs.glob_match ~pattern name))
    cases

let qcheck_glob_literal_patterns =
  let gen =
    QCheck2.Gen.(
      string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 0 6))
  in
  QCheck2.Test.make ~name:"literal patterns match only themselves" ~count:100
    (QCheck2.Gen.pair gen gen) (fun (pattern, name) ->
      Fsp_fs.glob_match ~pattern name = (pattern = name))

let test_fs_operations () =
  let fs = Fsp_fs.create ~files:[ "b"; "a" ] () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Fsp_fs.list fs);
  Fsp_fs.create_file fs "c";
  Alcotest.(check bool) "created" true (Fsp_fs.exists fs "c");
  Alcotest.(check bool) "delete hit" true (Fsp_fs.delete fs "a");
  Alcotest.(check bool) "delete miss" false (Fsp_fs.delete fs "zz");
  Alcotest.(check bool) "rename" true (Fsp_fs.rename fs ~src:"b" ~dst:"d");
  Alcotest.(check (list string)) "final" [ "c"; "d" ] (Fsp_fs.list fs)

(* --- node / net -------------------------------------------------------------------- *)

let test_node_state_persists () =
  let open Builder in
  let counter =
    prog "counter" ~globals:[ ("count", 8) ] ~buffers:[ ("m", 1) ]
      [ receive "m"; set "count" (v "count" +: i8 1); mark_accept "ok" ]
  in
  let node = Node.create counter in
  ignore (Node.deliver node [| b8 0 |]);
  ignore (Node.deliver node [| b8 0 |]);
  ignore (Node.deliver node [| b8 0 |]);
  Alcotest.(check int) "three delivered" 3 (Node.delivered node);
  Alcotest.(check bool) "count is 3" true
    (Bv.equal (List.assoc "count" (Node.globals node)) (b8 3));
  Alcotest.(check int) "all accepted" 3 (Node.accepted_count node)

let test_net_routing_and_replies () =
  let open Builder in
  let ping =
    prog "ping" ~buffers:[ ("in", 1); ("out", 1) ]
      [
        receive "in";
        store "out" (i8 0) (load "in" (i8 0) +: i8 1);
        send (i8 2) "out";
        mark_accept "ponged";
      ]
  in
  let sink =
    prog "sink" ~globals:[ ("last", 8) ] ~buffers:[ ("in", 1) ]
      [ receive "in"; set "last" (load "in" (i8 0)); mark_accept "got" ]
  in
  let net = Net.create () in
  let ping_node = Node.create ping and sink_node = Node.create sink in
  Net.add_node net ~addr:1 ping_node;
  Net.add_node net ~addr:2 sink_node;
  Net.inject net ~dst:1 [| b8 41 |];
  let steps = Net.run_to_quiescence net in
  Alcotest.(check int) "two deliveries" 2 steps;
  Alcotest.(check bool) "sink saw 42" true
    (Bv.equal (List.assoc "last" (Node.globals sink_node)) (b8 42))

let test_net_bit_flip_fault () =
  (* the paper's example: one bit flip turns ASCII 'j' into '*' *)
  Alcotest.(check int) "j ^ 0x40 = *" (Char.code '*') (Char.code 'j' lxor 0x40);
  let open Builder in
  let sink =
    prog "sink" ~globals:[ ("last", 8) ] ~buffers:[ ("in", 1) ]
      [ receive "in"; set "last" (load "in" (i8 0)); mark_accept "got" ]
  in
  let net = Net.create () in
  let node = Node.create sink in
  Net.add_node net ~addr:1 node;
  Net.set_fault net (Some (Net.bit_flip_fault ~byte:0 ~bit:6 ()));
  Net.inject net ~dst:1 [| b8 (Char.code 'j') |];
  ignore (Net.run_to_quiescence net);
  Alcotest.(check bool) "corrupted to '*'" true
    (Bv.equal (List.assoc "last" (Node.globals node)) (b8 (Char.code '*')))

let test_net_fault_index_validation () =
  let raises_invalid name f =
    Alcotest.check_raises name
      (Invalid_argument
         (match name with
         | "negative byte" -> "Net.bit_flip_fault: negative byte -1"
         | "bit too high" -> "Net.bit_flip_fault: bit 8 outside [0, 7]"
         | _ -> "Net.bit_flip_fault: bit -3 outside [0, 7]"))
      (fun () -> ignore (f ()))
  in
  raises_invalid "negative byte" (fun () ->
      Net.bit_flip_fault ~byte:(-1) ~bit:0 ());
  raises_invalid "bit too high" (fun () ->
      Net.bit_flip_fault ~byte:0 ~bit:8 ());
  raises_invalid "negative bit" (fun () ->
      Net.bit_flip_fault ~byte:0 ~bit:(-3) ());
  (* a byte beyond a given packet stays a per-packet no-op, not an error:
     packet sizes legitimately vary across receivers *)
  let f = Net.bit_flip_fault ~byte:9 ~bit:0 () in
  let p = { Net.src = 0; Net.dst = 1; Net.payload = [| b8 7 |] } in
  Alcotest.(check bool) "oversized byte leaves short packet intact" true
    (Bv.equal (f p).Net.payload.(0) (b8 7))

let test_net_inject_arity_validation () =
  let open Builder in
  let sink =
    prog "sink" ~globals:[ ("last", 8) ] ~buffers:[ ("in", 2) ]
      [ receive "in"; set "last" (load "in" (i8 0)); mark_accept "got" ]
  in
  let net = Net.create () in
  let node = Node.create sink in
  Net.add_node net ~addr:1 node;
  Alcotest.(check (option int)) "receive size scanned" (Some 2)
    (Node.receive_size node);
  Alcotest.check_raises "one byte into a two-byte receiver"
    (Invalid_argument "Net.inject: payload is 1 bytes but node 1 receives 2")
    (fun () -> Net.inject net ~dst:1 [| b8 1 |]);
  Alcotest.check_raises "three bytes into a two-byte receiver"
    (Invalid_argument "Net.inject: payload is 3 bytes but node 1 receives 2")
    (fun () -> Net.inject net ~dst:1 [| b8 1; b8 2; b8 3 |]);
  (* the exact size goes through and is delivered *)
  Net.inject net ~dst:1 [| b8 5; b8 6 |];
  Alcotest.(check int) "valid payload delivered" 1 (Net.run_to_quiescence net);
  (* unroutable destinations are not validated (the queue accepts them and
     step drops them, as before) *)
  Net.inject net ~dst:99 [| b8 1 |];
  Alcotest.(check int) "unroutable packet still just dropped" 0
    (Net.run_to_quiescence net)

(* --- FSP deployment: the wildcard bug (§6.3) ---------------------------------------- *)

let test_wildcard_collateral_damage () =
  let t = Fsp_deploy.create ~files:[ "f1"; "f2"; "bank"; "f*" ] () in
  let r = Fsp_deploy.exec t ~command:(Fsp_deploy.command_named "del") ~arg:"f*" in
  (* the client glob-expands: the deletion hits every f-prefixed file *)
  Alcotest.(check (list string)) "expansion" [ "f*"; "f1"; "f2" ]
    (List.sort compare r.Fsp_deploy.expanded);
  Alcotest.(check (list string)) "only bank survives" [ "bank" ]
    (Fsp_deploy.list_files t);
  Alcotest.(check bool) "no client error" true (r.Fsp_deploy.client_error = None)

let test_wildcard_cannot_be_escaped () =
  let t = Fsp_deploy.create ~files:[ "f1"; "f*" ] () in
  (* no-glob-match: the client refuses (there is no escape syntax) *)
  let r = Fsp_deploy.exec t ~command:(Fsp_deploy.command_named "del") ~arg:"z*" in
  Alcotest.(check bool) "no match -> client error" true
    (r.Fsp_deploy.client_error <> None);
  Alcotest.(check (list string)) "nothing deleted" [ "f*"; "f1" ]
    (Fsp_deploy.list_files t)

let test_wildcard_trojan_deletes_surgically () =
  let t = Fsp_deploy.create ~files:[ "f1"; "f2"; "f*" ] () in
  (* craft the Trojan: a del message with a literal '*' — no correct client
     can send this *)
  (match Fsp_deploy.build_message (Fsp_deploy.command_named "del") "f*" with
  | Ok payload -> (
      (* note: the plain (non-globbing) DSL client does transmit it, which
         is exactly why the analysis needs the globbing-aware model *)
      match Fsp_deploy.deliver_raw t payload with
      | Fsp_deploy.Accepted { affected; _ } ->
          Alcotest.(check (list string)) "deleted exactly f*" [ "f*" ] affected
      | Fsp_deploy.Rejected -> Alcotest.fail "server rejected the trojan")
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "others intact" [ "f1"; "f2" ]
    (Fsp_deploy.list_files t)

let test_bit_flip_creates_wildcard_file () =
  (* end to end: client sends put "fj"; a bit flip in flight turns it into
     put "f*"; the server accepts and creates the trap *)
  let t = Fsp_deploy.create () in
  match Fsp_deploy.build_message (Fsp_deploy.command_named "put") "fj" with
  | Error e -> Alcotest.fail e
  | Ok payload ->
      let flipped = Array.copy payload in
      let f = Layout.field Fsp_model.layout "buf" in
      flipped.(f.Layout.offset + 1) <-
        Bv.logxor flipped.(f.Layout.offset + 1) (b8 0x40);
      (match Fsp_deploy.deliver_raw t flipped with
      | Fsp_deploy.Accepted { path; _ } ->
          Alcotest.(check string) "created the trap" "f*" path
      | Fsp_deploy.Rejected -> Alcotest.fail "server rejected");
      Alcotest.(check (list string)) "file exists" [ "f*" ]
        (Fsp_deploy.list_files t)

let test_extra_payload_smuggling () =
  (* mismatched-length Trojan: reported length 4, true length 1, two bytes
     of covert payload after the early terminator *)
  let payload =
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
    set_field "cmd" 0x11;
    set_field "sum" Fsp_model.sum_const;
    set_field "bb_key" Fsp_model.key_const;
    set_field "bb_seq" Fsp_model.seq_const;
    set_field "bb_pos" Fsp_model.pos_const;
    set_field "bb_len" 4;
    let f = Layout.field Fsp_model.layout "buf" in
    bytes.(f.Layout.offset) <- b8 (Char.code 'a');
    bytes.(f.Layout.offset + 1) <- b8 0;
    bytes.(f.Layout.offset + 2) <- b8 (Char.code 'X');
    bytes.(f.Layout.offset + 3) <- b8 (Char.code 'Y');
    bytes.(f.Layout.offset + 4) <- b8 0;
    bytes
  in
  let t = Fsp_deploy.create () in
  (match Fsp_deploy.deliver_raw t payload with
  | Fsp_deploy.Accepted { path; _ } ->
      Alcotest.(check string) "effective path is the C string" "a" path
  | Fsp_deploy.Rejected -> Alcotest.fail "server rejected");
  Alcotest.(check string) "covert bytes rode along" "5859"
    (Fsp_deploy.extra_payload payload)

(* --- PBFT deployment: the MAC attack ------------------------------------------------ *)

let test_pbft_mac_attack_slowdown () =
  let clean = Pbft_deploy.run_workload ~requests:200 () in
  let attacked = Pbft_deploy.run_workload ~malicious_every:4 ~requests:200 () in
  Alcotest.(check int) "clean commits all" 200 clean.Pbft_deploy.committed;
  Alcotest.(check int) "no recoveries when clean" 0 clean.Pbft_deploy.recoveries;
  Alcotest.(check int) "recoveries under attack" 50
    attacked.Pbft_deploy.recoveries;
  Alcotest.(check bool) "throughput collapses" true
    (attacked.Pbft_deploy.throughput < clean.Pbft_deploy.throughput /. 2.)

let test_pbft_corrupt_mac_costs_recovery () =
  let t = Pbft_deploy.create () in
  match Pbft_deploy.build_request ~corrupt_mac:true ~cid:0 ~rid:1 ~command:7 () with
  | Some payload ->
      let r = Pbft_deploy.submit t payload in
      Alcotest.(check bool) "recovery triggered" true r.Pbft_deploy.recovery;
      Alcotest.(check int) "recovery cost" Pbft_deploy.recovery_cost
        r.Pbft_deploy.cost
  | None -> Alcotest.fail "client refused"

(* --- fault injection of analysis witnesses ------------------------------------------- *)

let test_inject_confirms_fsp_witnesses () =
  (* two clients suffice for a quick end-to-end check *)
  let target =
    {
      Registry.fsp with
      clients = (fun () -> List.filteri (fun i _ -> i < 2) (Registry.fsp.clients ()));
    }
  in
  let analysis =
    Registry.analyze ~config:(Registry.search_config ~witnesses:4 target) target
  in
  let trojans = Achilles.trojans analysis in
  Alcotest.(check bool) "witnesses found" true (trojans <> []);
  let confirmation = Inject.confirm ~server:Fsp_model.server trojans in
  Alcotest.(check int) "all witnesses accepted live" 0
    confirmation.Inject.rejected;
  let client_codes = [ 0x10; 0x11 ] in
  let real, fake =
    Inject.check_against_oracle
      ~is_trojan:(fun m ->
        match Fsp_model.classify m with
        | Fsp_model.Trojan _ -> true
        (* with only two clients deployed, other commands' messages are
           Trojan too: nobody in this system generates them *)
        | Fsp_model.Valid cls ->
            not (List.mem cls.Fsp_model.class_cmd client_codes)
        | Fsp_model.Rejected -> false)
      trojans
  in
  Alcotest.(check int) "no false positives" 0 (List.length fake);
  Alcotest.(check bool) "confirmed trojans" true (real <> [])

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "runtime"
    [
      ( "fsp-fs",
        [
          Alcotest.test_case "glob matching" `Quick test_glob_match;
          Alcotest.test_case "operations" `Quick test_fs_operations;
        ] );
      qsuite "fsp-fs-properties" [ qcheck_glob_literal_patterns ];
      ( "node-net",
        [
          Alcotest.test_case "state persists" `Quick test_node_state_persists;
          Alcotest.test_case "routing and replies" `Quick
            test_net_routing_and_replies;
          Alcotest.test_case "bit flip fault" `Quick test_net_bit_flip_fault;
          Alcotest.test_case "fault index validation" `Quick
            test_net_fault_index_validation;
          Alcotest.test_case "inject arity validation" `Quick
            test_net_inject_arity_validation;
        ] );
      ( "fsp-impact",
        [
          Alcotest.test_case "collateral damage" `Quick
            test_wildcard_collateral_damage;
          Alcotest.test_case "no escape" `Quick test_wildcard_cannot_be_escaped;
          Alcotest.test_case "surgical trojan delete" `Quick
            test_wildcard_trojan_deletes_surgically;
          Alcotest.test_case "bit flip creates trap" `Quick
            test_bit_flip_creates_wildcard_file;
          Alcotest.test_case "extra payload" `Quick test_extra_payload_smuggling;
        ] );
      ( "pbft-impact",
        [
          Alcotest.test_case "MAC attack slowdown" `Quick
            test_pbft_mac_attack_slowdown;
          Alcotest.test_case "recovery cost" `Quick
            test_pbft_corrupt_mac_costs_recovery;
        ] );
      ( "inject",
        [
          Alcotest.test_case "confirm witnesses" `Slow
            test_inject_confirms_fsp_witnesses;
        ] );
    ]
