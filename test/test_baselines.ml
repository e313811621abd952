(* Tests for the comparison baselines: classic symbolic execution,
   black-box fuzzing, and the non-optimized post-hoc differencing. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_baselines
open Achilles_targets

(* --- classic symbolic execution -------------------------------------------------- *)

let fsp_classic = lazy (Classic_se.explore Fsp_model.server)

let test_classic_explores_accepting_paths () =
  let result = Lazy.force fsp_classic in
  (* one accepting path per command: valid and Trojan messages share it *)
  Alcotest.(check int) "8 accepting paths" 8
    (List.length result.Classic_se.accepting);
  Alcotest.(check bool) "some rejecting paths" true
    (result.Classic_se.rejecting_paths > 0)

(* reduced enumeration alphabet: NUL plus two printable representatives and
   the wildcard (documented in EXPERIMENTS.md) *)
let reduced_alphabet vars =
  let f = Layout.field Fsp_model.layout "buf" in
  List.init f.Layout.size (fun i ->
      let byte = Term.var vars.(f.Layout.offset + i) in
      Term.or_l
        (List.map
           (fun c -> Term.eq byte (Term.int ~width:8 c))
           [ 0; Char.code 'a'; Char.code 'b'; Char.code '*' ]))

let test_classic_enumeration_mixes_valid_and_trojan () =
  let result = Lazy.force fsp_classic in
  (* enumerate a handful of concrete accepted messages from one path *)
  let enumeration =
    Classic_se.enumerate ~restrict:reduced_alphabet ~max_per_path:40
      [ List.hd result.Classic_se.accepting ]
  in
  let messages = List.map fst enumeration.Classic_se.messages in
  Alcotest.(check int) "cap reached" 40 (List.length messages);
  (* every enumerated message really is accepted... *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "oracle accepts" true
        (Fsp_model.classify m <> Fsp_model.Rejected))
    messages;
  (* ...and all bytes are distinct messages *)
  let distinct =
    List.sort_uniq compare
      (List.map (fun m -> Array.to_list (Array.map Bv.value m)) messages)
  in
  Alcotest.(check int) "no duplicates" 40 (List.length distinct)

let test_classic_class_enumeration () =
  let result = Lazy.force fsp_classic in
  (* with class blocking, one accepting path yields its 14 classes:
     4 valid (t = L) + 10 Trojan (t < L) *)
  let enumeration =
    Classic_se.enumerate ~distinct_by:Fsp_model.block_class ~max_per_path:20
      [ List.hd result.Classic_se.accepting ]
  in
  let classes =
    List.filter_map
      (fun (m, _) -> Fsp_model.class_of_witness m)
      enumeration.Classic_se.messages
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "14 classes on one path" 14 (List.length classes);
  Alcotest.(check bool) "enumeration exhausted below cap" true
    enumeration.Classic_se.exhausted

(* --- fuzzer ------------------------------------------------------------------------ *)

let test_fuzzer_uniform_finds_nothing () =
  (* uniform random 17-byte messages essentially never pass the header
     checks: the paper's 1.8e19 space argument in miniature *)
  let result =
    Fuzzer.fuzz ~server:Fsp_model.server
      ~gen:(Fuzzer.random_bytes ~size:Fsp_model.message_size)
      ~oracle:(fun m ->
        match Fsp_model.classify m with
        | Fsp_model.Trojan _ -> Fuzzer.Trojan
        | Fsp_model.Valid _ -> Fuzzer.Valid
        | Fsp_model.Rejected -> Fuzzer.Rejected)
      ~budget:(`Tests 3000) ()
  in
  Alcotest.(check int) "3000 tests ran" 3000 result.Fuzzer.tests;
  Alcotest.(check int) "nothing accepted" 0 result.Fuzzer.accepted;
  Alcotest.(check bool) "throughput measured" true
    (result.Fuzzer.throughput_per_min > 0.)

(* a generator that already knows the header constants and only fuzzes the
   fields the analysis looks at — the paper's "fair" fuzzer *)
let fair_gen rng =
  let msg = Array.make Fsp_model.message_size (Bv.zero 8) in
  let set_field name value =
    let f = Layout.field Fsp_model.layout name in
    let rec go i v =
      if i >= 0 then begin
        msg.(f.Layout.offset + i) <- Bv.of_int ~width:8 (v land 0xFF);
        go (i - 1) (v lsr 8)
      end
    in
    go (f.Layout.size - 1) value
  in
  set_field "sum" Fsp_model.sum_const;
  set_field "bb_key" Fsp_model.key_const;
  set_field "bb_seq" Fsp_model.seq_const;
  set_field "bb_pos" Fsp_model.pos_const;
  let cmd =
    (List.nth Fsp_model.commands (Random.State.int rng 8)).Fsp_model.code
  in
  set_field "cmd" cmd;
  set_field "bb_len" (1 + Random.State.int rng 4);
  let f = Layout.field Fsp_model.layout "buf" in
  for i = 0 to f.Layout.size - 1 do
    msg.(f.Layout.offset + i) <- Bv.of_int ~width:8 (Random.State.int rng 256)
  done;
  msg

let test_fuzzer_fair_still_inefficient () =
  let result =
    Fuzzer.fuzz ~server:Fsp_model.server ~gen:fair_gen
      ~oracle:(fun m ->
        match Fsp_model.classify m with
        | Fsp_model.Trojan _ -> Fuzzer.Trojan
        | Fsp_model.Valid _ -> Fuzzer.Valid
        | Fsp_model.Rejected -> Fuzzer.Rejected)
      ~classify:(fun m ->
        match Fsp_model.class_of_witness m with
        | Some cls -> Some (Format.asprintf "%a" Fsp_model.pp_class cls)
        | None -> None)
      ~budget:(`Tests 4000) ()
  in
  (* even knowing all header constants, random payload bytes rarely land a
     terminated printable path; acceptance stays rare and the distinct
     Trojan classes found stay far below 80 *)
  Alcotest.(check bool) "acceptance is rare" true
    (result.Fuzzer.accepted * 10 < result.Fuzzer.tests);
  Alcotest.(check bool) "nowhere near all classes" true
    (result.Fuzzer.distinct_trojan_classes < 80);
  Alcotest.(check bool) "counts consistent" true
    (result.Fuzzer.trojans <= result.Fuzzer.accepted
    && result.Fuzzer.accepted <= result.Fuzzer.tests)

let test_expected_finds_math () =
  (* the paper's numbers: 66e6 Trojans in 1.8e19 messages at 75 000
     tests/min for one hour *)
  let expected =
    Fuzzer.expected_finds ~trojan_messages:66e6 ~space:1.8e19
      ~tests:(75_000. *. 60.)
  in
  Alcotest.(check bool) "about 1e-5 per hour" true
    (expected > 1e-6 && expected < 1e-4)

(* --- post-hoc differencing ----------------------------------------------------------- *)

let test_posthoc_matches_achilles () =
  let mask = [ "address" ] in
  let optimized =
    Registry.analyze
      ~config:{ (Registry.search_config Registry.rw) with Search.mask = Some mask }
      Registry.rw
  in
  let posthoc =
    Posthoc.run ~mask ~layout:Registry.rw.layout
      ~clients:(Registry.rw.clients ()) ~server:(Registry.rw.server ()) ()
  in
  let labels analysis =
    List.map (fun (t : Search.trojan) -> t.Search.accept_label)
      (Achilles.trojans analysis)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "same trojan paths" (labels optimized)
    (labels posthoc.Posthoc.analysis);
  List.iter
    (fun (t : Search.trojan) ->
      Alcotest.(check bool) "posthoc witness is real" true
        (Rw_example.is_trojan t.Search.witness))
    (Achilles.trojans posthoc.Posthoc.analysis)

let () =
  Alcotest.run "baselines"
    [
      ( "classic-se",
        [
          Alcotest.test_case "accepting paths" `Quick
            test_classic_explores_accepting_paths;
          Alcotest.test_case "mixed enumeration" `Slow
            test_classic_enumeration_mixes_valid_and_trojan;
          Alcotest.test_case "class enumeration" `Quick
            test_classic_class_enumeration;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "uniform random" `Quick
            test_fuzzer_uniform_finds_nothing;
          Alcotest.test_case "fair fuzzer" `Slow test_fuzzer_fair_still_inefficient;
          Alcotest.test_case "expected-find arithmetic" `Quick
            test_expected_finds_math;
        ] );
      ( "posthoc",
        [ Alcotest.test_case "matches Achilles" `Slow test_posthoc_matches_achilles ] );
    ]
