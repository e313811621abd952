(* The static dependency slice (lib/slice), end to end:

   - golden taint summaries for every bundled target model;
   - the injective-chain value-set machinery, and the alpha keys
     differentFrom's memo is keyed on;
   - slice-aware differentFrom: identical matrices, identical fresh-variable
     consumption, fewer solver queries;
   - the soundness bar itself: report digests byte-identical slice on/off,
     at 1 and 16 shards, on the bundled targets and on random server trees,
     and the FSP differentFrom-pair work the slice saves;
   - the taint-aware depth bound: message-independent branches never
     consume [max_depth]. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Slice = Achilles_slice.Slice

(* --- golden taint summaries --------------------------------------------------- *)

let golden_rw =
  String.concat "\n"
    [
      "slice rw-server: 6/7 branch sites message-tainted";
      "  main:if#0                {sender}";
      "  main:if#1                {address,crc,request,sender,value}";
      "  main:switch#0            {request}";
      "  main:if#2                {address}";
      "  main:if#3                {address}";
      "  main:if#4                {address}";
      "  checksum:while#0         clean";
      "  field sender           branches 2, updates 0, sends 2";
      "  field request          branches 2, updates 0, sends 0";
      "  field address          branches 4, updates 0, sends 0";
      "  field value            branches 1, updates 0, sends 0";
      "  field crc              branches 1, updates 0, sends 0";
    ]

let golden_fsp =
  String.concat "\n"
    [
      "slice fsp-server: 9/10 branch sites message-tainted";
      "  main:if#0                {sum}";
      "  main:if#1                {bb_key}";
      "  main:if#2                {bb_seq}";
      "  main:if#3                {bb_pos}";
      "  main:if#4                {bb_len}";
      "  main:if#5                {bb_len}";
      "  main:while#0             clean";
      "  main:if#6                {bb_key,bb_len,bb_pos,bb_seq,buf,cmd,sum}";
      "  main:if#7                {bb_key,bb_len,bb_pos,bb_seq,buf,cmd,sum}";
      "  main:switch#0            {cmd}";
      "  field cmd              branches 3, updates 0, sends 0";
      "  field sum              branches 3, updates 0, sends 0";
      "  field bb_key           branches 3, updates 0, sends 0";
      "  field bb_seq           branches 3, updates 0, sends 0";
      "  field bb_len           branches 4, updates 0, sends 0";
      "  field bb_pos           branches 3, updates 0, sends 0";
      "  field buf              branches 2, updates 0, sends 0";
    ]

let golden_kv =
  String.concat "\n"
    [
      "slice kv-server: 3/3 branch sites message-tainted";
      "  main:if#0                {method}";
      "  main:if#1                {key}";
      "  main:if#2                {method}";
      "  field method           branches 2, updates 0, sends 0";
      "  field key              branches 1, updates 0, sends 0";
      "  field value            branches 0, updates 3, sends 4";
      "  field token            branches 0, updates 0, sends 0";
    ]

let golden_pbft =
  String.concat "\n"
    [
      "slice pbft-replica: 22/22 branch sites message-tainted";
      "  main:if#0                {tag}";
      "  main:if#1                {size}";
      "  main:if#2                {command_size}";
      "  main:if#3                {od}";
      "  main:if#4                {od}";
      "  main:if#5                {od}";
      "  main:if#6                {od}";
      "  main:if#7                {od}";
      "  main:if#8                {od}";
      "  main:if#9                {od}";
      "  main:if#10               {od}";
      "  main:if#11               {od}";
      "  main:if#12               {od}";
      "  main:if#13               {od}";
      "  main:if#14               {od}";
      "  main:if#15               {od}";
      "  main:if#16               {od}";
      "  main:if#17               {od}";
      "  main:if#18               {od}";
      "  main:if#19               {cid}";
      "  main:if#20               {rid}";
      "  main:if#21               {extra}";
      "  field tag              branches 1, updates 0, sends 0";
      "  field extra            branches 1, updates 0, sends 0";
      "  field size             branches 1, updates 0, sends 0";
      "  field od               branches 16, updates 0, sends 0";
      "  field replier          branches 0, updates 0, sends 0";
      "  field command_size     branches 1, updates 0, sends 0";
      "  field cid              branches 1, updates 0, sends 0";
      "  field rid              branches 1, updates 1, sends 0";
      "  field command          branches 0, updates 0, sends 0";
      "  field mac              branches 0, updates 0, sends 0";
    ]

let golden_gossip =
  String.concat "\n"
    [
      "slice gossip-aggregator: 4/4 branch sites message-tainted";
      "  main:if#0                {mtype}";
      "  main:if#1                {reporter}";
      "  main:if#2                {epoch}";
      "  main:if#3                {count}";
      "  field mtype            branches 1, updates 0, sends 0";
      "  field reporter         branches 1, updates 0, sends 1";
      "  field count            branches 1, updates 1, sends 0";
      "  field epoch            branches 1, updates 0, sends 0";
    ]

let golden_paxos =
  String.concat "\n"
    [
      "slice paxos-acceptor: 4/5 branch sites message-tainted";
      "  main:while#0             clean";
      "  main:if#0                {proposer}";
      "  main:switch#0            {mtype}";
      "  main:if#1                {ballot}";
      "  main:if#2                {ballot}";
      "  field mtype            branches 1, updates 0, sends 0";
      "  field ballot           branches 2, updates 1, sends 0";
      "  field value            branches 0, updates 0, sends 0";
      "  field proposer         branches 1, updates 0, sends 2";
    ]

let model_summaries =
  [
    ("rw", golden_rw);
    ("fsp", golden_fsp);
    ("kv", golden_kv);
    ("pbft", golden_pbft);
    ("gossip", golden_gossip);
    ("paxos", golden_paxos);
  ]

let test_golden_summaries () =
  List.iter
    (fun (name, golden) ->
      let t = Option.get (Registry.find name) in
      let rendered =
        String.trim
          (Format.asprintf "%a" Slice.pp_summary
             (Slice.analyze ~layout:t.layout (t.server ())))
      in
      Alcotest.(check string) (name ^ " summary") golden rendered)
    model_summaries

let test_field_reachability () =
  let reaches layout server f =
    Slice.field_reaches_branch (Slice.analyze ~layout server) f
  in
  (* the fields that matter for a verdict *)
  Alcotest.(check bool) "fsp cmd reaches branches" true
    (reaches Fsp_model.layout Fsp_model.server "cmd");
  Alcotest.(check bool) "rw crc reaches branches" true
    (reaches Rw_example.layout Rw_example.server "crc");
  (* the fields the server provably never branches on *)
  Alcotest.(check bool) "kv value reaches no branch" false
    (reaches Kv_model.layout Kv_model.server "value");
  Alcotest.(check bool) "kv token reaches no branch" false
    (reaches Kv_model.layout Kv_model.server "token");
  Alcotest.(check bool) "pbft mac reaches no branch" false
    (reaches Pbft_model.layout Pbft_model.replica "mac");
  Alcotest.(check bool) "pbft command reaches no branch" false
    (reaches Pbft_model.layout Pbft_model.replica "command");
  (* unknown fields stay conservative *)
  Alcotest.(check bool) "unknown field is conservative" true
    (reaches Kv_model.layout Kv_model.server "no-such-field")

(* --- value-set machinery ------------------------------------------------------- *)

let test_injective_image_bits () =
  let v8 = Term.var (Term.fresh_var ~name:"a" (Term.Bitvec 8)) in
  let w8 = Term.var (Term.fresh_var ~name:"b" (Term.Bitvec 8)) in
  let bits = Alcotest.(option int) in
  Alcotest.check bits "plain var" (Some 8) (Slice.injective_image_bits v8);
  Alcotest.check bits "zero-extended var" (Some 8)
    (Slice.injective_image_bits (Term.zero_extend ~by:8 v8));
  Alcotest.check bits "concat of distinct vars" (Some 16)
    (Slice.injective_image_bits (Term.concat v8 w8));
  Alcotest.check bits "repeated var is not injective" None
    (Slice.injective_image_bits (Term.concat v8 v8));
  Alcotest.check bits "constant has a 1-value image" (Some 0)
    (Slice.injective_image_bits (Term.const (Bv.of_int ~width:8 5)));
  Alcotest.check bits "arithmetic is opaque" None
    (Slice.injective_image_bits (Term.add v8 w8))

(* differentFrom's memo is keyed on [Term.alpha_key], which names each
   variable's sort: [x <u y /\ y <u z] is UNSAT over 1-bit variables and
   SAT over 8-bit ones, so the two chains share a shape but must not share
   a key. *)
let test_alpha_key_keeps_sorts () =
  let chain w =
    let v name = Term.var (Term.fresh_var ~name (Term.Bitvec w)) in
    let x = v "x" and y = v "y" and z = v "z" in
    Term.alpha_key [ Term.ult x y; Term.ult y z ]
  in
  Alcotest.(check bool) "1-bit and 8-bit chains get different keys" false
    (String.equal (chain 1) (chain 8));
  Alcotest.(check string) "same sorts, fresh names: same key" (chain 8)
    (chain 8)

(* --- slice-aware differentFrom -------------------------------------------------- *)

let fsp_predicate =
  lazy
    (Solver.reset_all_for_tests ();
     Term.reset_fresh_counter ();
     fst (Client_extract.extract ~layout:Fsp_model.layout (Fsp_model.clients ())))

let test_different_from_slice () =
  let pc = Lazy.force fsp_predicate in
  let base = Term.fresh_counter_value () in
  let run ~use_slice ~server_slice =
    Solver.reset_all_for_tests ();
    Term.set_fresh_counter base;
    let df, stats =
      Different_from.compute ~mask:Fsp_model.analysis_mask ~use_slice
        ?server_slice pc
    in
    (df, stats, Term.fresh_counter_value ())
  in
  let df_off, s_off, c_off = run ~use_slice:false ~server_slice:None in
  let df_on, s_on, c_on = run ~use_slice:true ~server_slice:None in
  let summary = Slice.analyze ~layout:Fsp_model.layout Fsp_model.server in
  let df_sum, s_sum, c_sum =
    run ~use_slice:true ~server_slice:(Some summary)
  in
  (* fresh-variable ids are consumed identically — the digest-stability
     property every later search variable id rests on *)
  Alcotest.(check int) "same fresh counter (slice on)" c_off c_on;
  Alcotest.(check int) "same fresh counter (server slice)" c_off c_sum;
  Alcotest.(check (list string))
    "same fields covered" s_off.Different_from.fields_covered
    s_on.Different_from.fields_covered;
  Alcotest.(check (list string))
    "same fields covered (server slice)" s_off.Different_from.fields_covered
    s_sum.Different_from.fields_covered;
  (* static decisions replace queries without changing a single verdict *)
  let n = Predicate.client_path_count pc in
  List.iter
    (fun field ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let off = Different_from.different df_off ~i ~j ~field in
          Alcotest.(check bool)
            (Printf.sprintf "%s (%d,%d) slice on = off" field i j)
            off
            (Different_from.different df_on ~i ~j ~field);
          (* every fsp mask field reaches a branch, so the server-slice
             variant decides the same matrix too *)
          Alcotest.(check bool)
            (Printf.sprintf "%s (%d,%d) server slice = off" field i j)
            off
            (Different_from.different df_sum ~i ~j ~field)
        done
      done)
    s_off.Different_from.fields_covered;
  Alcotest.(check int) "slice off decides nothing statically" 0
    s_off.Different_from.pairs_static;
  Alcotest.(check bool) "slice on decides pairs statically" true
    (s_on.Different_from.pairs_static > 0);
  Alcotest.(check bool)
    (Printf.sprintf "queries reduced >= 3x (%d -> %d)"
       s_off.Different_from.pairs_checked s_on.Different_from.pairs_checked)
    true
    (s_on.Different_from.pairs_checked * 3
    <= s_off.Different_from.pairs_checked);
  (* mask interaction: fields outside the mask are uncovered and safe,
     slice on or off *)
  List.iter
    (fun (f : Layout.field) ->
      let name = f.Layout.field_name in
      if not (List.mem name Fsp_model.analysis_mask) then
        List.iter
          (fun df ->
            Alcotest.(check bool) (name ^ " uncovered") false
              (Different_from.covers_field df name);
            Alcotest.(check bool) (name ^ " safe false") false
              (Different_from.different df ~i:0 ~j:1 ~field:name))
          [ df_off; df_on; df_sum ])
    (Layout.fields Fsp_model.layout)

let test_server_slice_skips_branchless_fields () =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let pc, _ =
    Client_extract.extract ~layout:Kv_model.layout [ Kv_model.client ]
  in
  let base = Term.fresh_counter_value () in
  let summary = Slice.analyze ~layout:Kv_model.layout Kv_model.server in
  let run ~server_slice =
    Solver.reset_all_for_tests ();
    Term.set_fresh_counter base;
    Different_from.compute ~mask:Kv_model.analysis_mask ~use_slice:true
      ?server_slice pc
  in
  let df_plain, _ = run ~server_slice:None in
  let df_sliced, stats = run ~server_slice:(Some summary) in
  let n = Predicate.client_path_count pc in
  List.iter
    (fun field ->
      let reaches = Slice.field_reaches_branch summary field in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let sliced = Different_from.different df_sliced ~i ~j ~field in
          if reaches then
            (* reachable fields: verbatim the plain matrix *)
            Alcotest.(check bool)
              (Printf.sprintf "%s (%d,%d) unchanged" field i j)
              (Different_from.different df_plain ~i ~j ~field)
              sliced
          else
            (* branchless fields: rows the search never consults, all safe *)
            Alcotest.(check bool)
              (Printf.sprintf "%s (%d,%d) skipped to false" field i j)
              false sliced
        done
      done)
    stats.Different_from.fields_covered

(* --- the digest bar: bundled targets, slice on/off x splits -------------------- *)

(* One analysis of a bundled target from a reset state: the report digest,
   plus the work counter the slice exists to shrink — the differentFrom
   pairs that reach the solver. The config is built after the reset, so a
   local-state variable shares its id with no message variable. *)
let run_target target ~use_slice ~split_bits =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let config =
    {
      (Registry.search_config ~witnesses:2 target) with
      Search.use_slice;
      Search.split_bits = Some split_bits;
    }
  in
  let analysis = Registry.analyze ~config target in
  let report = analysis.Achilles.report in
  let pairs_checked =
    match analysis.Achilles.different_from_stats with
    | Some st -> st.Different_from.pairs_checked
    | None -> 0
  in
  (Report.report_digest report, pairs_checked)

let test_digests_slice_invariant () =
  List.iter
    (fun name ->
      let target = Option.get (Registry.find name) in
      let reference, pairs_off = run_target target ~use_slice:false ~split_bits:0 in
      List.iter
        (fun (use_slice, split_bits) ->
          let digest, pairs = run_target target ~use_slice ~split_bits in
          Alcotest.(check string)
            (Printf.sprintf "%s: slice %b, split bits %d" name use_slice
               split_bits)
            reference digest;
          (* the slice pays for itself on FSP (96 -> 16 pairs when last
             measured) *)
          if name = "fsp" && use_slice && split_bits = 0 then
            Alcotest.(check bool)
              (Printf.sprintf
                 "fsp: >= 3x fewer differentFrom pairs checked (%d -> %d)"
                 pairs_off pairs)
              true
              (pairs_off >= 3 * pairs))
        [ (true, 0); (false, 4); (true, 4) ])
    [ "fsp"; "pbft"; "kv"; "gossip"; "paxos" ]

(* --- the digest bar on random server trees -------------------------------------- *)

include Random_protocol.Make (struct
  let layout = "slice-rnd" and program = "slice-gen" and input = "sin"
end)

let qcheck_random_digest_invariance =
  QCheck2.Test.make ~name:"random servers: digest slice on = slice off"
    ~count:25 case_gen (fun (tree, client_specs) ->
      let server = server_of_tree tree in
      let clients = List.mapi client_of_spec client_specs in
      let digest ~use_slice =
        Solver.reset_all_for_tests ();
        Term.reset_fresh_counter ();
        let client, _ = Client_extract.extract ~layout clients in
        let config =
          { Search.default_config with Search.use_slice; Search.witnesses_per_path = 2 }
        in
        Report.report_digest (Search.run ~config ~client ~server ())
      in
      digest ~use_slice:true = digest ~use_slice:false)

(* --- taint-aware depth accounting ------------------------------------------------ *)

(* A server whose branching is dominated by message-independent decisions:
   only message-tainted branches count against [max_depth], so a bound the
   clean chain would blow does not truncate it, while the one tainted
   branch still spends depth. *)
let local_chain_server depth =
  let open Builder in
  let rec chain k =
    if k = 0 then [ mark_accept "deep" ]
    else
      [
        if_
          (v "x" >: i8 (100 + k))
          [ mark_reject (Printf.sprintf "hi%d" k) ]
          (chain (k - 1));
      ]
  in
  prog "local-chain"
    ~buffers:[ ("msg", 2) ]
    (receive "msg"
    :: read_input "x" ~width:8
    :: if_
         (load "msg" (i8 0) =: i8 1)
         (chain depth)
         [ mark_reject "tag" ]
    :: [])

let test_taint_aware_depth () =
  let depth = 8 in
  let server = local_chain_server depth in
  let run max_depth =
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    Interp.run
      ~config:{ Interp.default_config with Interp.max_depth }
      server
  in
  let bounded = run 4 in
  Alcotest.(check int) "the plain interpreter never truncates the clean chain"
    0 bounded.Interp.stats.Interp.truncated_depth;
  Alcotest.(check int) "and explores all of it" (depth + 1)
    bounded.Interp.stats.Interp.forks;
  let zero = run 0 in
  Alcotest.(check int) "the message-tainted branch still spends depth" 1
    zero.Interp.stats.Interp.truncated_depth

let () =
  Alcotest.run "slice"
    [
      ( "analysis",
        [
          Alcotest.test_case "golden summaries" `Quick test_golden_summaries;
          Alcotest.test_case "field reachability" `Quick
            test_field_reachability;
        ] );
      ( "value-set",
        [
          Alcotest.test_case "injective image bits" `Quick
            test_injective_image_bits;
          Alcotest.test_case "memo keys keep sorts" `Quick
            test_alpha_key_keeps_sorts;
        ] );
      ( "different-from",
        [
          Alcotest.test_case "slice on = slice off" `Quick
            test_different_from_slice;
          Alcotest.test_case "server slice skips branchless fields" `Quick
            test_server_slice_skips_branchless_fields;
        ] );
      ( "digests",
        [
          Alcotest.test_case "bundled targets, slice x splits" `Slow
            test_digests_slice_invariant;
          QCheck_alcotest.to_alcotest qcheck_random_digest_invariance;
        ] );
      ( "interp",
        [
          Alcotest.test_case "taint-aware depth" `Quick test_taint_aware_depth;
        ] );
    ]
