(* The static dependency slice (lib/slice), end to end:

   - golden taint summaries for every bundled target model;
   - the injective-chain value-set machinery;
   - the feasibility oracle's static equality-chain decisions;
   - slice-aware differentFrom: identical matrices, identical fresh-variable
     consumption, fewer solver queries;
   - the soundness bar itself: report digests byte-identical slice on/off,
     at 1 and 16 shards, on the bundled targets and on random server trees,
     and the FSP branch-query and differentFrom-pair work the oracle saves;
   - the taint-aware depth bound: message-independent branches stop
     consuming [max_depth] when the oracle is installed. *)

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
    ("rw", Rw_example.layout, Rw_example.server, golden_rw);
    ("fsp", Fsp_model.layout, Fsp_model.server, golden_fsp);
    ("kv", Kv_model.layout, Kv_model.server, golden_kv);
    ("pbft", Pbft_model.layout, Pbft_model.replica, golden_pbft);
    ("gossip", Gossip_model.layout, Gossip_model.aggregator (), golden_gossip);
    ("paxos", Paxos_model.layout, Paxos_model.acceptor, golden_paxos);
  ]

let test_golden_summaries () =
  List.iter
    (fun (name, layout, server, golden) ->
      let rendered =
        String.trim
          (Format.asprintf "%a" Slice.pp_summary (Slice.analyze ~layout server))
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

(* --- the oracle's static decisions --------------------------------------------- *)

let feas =
  let s = function
    | Interp.Feasible_exact -> "Feasible_exact"
    | Interp.Feasible_unknown -> "Feasible_unknown"
    | Interp.Infeasible -> "Infeasible"
  in
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (s v)) ( = )

let test_oracle_static_decide () =
  Solver.reset_all_for_tests ();
  let oracle = Slice.make_oracle () in
  let x = Term.var (Term.fresh_var ~name:"x" (Term.Bitvec 8)) in
  let y = Term.var (Term.fresh_var ~name:"y" (Term.Bitvec 8)) in
  let c n = Term.const (Bv.of_int ~width:8 n) in
  let check name expected path cond =
    Alcotest.check feas name expected (oracle ~path cond)
  in
  (* an equality in the cone pins the base (the path is satisfiable) *)
  check "pinned: same constant" Interp.Feasible_exact
    [ Term.eq x (c 5) ] (Term.eq x (c 5));
  check "pinned: other constant" Interp.Infeasible
    [ Term.eq x (c 5) ] (Term.eq x (c 7));
  check "pinned: negated self" Interp.Infeasible
    [ Term.eq x (c 5) ] (Term.neq x (c 5));
  check "pinned: negated other" Interp.Feasible_exact
    [ Term.eq x (c 5) ] (Term.neq x (c 7));
  (* disequality chains over an injective base (the switch-case pattern) *)
  check "chain blocks the excluded value" Interp.Infeasible
    [ Term.neq x (c 1); Term.neq x (c 2) ]
    (Term.eq x (c 2));
  check "chain admits a fresh value" Interp.Feasible_exact
    [ Term.neq x (c 1) ] (Term.eq x (c 3));
  check "room left in the image" Interp.Feasible_exact
    [ Term.neq x (c 1) ] (Term.neq x (c 2));
  (* the cone drops variable-disjoint conjuncts *)
  check "disjoint constraints are irrelevant" Interp.Feasible_exact
    [ Term.eq y (c 9) ] (Term.eq x (c 4));
  (* single-variable interval atoms (the client guard-chain pattern) *)
  check "bound admits a member" Interp.Feasible_exact
    [ Term.ult x (c 10) ] (Term.eq x (c 5));
  check "bound excludes a non-member" Interp.Infeasible
    [ Term.ult x (c 10) ] (Term.eq x (c 12));
  check "bounds that cross are empty" Interp.Infeasible
    [ Term.uge x (c 7) ]
    (Term.ult x (c 7));
  check "narrow range minus holes survives" Interp.Feasible_exact
    [ Term.ugt x (c 3); Term.ult x (c 6); Term.neq x (c 4) ]
    (Term.eq x (c 5));
  check "narrow range exhausted by holes" Interp.Infeasible
    [ Term.ugt x (c 3); Term.ult x (c 6); Term.neq x (c 4) ]
    (Term.neq x (c 5));
  (* a 1-bit image exhausts: b <> 0 /\ b <> 1 is unsat *)
  let b = Term.var (Term.fresh_var ~name:"bit" (Term.Bitvec 1)) in
  let c1 n = Term.const (Bv.of_int ~width:1 n) in
  check "image exhausted" Interp.Infeasible
    [ Term.neq b (c1 0) ] (Term.neq b (c1 1));
  (* non-atoms fall back to the cone query and still agree with the truth *)
  check "non-atom falls back to the solver" Interp.Feasible_exact
    [ Term.eq y (c 9) ]
    (Term.ult x (c 5));
  check "unsat non-atom via the solver" Interp.Infeasible
    [ Term.ult x (c 1) ]
    (Term.neq x (c 0));
  Solver.reset_all_for_tests ()

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

type setup = {
  sname : string;
  layout : Layout.t;
  clients : Ast.program list;
  server : Ast.program;
  mask : string list option;
  interp : unit -> Interp.config;
  (* built after the run's fresh-variable counter is reset, so a
     local-state variable shares its id with no message variable *)
  client_interp : Interp.config option;
}

let setups =
  [
    {
      sname = "fsp";
      layout = Fsp_model.layout;
      clients = Fsp_model.clients ();
      server = Fsp_model.server;
      mask = Some Fsp_model.analysis_mask;
      interp = (fun () -> Interp.default_config);
      client_interp = None;
    };
    {
      sname = "pbft";
      layout = Pbft_model.layout;
      clients = [ Pbft_model.client ];
      server = Pbft_model.replica;
      mask = Some Pbft_model.analysis_mask;
      interp =
        (fun () ->
          Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
            Interp.default_config);
      client_interp = None;
    };
    {
      sname = "kv";
      layout = Kv_model.layout;
      clients = [ Kv_model.client ];
      server = Kv_model.server;
      mask = Some Kv_model.analysis_mask;
      interp =
        (fun () ->
          {
            Interp.default_config with
            Interp.auto_classify = Some Kv_model.auto_classifier;
          });
      client_interp = None;
    };
    {
      sname = "gossip";
      layout = Gossip_model.layout;
      clients = [ Gossip_model.reporter ];
      server = Gossip_model.aggregator ~hardened:false ();
      mask = Some Gossip_model.analysis_mask;
      interp = (fun () -> Interp.default_config);
      client_interp =
        Some
          (Local_state.concrete
             ~incoming:(List.init 2 (fun _ -> Gossip_model.failure_event))
             ~prefix:Gossip_model.reporter_prefix Interp.default_config);
    };
    {
      sname = "paxos";
      layout = Paxos_model.layout;
      clients = [ Paxos_model.proposer_concrete ~value:7 ];
      server = Paxos_model.acceptor;
      mask = Some [ "mtype"; "ballot"; "value" ];
      interp =
        (fun () ->
          Local_state.concrete ~prefix:(Paxos_model.phase1_prefix ~ballot:5)
            Interp.default_config);
      client_interp = None;
    };
  ]

(* One analysis of a setup from a reset state: the report digest, plus the
   two work counters the oracle exists to shrink — branch-feasibility solver
   queries (full-path, plus cone-restricted with the oracle on) and the
   differentFrom pairs that reach the solver. *)
let run_setup s ~use_slice ~split_bits =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let config =
    {
      Search.default_config with
      Search.mask = s.mask;
      Search.witnesses_per_path = 2;
      Search.interp = s.interp ();
      Search.use_slice = use_slice;
      Search.split_bits = Some split_bits;
    }
  in
  let analysis =
    Achilles.analyze ~search_config:config ?client_interp:s.client_interp
      ~layout:s.layout ~clients:s.clients ~server:s.server ()
  in
  let report = analysis.Achilles.report in
  let full_path =
    Option.value ~default:0
      (List.assoc_opt "interp.feasibility_queries"
         (Achilles_obs.Obs.aggregate ()).Achilles_obs.Obs.counters)
  in
  let pairs_checked =
    match analysis.Achilles.different_from_stats with
    | Some st -> st.Different_from.pairs_checked
    | None -> 0
  in
  ( Report.report_digest report,
    full_path + report.Search.coverage.Search.slice_cone_queries,
    pairs_checked )

let test_digests_slice_invariant () =
  List.iter
    (fun s ->
      let reference, feas_off, pairs_off =
        run_setup s ~use_slice:false ~split_bits:0
      in
      List.iter
        (fun (use_slice, split_bits) ->
          let digest, feas, pairs = run_setup s ~use_slice ~split_bits in
          Alcotest.(check string)
            (Printf.sprintf "%s: slice %b, split bits %d" s.sname use_slice
               split_bits)
            reference digest;
          (* the oracle pays for itself on FSP (200 -> 32 branch queries and
             96 -> 16 pairs when last measured) *)
          if s.sname = "fsp" && use_slice && split_bits = 0 then begin
            Alcotest.(check bool)
              (Printf.sprintf
                 "fsp: >= 2x fewer branch-feasibility queries (%d -> %d)"
                 feas_off feas)
              true
              (feas_off >= 2 * feas);
            Alcotest.(check bool)
              (Printf.sprintf
                 "fsp: >= 3x fewer differentFrom pairs checked (%d -> %d)"
                 pairs_off pairs)
              true
              (pairs_off >= 3 * pairs)
          end)
        [ (true, 0); (false, 4); (true, 4) ])
    setups

(* --- the digest bar on random server trees -------------------------------------- *)

let message_size = 3
let rnd_layout = Layout.make ~name:"slice-rnd" [ ("tag", 1); ("a", 1); ("b", 1) ]

type tree =
  | Leaf of bool
  | Node of { field : int; op : int; konst : int; t : tree; f : tree }

type field_spec = Fconst of int | Fbounded of int

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_range 1 3)
    @@ fix (fun self depth ->
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
  prog "slice-gen-server"
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
               let name = Printf.sprintf "sin%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog
    (Printf.sprintf "slice-gen-client%d" idx)
    ~buffers:[ ("msg", message_size) ]
    body

let qcheck_random_digest_invariance =
  QCheck2.Test.make ~name:"random servers: digest slice on = slice off"
    ~count:25 case_gen (fun (tree, client_specs) ->
      let server = server_of_tree tree in
      let clients = List.mapi client_of_spec client_specs in
      let digest ~use_slice =
        Solver.reset_all_for_tests ();
        Term.reset_fresh_counter ();
        let client, _ = Client_extract.extract ~layout:rnd_layout clients in
        let config =
          { Search.default_config with Search.use_slice; Search.witnesses_per_path = 2 }
        in
        Report.report_digest (Search.run ~config ~client ~server ())
      in
      digest ~use_slice:true = digest ~use_slice:false)

(* --- taint-aware depth accounting ------------------------------------------------ *)

(* A server whose branching is dominated by message-independent decisions:
   with the oracle installed, only message-tainted branches count against
   [max_depth], so a bound the clean chain would blow stops truncating. *)
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
  let run oracle =
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    let config =
      { Interp.default_config with Interp.max_depth = 4; Interp.oracle }
    in
    Interp.run ~config server
  in
  let without = run None in
  let with_slice = run (Some (Slice.make_oracle ())) in
  Alcotest.(check bool) "plain interpreter truncates the clean chain" true
    (without.Interp.stats.Interp.truncated_depth > 0);
  Alcotest.(check int) "sliced interpreter never truncates" 0
    (with_slice.Interp.stats.Interp.truncated_depth);
  Alcotest.(check bool) "and explores more of the clean chain" true
    (with_slice.Interp.stats.Interp.forks > without.Interp.stats.Interp.forks)

(* The memo key names each variable's sort: [x <u y /\ y <u z] is UNSAT
   over 1-bit variables and SAT over 8-bit ones, so the two cones share a
   shape but must not share a verdict. *)
let test_oracle_memo_keeps_sorts () =
  Solver.reset_all_for_tests ();
  let oracle = Slice.make_oracle () in
  let chain w =
    let v name = Term.var (Term.fresh_var ~name (Term.Bitvec w)) in
    let x = v "x" and y = v "y" and z = v "z" in
    oracle ~path:[ Term.ult x y ] (Term.ult y z)
  in
  Alcotest.check feas "1-bit chain" Interp.Infeasible (chain 1);
  Alcotest.check feas "8-bit chain" Interp.Feasible_exact (chain 8)

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
        ] );
      ( "oracle",
        [
          Alcotest.test_case "static decisions" `Quick
            test_oracle_static_decide;
          Alcotest.test_case "memo keys keep sorts" `Quick
            test_oracle_memo_keeps_sorts;
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
