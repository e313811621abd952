(* Shard-level search machinery below [Search.run]: checkpoint durability
   (corrupt loads, stale temp files, failed writes) and the run's shared
   negation table, driven shard by shard through [Search.Shards]. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core

(* --- a fixed client/server pair (same shape as the robustness suite) -------- *)

let message_size = 3
let layout = Layout.make ~name:"shards" [ ("tag", 1); ("a", 1); ("b", 1) ]

type tree =
  | Leaf of bool
  | Node of { field : int; op : int; konst : int; t : tree; f : tree }

type field_spec = Fconst of int | Fbounded of int

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
  prog "shards-server"
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
               let name = Printf.sprintf "din%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog
    (Printf.sprintf "shards-client%d" idx)
    ~buffers:[ ("msg", message_size) ]
    body

let extract_case (tree, client_specs) =
  let server = server_of_tree tree in
  let clients = List.mapi client_of_spec client_specs in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ = Client_extract.extract ~layout clients in
  (client, server, Term.fresh_counter_value ())

let run_case ?(config = Search.default_config) ~base client server =
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  Search.run ~config ~client ~server ()

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

(* --- workdir plumbing --------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_workdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* --- checkpoint durability guards ------------------------------------------ *)

let explore_one_shard ~config ~base client server =
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let bits = Search.Shards.split_bits config in
  let out, _ =
    Search.Shards.explore ~config ~different_from:None
      ~negations:(Search.Shards.negations ()) ~client ~server ~bits ~base
      ~started:(Unix.gettimeofday ()) 0
  in
  match out with
  | Some out -> (bits, out)
  | None -> Alcotest.fail "shard exploration was cancelled?"

let test_checkpoint_corruption_guards () =
  let client, server, base = extract_case fixed_case in
  let config = { Search.default_config with Search.split_bits = Some 4 } in
  let _, out = explore_one_shard ~config ~base client server in
  let dir = fresh_workdir "achilles-shards-ckpt" in
  let file = Filename.concat dir "shard-0000.ckpt" in
  let fingerprint = "test-fingerprint" in
  Search.Shards.write ~file ~fingerprint ~idx:0 out;
  Alcotest.(check bool) "pristine checkpoint loads" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 <> None);
  Alcotest.(check bool) "wrong fingerprint rejected" true
    (Search.Shards.load ~file ~fingerprint:"other" ~idx:0 = None);
  Alcotest.(check bool) "wrong shard index rejected" true
    (Search.Shards.load ~file ~fingerprint ~idx:1 = None);
  let size = (Unix.stat file).Unix.st_size in
  (* truncation (a torn write surviving a crash) *)
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size / 2);
  Unix.close fd;
  Alcotest.(check bool) "truncated checkpoint treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  (* bad magic / junk header *)
  let oc = open_out_bin file in
  output_string oc "NOT-A-CHECKPOINT-AT-ALL";
  close_out oc;
  Alcotest.(check bool) "bad magic treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  (* empty file *)
  let oc = open_out_bin file in
  close_out oc;
  Alcotest.(check bool) "empty file treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  (* flipped payload byte: caught by the payload digest *)
  Search.Shards.write ~file ~fingerprint ~idx:0 out;
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  Alcotest.(check bool) "corrupted payload treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~idx:0 = None);
  rm_rf dir

let test_stale_tmp_cleanup () =
  let dir = fresh_workdir "achilles-shards-tmp" in
  let junk = Filename.concat dir "shard-0000.ckpt.tmp.12345.0" in
  let oc = open_out_bin junk in
  output_string oc "half-written by a killed run";
  close_out oc;
  let keep = Filename.concat dir "shard-0001.ckpt" in
  let oc = open_out_bin keep in
  output_string oc "not actually loadable, but not tmp either";
  close_out oc;
  Search.Shards.prepare_dir dir;
  Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists junk);
  Alcotest.(check bool) "real files kept" true (Sys.file_exists keep);
  rm_rf dir

(* A checkpoint write that fails keeps the explored shard: the run still
   covers it, and only a later resume re-explores it.
   A directory squatting on shard 0's temp name makes the write fail;
   [prepare_dir] sweeps only regular temp files, so it survives. *)
let test_checkpoint_write_failure_keeps_shard () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let dir = fresh_workdir "achilles-shards-wfail" in
  Unix.mkdir
    (Filename.concat dir
       (Printf.sprintf "shard-0000.ckpt.tmp.%d.0" (Unix.getpid ())))
    0o755;
  let config ~resume =
    {
      Search.default_config with
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  let write_failures () =
    Option.value ~default:0
      (List.assoc_opt "checkpoint.write_failed"
         (Achilles_obs.Obs.aggregate ()).Achilles_obs.Obs.counters)
  in
  let failures0 = write_failures () in
  let report = run_case ~config:(config ~resume:false) ~base client server in
  let c = report.Search.coverage in
  Alcotest.(check bool) "coverage complete" true (Search.coverage_complete c);
  Alcotest.(check (list int)) "no failed shards" [] c.Search.failed_shards;
  Alcotest.(check int) "one write failure counted" 1
    (write_failures () - failures0);
  Alcotest.(check string) "digest equals a run without checkpoints"
    (Report.report_digest clean)
    (Report.report_digest report);
  Alcotest.(check bool) "shard 0 has no checkpoint" false
    (Sys.file_exists (Filename.concat dir "shard-0000.ckpt"));
  for idx = 1 to c.Search.total_shards - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d checkpointed" idx)
      true
      (Sys.file_exists
         (Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" idx)))
  done;
  let resumed = run_case ~config:(config ~resume:true) ~base client server in
  Alcotest.(check int) "resume re-explores exactly shard 0"
    (c.Search.total_shards - 1)
    resumed.Search.coverage.Search.resumed_shards;
  Alcotest.(check string) "resumed digest unchanged"
    (Report.report_digest clean)
    (Report.report_digest resumed);
  rm_rf dir

(* Run [f] with file descriptor 2 redirected to a temp file; return its
   result and what it wrote there. *)
let capture_stderr f =
  let file = Filename.temp_file "achilles-shards" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  (result, In_channel.with_open_bin file In_channel.input_all)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* Checkpoints written with other split bits belong to another split:
   resuming from them re-explores every shard and reports the files as
   stale, not corrupt. *)
let test_resume_other_split_is_stale () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let dir = fresh_workdir "achilles-shards-split" in
  let config ~split_bits ~resume =
    {
      Search.default_config with
      Search.split_bits = Some split_bits;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  let written =
    run_case ~config:(config ~split_bits:1 ~resume:false) ~base client server
  in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name
         (Achilles_obs.Obs.aggregate ()).Achilles_obs.Obs.counters)
  in
  let resumed, stderr =
    capture_stderr (fun () ->
        run_case ~config:(config ~split_bits:2 ~resume:true) ~base client server)
  in
  Alcotest.(check string) "resumed digest unchanged"
    (Report.report_digest clean)
    (Report.report_digest resumed);
  Alcotest.(check int) "nothing resumed from another split" 0
    resumed.Search.coverage.Search.resumed_shards;
  Alcotest.(check int) "every file of the other split counted stale"
    written.Search.coverage.Search.total_shards
    (counter "checkpoint.stale");
  Alcotest.(check int) "none counted corrupt" 0 (counter "checkpoint.corrupt");
  Alcotest.(check bool) "stderr names the other split" true
    (contains stderr "different split");
  Alcotest.(check bool) "stderr never says corrupt" false
    (contains stderr "corrupt");
  rm_rf dir

(* --- the run's negation table ------------------------------------------- *)

(* A shard that raises while building the run's negation table leaves the
   table empty: the next shard builds it afresh, every later shard adopts
   it, and the merged report equals a run whose table was never
   disturbed. The raise comes from a trace sink refusing the first
   [negate] span, i.e. inside the build. *)
let test_negation_build_raises () =
  let client, server, base = extract_case fixed_case in
  let config = { Search.default_config with Search.split_bits = Some 4 } in
  let bits = Search.Shards.split_bits config in
  let explore negations idx =
    Search.Shards.explore ~config ~different_from:None ~negations ~client
      ~server ~bits ~base ~started:0. idx
  in
  let run negations =
    let outs =
      List.init (1 lsl bits) (fun idx ->
          match explore negations idx with
          | Some out, _ -> (out, false)
          | None, _ -> Alcotest.fail "shard exploration was cancelled?")
    in
    Search.Shards.merge ~total:(1 lsl bits) ~base ~started:0.
      ~outs_resumed:outs ~partial:[] ~failed_shards:[] ~interrupted:false
      ~abandoned:0
  in
  Solver.reset_all_for_tests ();
  let clean = run (Search.Shards.negations ()) in
  Solver.reset_all_for_tests ();
  let shared = Search.Shards.negations () in
  let fired = ref false in
  Achilles_obs.Obs.set_sink
    (Some
       (fun ev ->
         if
           (not !fired)
           && ev.Achilles_obs.Obs.ev_kind = "span_begin"
           && ev.Achilles_obs.Obs.ev_name = "negate"
         then begin
           fired := true;
           raise Exit
         end));
  let raised =
    Fun.protect
      ~finally:(fun () -> Achilles_obs.Obs.set_sink None)
      (fun () ->
        match explore shared 0 with _ -> false | exception Exit -> true)
  in
  Alcotest.(check bool) "the first build raised" true raised;
  let healed = run shared in
  Alcotest.(check string) "digest identical to an undisturbed run"
    (Report.report_digest clean)
    (Report.report_digest healed);
  Alcotest.(check (option int)) "rebuilt once, then adopted by every shard"
    (Some (Predicate.client_path_count client))
    (List.assoc_opt "negate.paths_negated"
       (Achilles_obs.Obs.aggregate ()).Achilles_obs.Obs.counters)

(* A shard that adopts the table also adopts the fresh-variable counter
   after the build, so it ends — and checkpoints — exactly the counter its
   own build would have left. *)
let test_negation_adoption_counter () =
  let client, server, base = extract_case fixed_case in
  let config = { Search.default_config with Search.split_bits = Some 4 } in
  let bits = Search.Shards.split_bits config in
  let end_counter negations idx =
    ignore
      (Search.Shards.explore ~config ~different_from:None ~negations ~client
         ~server ~bits ~base ~started:0. idx);
    Term.fresh_counter_value ()
  in
  Solver.reset_all_for_tests ();
  let own = end_counter (Search.Shards.negations ()) 1 in
  let shared = Search.Shards.negations () in
  ignore (end_counter shared 0);
  Alcotest.(check int) "adopting shard ends at its own build's counter" own
    (end_counter shared 1)

(* A server that allocates a symbolic variable on one side of a fork before
   the message arrives reaches its first message-constrained state at a
   different fresh-variable counter in each shard (the determinism caveat
   of [Search]). A shard arriving that way must not adopt another shard's
   table: it builds its own, exactly as when every shard built one. *)
let test_negation_key_mismatch () =
  let server =
    let open Builder in
    prog "late-symbolic"
      ~buffers:[ ("msg", message_size) ]
      [
        make_symbolic "x" ~width:8;
        if_ (v "x" >: i8 3) [ make_symbolic "y" ~width:8 ] [];
        receive "msg";
        if_
          (load "msg" (i8 0) =: i8 1)
          [ mark_accept "one" ]
          [ mark_reject "other" ];
      ]
  in
  let client, _, base = extract_case fixed_case in
  let config =
    {
      Search.default_config with
      Search.split_bits = Some 1;
    }
  in
  let run table_of =
    Solver.reset_all_for_tests ();
    let outs =
      List.init 2 (fun idx ->
          match
            Search.Shards.explore ~config ~different_from:None
              ~negations:(table_of ()) ~client ~server ~bits:1 ~base
              ~started:0. idx
          with
          | Some out, _ -> (out, false)
          | None, _ -> Alcotest.fail "shard exploration was cancelled?")
    in
    let report =
      Search.Shards.merge ~total:2 ~base ~started:0. ~outs_resumed:outs
        ~partial:[] ~failed_shards:[] ~interrupted:false ~abandoned:0
    in
    ( Report.report_digest report,
      List.assoc_opt "negate.paths_negated"
        (Achilles_obs.Obs.aggregate ()).Achilles_obs.Obs.counters )
  in
  let shared = Search.Shards.negations () in
  let digest_shared, negated_shared = run (fun () -> shared) in
  let digest_own, negated_own = run Search.Shards.negations in
  let paths = Predicate.client_path_count client in
  Alcotest.(check (option int)) "each shard built its own table"
    (Some (2 * paths)) negated_shared;
  Alcotest.(check (option int)) "as with a table per shard" negated_own
    negated_shared;
  Alcotest.(check string) "same report as with a table per shard" digest_own
    digest_shared

let () =
  Alcotest.run "shards"
    [
      ( "checkpoint-durability",
        [
          Alcotest.test_case "corruption guards" `Quick
            test_checkpoint_corruption_guards;
          Alcotest.test_case "stale tmp cleanup" `Quick test_stale_tmp_cleanup;
          Alcotest.test_case "failed write keeps the shard" `Quick
            test_checkpoint_write_failure_keeps_shard;
          Alcotest.test_case "another split's checkpoints are stale" `Quick
            test_resume_other_split_is_stale;
        ] );
      ( "negation-table",
        [
          Alcotest.test_case "a raising build leaves the table empty" `Quick
            test_negation_build_raises;
          Alcotest.test_case "adopting shards take the counter too" `Quick
            test_negation_adoption_counter;
          Alcotest.test_case "a shard arriving elsewhere builds its own" `Quick
            test_negation_key_mismatch;
        ] );
    ]
