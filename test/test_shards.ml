(* Shard checkpoint files below [Search.run]: checkpoint durability
   (corrupt loads, stale temp files, failed writes, another split's
   files), driven through [Search.Shards]. *)

open Achilles_core

(* --- a fixed client/server pair (shared with the robustness suite) -------- *)

include Random_protocol.Make (struct
  let layout = "shards" and program = "shards" and input = "din"
end)

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

(* Shard 0's event log, as a checkpointing run at 4 split bits writes it
   into [dir]. *)
let checkpointed_shard ~dir ~base client server =
  let config =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      Search.checkpoint_dir = Some dir;
    }
  in
  ignore (run_case ~config ~base client server);
  let file = Filename.concat dir "shard-0000.ckpt" in
  let fingerprint = Search.Shards.fingerprint ~config ~client ~server in
  match Search.Shards.load ~file ~fingerprint ~pos:0 with
  | Some out -> out
  | None -> Alcotest.fail "the run left no loadable checkpoint for shard 0"

let test_checkpoint_corruption_guards () =
  let client, server, base = extract_case fixed_case in
  let dir = fresh_workdir "achilles-shards-ckpt" in
  let out = checkpointed_shard ~dir ~base client server in
  let file = Filename.concat dir "shard-0000.ckpt" in
  let fingerprint = "test-fingerprint" in
  Search.Shards.write ~file ~fingerprint ~pos:0 out;
  Alcotest.(check bool) "pristine checkpoint loads" true
    (Search.Shards.load ~file ~fingerprint ~pos:0 <> None);
  Alcotest.(check bool) "wrong fingerprint rejected" true
    (Search.Shards.load ~file ~fingerprint:"other" ~pos:0 = None);
  Alcotest.(check bool) "wrong shard position rejected" true
    (Search.Shards.load ~file ~fingerprint ~pos:1 = None);
  let size = (Unix.stat file).Unix.st_size in
  (* truncation (a torn write surviving a crash) *)
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size / 2);
  Unix.close fd;
  Alcotest.(check bool) "truncated checkpoint treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~pos:0 = None);
  (* bad magic / junk header *)
  let oc = open_out_bin file in
  output_string oc "NOT-A-CHECKPOINT-AT-ALL";
  close_out oc;
  Alcotest.(check bool) "bad magic treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~pos:0 = None);
  (* empty file *)
  let oc = open_out_bin file in
  close_out oc;
  Alcotest.(check bool) "empty file treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~pos:0 = None);
  (* flipped payload byte: caught by the payload digest *)
  Search.Shards.write ~file ~fingerprint ~pos:0 out;
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  Alcotest.(check bool) "corrupted payload treated as missing" true
    (Search.Shards.load ~file ~fingerprint ~pos:0 = None);
  rm_rf dir

let test_stale_tmp_cleanup () =
  let dir = fresh_workdir "achilles-shards-tmp" in
  let file name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  (* a killed writer's temp file, and the pre-durability temp form *)
  let junk =
    [
      file "shard-0000.ckpt.tmp.12345.0" "half-written by a killed run";
      file "shard-0002.ckpt.tmp.2" "half-written by an older writer";
    ]
  in
  (* "tmp" as the last or only component names no temp file *)
  let keep =
    [
      file "shard-0001.ckpt" "not actually loadable, but not tmp either";
      file "notes.tmp" "a user's file";
    ]
  in
  Alcotest.(check bool) "directory usable" true
    (Search.Shards.prepare_dir dir = Ok ());
  List.iter
    (fun f ->
      Alcotest.(check bool) ("stale tmp swept: " ^ f) false (Sys.file_exists f))
    junk;
  List.iter
    (fun f ->
      Alcotest.(check bool) ("real file kept: " ^ f) true (Sys.file_exists f))
    keep;
  rm_rf dir

(* Shards are named by position, the order one pass reaches them in: the
   [chaos] hook sees positions 0, 1, ..., 15 in turn, and a resume after
   losing shard-0005.ckpt re-explores exactly position 5. *)
let test_shards_named_by_position () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let dir = fresh_workdir "achilles-shards-pos" in
  let seen = ref [] in
  let config ~resume =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
      Search.chaos = Some (fun pos -> seen := pos :: !seen);
    }
  in
  ignore (run_case ~config:(config ~resume:false) ~base client server);
  Alcotest.(check (list int)) "chaos hook sees positions in order"
    (List.init 16 Fun.id) (List.rev !seen);
  Sys.remove (Filename.concat dir "shard-0005.ckpt");
  seen := [];
  let resumed = run_case ~config:(config ~resume:true) ~base client server in
  Alcotest.(check (list int)) "resume records only position 5" [ 5 ] !seen;
  Alcotest.(check int) "15 shards resumed" 15
    resumed.Search.coverage.Search.resumed_shards;
  Alcotest.(check string) "resumed digest unchanged"
    (Report.report_digest clean)
    (Report.report_digest resumed);
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
          Alcotest.test_case "shards are named by position" `Quick
            test_shards_named_by_position;
        ] );
    ]
