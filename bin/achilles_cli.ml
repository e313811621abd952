(* The achilles command-line tool: run Trojan-message analysis on the
   bundled target systems, print client predicates, and replay witnesses.

     dune exec bin/achilles_cli.exe -- analyze fsp
     dune exec bin/achilles_cli.exe -- predicate rw
     dune exec bin/achilles_cli.exe -- list *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Smt_term = Term
module Obs = Achilles_obs.Obs
module Slice = Achilles_slice.Slice
open Cmdliner

(* The registry's targets, each interpreter built once, here at start-up,
   whichever command runs: the fresh variables an interpreter allocates
   (PBFT's [last_rid]) come before any analysis's own, so [last_rid] is
   variable 1 and every analysis numbers its variables from 2 -- the
   numbering the pinned report digests were taken with. *)
let targets =
  List.map
    (fun (t : Registry.t) ->
      let interp = t.interp () in
      { t with interp = (fun () -> interp) })
    Registry.all

let find_target name =
  match List.find_opt (fun (t : Registry.t) -> t.name = name) targets with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown target %S; try: %s" name
           (String.concat ", "
              (List.map (fun (t : Registry.t) -> t.Registry.name) targets)))

(* --- common arguments ----------------------------------------------------------- *)

let target_arg =
  let doc = "Target system to analyze (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let mask_arg =
  let doc =
    "Comma-separated message fields to analyze (defaults to the target's \
     recommended mask). A name that is not a field of the target's \
     message layout is a usage error."
  in
  Arg.(value & opt (some string) None & info [ "mask" ] ~docv:"FIELDS" ~doc)

(* [base] restricted to the values [ok] accepts: anything else is a usage
   error naming [what] is expected. *)
let checked base ok what =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int = checked Arg.int (fun n -> n >= 1) "a positive integer"
let non_negative_int = checked Arg.int (fun n -> n >= 0) "a non-negative integer"

let non_negative_float =
  checked Arg.float (fun x -> x >= 0.) "a non-negative number"

let witnesses_arg =
  let doc = "Concrete witnesses to enumerate per accepting path (at least 1)." in
  Arg.(value & opt positive_int 4 & info [ "witnesses"; "w" ] ~docv:"N" ~doc)

let no_drop_arg =
  let doc = "Disable alive-set tracking (optimization 1 of §3.3)." in
  Arg.(value & flag & info [ "no-drop-alive" ] ~doc)

let no_df_arg =
  let doc = "Disable the differentFrom matrix (optimization 2 of §3.3)." in
  Arg.(value & flag & info [ "no-different-from" ] ~doc)

let no_prune_arg =
  let doc = "Disable no-Trojan state pruning." in
  Arg.(value & flag & info [ "no-prune" ] ~doc)

let no_slice_arg =
  let doc =
    "Disable differentFrom's static-slice shortcuts: every differentFrom \
     pair check hits the solver (also: $(b,ACHILLES_SLICE=0)). Reports are \
     byte-identical in both modes; this is the escape hatch and the \
     $(i,slice-off) row of $(b,--experiment layers)."
  in
  Arg.(value & flag & info [ "no-slice" ] ~doc)

let deadline_arg =
  let doc =
    "Per-solver-query wall-clock deadline in seconds (escalated x4 on \
     Unknown, twice, before the query degrades for good)."
  in
  Arg.(
    value
    & opt (some non_negative_float) None
    & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let solver_budget_arg =
  let doc =
    "Per-solver-query CDCL conflict budget (escalated x4 on Unknown, twice, \
     before the query degrades for good)."
  in
  Arg.(
    value
    & opt (some non_negative_int) None
    & info [ "solver-budget" ] ~docv:"CONFLICTS" ~doc)

let checkpoint_dir_arg =
  let doc =
    "Flush every completed search shard to $(docv) (atomic per-shard files), \
     so an interrupted or killed run can be picked up with $(b,--resume). \
     $(docv) is created if its parent directory exists."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Resume from the shard checkpoints in $(docv): only missing shards are \
     re-explored, and a run that completes this way produces the same \
     report as an uninterrupted one. Implies $(b,--checkpoint-dir) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)

let digest_arg =
  let doc =
    "Print the deterministic report digest (stable across checkpoint \
     splits and resume) — the handle CI uses to assert that every mode reports \
     the same thing — and the verdict digest, the same digest with every \
     witness zeroed (stable across changes that only move SAT models). A \
     third line counts the SAT search's conflicts, decisions and \
     propagations over every solve this process ran (resumed shards run \
     none)."
  in
  Arg.(value & flag & info [ "digest" ] ~doc)

let verbose_arg =
  let doc = "Also print the symbolic Trojan expressions." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let trace_arg =
  let doc =
    "Write a JSONL event trace (span begin/end, solver verdicts, drops, \
     shard lifecycle) to $(docv). Defaults to \
     $(b,ACHILLES_TRACE) when set. Inspect with $(b,trace summarize); \
     convert for Perfetto with $(b,trace export)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* --trace flag, else the ACHILLES_TRACE environment variable. A trace file
   that cannot be opened is a usage error (exit 124), before any work runs. *)
let setup_trace trace =
  match (match trace with Some _ -> trace | None -> Obs.Trace.file_of_env ()) with
  | Some file -> (
      try Obs.Trace.enable file
      with Sys_error msg ->
        Format.eprintf "achilles: cannot write the trace file: %s@." msg;
        exit 124)
  | None -> ()

let explain_arg =
  let doc =
    "Print, for each dropped client path, the unsat core of server \
     constraints that made it incompatible."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

(* The --mask fields, each checked against the target's message layout. *)
let parse_mask (target : Registry.t) = function
  | None -> Ok target.Registry.mask
  | Some s -> (
      let names =
        List.map (fun f -> f.Layout.field_name) (Layout.fields target.layout)
      in
      let fields = String.split_on_char ',' s |> List.map String.trim in
      match List.filter (fun f -> not (List.mem f names)) fields with
      | [] -> Ok (Some fields)
      | unknown ->
          Error
            (Printf.sprintf "unknown --mask field%s %s for target %s; valid: %s"
               (if List.length unknown > 1 then "s" else "")
               (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
               target.Registry.name (String.concat ", " names)))

(* SIGINT/SIGTERM flip a flag the search polls at every branch constraint:
   the in-flight shard winds down, completed shards are kept (and checkpointed
   when --checkpoint-dir is set), and a partial report is still printed —
   with its coverage block flagging the interruption — before exiting 3. *)
let interrupted = Atomic.make false

let install_signal_handlers () =
  let handle signal =
    try
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  handle Sys.sigint;
  handle Sys.sigterm

(* 0 = complete coverage, 3 = partial (interrupted or uncovered shards) *)
let exit_code_of (report : Search.report) =
  if Search.coverage_complete report.Search.coverage then 0 else 3

(* --- commands -------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (t : Registry.t) ->
        Format.printf "%-10s %s@." t.Registry.name t.Registry.description)
      targets;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled target systems")
    Term.(const run $ const ())

let run_analysis ~name (target : Registry.t) ~mask ~witnesses ~no_drop ~no_df ~no_prune
    ~no_slice ~verbose ~explain ~deadline ~solver_budget ~checkpoint_dir
    ~resume ~trace ~digest =
  if no_slice then Slice.set_enabled false;
  install_signal_handlers ();
  setup_trace trace;
  Fun.protect
    ~finally:(fun () ->
      (* also the SIGINT/SIGTERM partial-flush path: the search winds
         down cooperatively and control always comes back through here,
         closing (and thereby flushing) the trace before exit *)
      Obs.Trace.disable ())
  @@ fun () ->
  Obs.emit ~kind:"meta" ~name:"analyze"
    ~args:[ ("target", Obs.S name) ]
    ();
  let solver_budget =
    match (deadline, solver_budget) with
    | None, None -> None
    | deadline, conflicts -> Some (Solver.budget ?deadline ?conflicts ())
  in
  let config =
    {
      (Registry.search_config ~witnesses target) with
      Search.mask;
      Search.drop_alive = not no_drop;
      Search.use_different_from = not no_df;
      Search.prune_no_trojan = not no_prune;
      Search.use_slice = Slice.enabled () && not no_slice;
      Search.explain_drops = explain;
      Search.solver_budget;
      Search.checkpoint_dir;
      Search.resume = resume <> None;
      Search.cancel = (fun () -> Atomic.get interrupted);
    }
  in
  let analysis = Registry.analyze ~config target in
  Obs.span Obs.Report (fun () ->
      Format.printf "%a@.@." Achilles.pp_summary analysis;
      List.iter
        (fun (t : Search.trojan) ->
          Format.printf "%a@." (Report.pp_trojan target.layout) t;
          if verbose then begin
            Format.printf "  symbolic expression:@.";
            List.iter
              (fun line -> Format.printf "    %s@." line)
              (String.split_on_char '\n'
                 (String.concat "\n"
                    (List.map (Format.asprintf "%a" Smt_term.pp)
                       t.Search.symbolic)))
          end)
        (Achilles.trojans analysis);
      if explain then begin
        Format.printf "@.-- why client paths were dropped --@.";
        List.iter
          (fun (d : Search.drop_explanation) ->
            Format.printf
              "  client path %d died at server state %d because:@."
              d.Search.dropped_path d.Search.at_state;
            List.iter
              (fun c -> Format.printf "    %a@." Smt_term.pp c)
              d.Search.conflicting)
          analysis.Achilles.report.Search.drops
      end);
  Format.printf "@.%a@." Report.pp_metrics (Obs.aggregate ());
  if digest then begin
    let s = Solver.stats () in
    Format.printf
      "@.report digest: %s@.verdict digest: %s@.sat counters: conflicts=%d \
       decisions=%d propagations=%d@."
      (Report.report_digest analysis.Achilles.report)
      (Report.verdict_digest analysis.Achilles.report)
      s.Solver.sat_conflicts s.Solver.sat_decisions s.Solver.sat_propagations
  end;
  exit_code_of analysis.Achilles.report

(* --mask needs the target's layout and --checkpoint-dir / --resume the
   filesystem, so they are checked here, before any analysis runs; a bad
   one is a usage error. *)
let analyze name mask witnesses no_drop no_df no_prune no_slice verbose explain
    deadline solver_budget checkpoint_dir resume trace digest =
  match find_target name with
  | Error e ->
      Format.eprintf "%s@." e;
      `Ok 1
  | Ok target -> (
      let checkpoint_dir =
        match resume with Some dir -> Some dir | None -> checkpoint_dir
      in
      let checks =
        Result.bind (parse_mask target mask) (fun mask ->
            Option.fold ~none:(Ok ()) ~some:Search.Shards.prepare_dir
              checkpoint_dir
            |> Result.map (fun () -> mask))
      in
      match checks with
      | Error msg -> `Error (false, msg)
      | Ok mask ->
          `Ok
            (run_analysis ~name target ~mask ~witnesses ~no_drop ~no_df
               ~no_prune ~no_slice ~verbose ~explain ~deadline ~solver_budget
               ~checkpoint_dir ~resume ~trace ~digest))

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Search a target system for Trojan messages"
       ~man:
         [
           `S Cmdliner.Manpage.s_exit_status;
           `P
             "0 on complete coverage; 3 when the report is partial \
              (interrupted by SIGINT/SIGTERM, or a shard failed; \
              $(b,--resume) re-explores the missing shards); 1 on target \
              errors; 124 on usage errors, such as an unknown option or \
              $(b,--mask) field, a checkpoint directory that cannot be \
              used, or a trace file that cannot be written.";
         ])
    Term.(
      ret
        (const analyze $ target_arg $ mask_arg $ witnesses_arg $ no_drop_arg
       $ no_df_arg $ no_prune_arg $ no_slice_arg $ verbose_arg $ explain_arg
       $ deadline_arg $ solver_budget_arg $ checkpoint_dir_arg $ resume_arg
       $ trace_arg $ digest_arg))

let predicate name =
  match find_target name with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok (target : Registry.t) ->
      let config =
        match target.client_interp with Some c -> c () | None -> target.interp ()
      in
      let pc, stats =
        Client_extract.extract ~config ~layout:target.layout (target.clients ())
      in
      Format.printf "%a@." Predicate.pp_client_predicate pc;
      Format.printf
        "(%d programs, %d paths explored, %d messages captured, %.2fs)@.@."
        stats.Client_extract.programs stats.Client_extract.paths_explored
        stats.Client_extract.messages_captured stats.Client_extract.wall_time;
      Format.printf "-- grammar summary (what correct clients put in each field) --@.";
      Format.printf "%a@."
        Report.pp_grammar
        (Report.describe_grammar ?mask:target.mask pc);
      0

let predicate_cmd =
  Cmd.v
    (Cmd.info "predicate"
       ~doc:"Extract and print a target's client predicate PC")
    Term.(const predicate $ target_arg)

let conformance name =
  match find_target name with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok (target : Registry.t) ->
      let client_config =
        match target.client_interp with Some c -> c () | None -> target.interp ()
      in
      let pc, _ =
        Client_extract.extract ~config:client_config ~layout:target.layout
          (target.clients ())
      in
      let report =
        Conformance.run ~interp:(target.interp ()) ~max_per_path:2 ~client:pc
          ~server:(target.server ()) ()
      in
      Format.printf "%a@." (Conformance.pp_report target.layout) report;
      0

let conformance_cmd =
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Find lost messages: messages correct clients generate that the \
          server rejects (the dual of the Trojan difference)")
    Term.(const conformance $ target_arg)

let show name =
  match find_target name with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok (target : Registry.t) ->
      Format.printf "%a@.@." Layout.pp target.layout;
      Format.printf "%a@.@." Pp.pp_program (target.server ());
      List.iter
        (fun client -> Format.printf "%a@.@." Pp.pp_program client)
        (target.clients ());
      0

let show_cmd =
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a target's message layout and programs as pseudo-C")
    Term.(const show $ target_arg)

let replay name witnesses =
  match find_target name with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok (target : Registry.t) ->
      let analysis =
        Registry.analyze ~config:(Registry.search_config ~witnesses target) target
      in
      let trojans = Achilles.trojans analysis in
      let confirmation =
        Achilles_runtime.Inject.confirm ~server:(target.server ()) trojans
      in
      Format.printf "%a@." Achilles_runtime.Inject.pp_confirmation confirmation;
      if confirmation.Achilles_runtime.Inject.rejected > 0 then 1 else 0

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Analyze, then replay every discovered witness against the \
          concretely executed server (fire-drill mode)")
    Term.(const replay $ target_arg $ witnesses_arg)

(* --- compiled filters and the serve daemon ---------------------------------------- *)

module Filter = Achilles_filter.Filter
module Daemon = Achilles_filter.Daemon

let hex_of_witness (bytes : Bv.t array) =
  String.concat ""
    (Array.to_list (Array.map (fun b -> Printf.sprintf "%02x" (Bv.to_int b)) bytes))

let bytes_of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  if n mod 2 <> 0 then Error (Printf.sprintf "odd-length hex string %S" s)
  else
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok out
      else
        match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
        | Some hi, Some lo ->
            Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
            go (i + 1)
        | _ -> Error (Printf.sprintf "not a hex string: %S" s)
    in
    go 0

let pp_verdict filter ppf = function
  | Filter.Accept -> Format.fprintf ppf "accept"
  | Filter.Trojan_suspect id ->
      let label =
        match Filter.state_label filter id with
        | Some l -> Printf.sprintf " %S" l
        | None -> ""
      in
      Format.fprintf ppf "trojan-suspect state=%d%s" id label
  | Filter.Unknown_state -> Format.fprintf ppf "unknown-state"

let enum_values_arg =
  let doc =
    "Solver model-enumeration budget for irreducible existential residues \
     (per residue); past it the residue becomes an honest unknown leaf."
  in
  Arg.(value & opt int 512 & info [ "enum-values" ] ~docv:"N" ~doc)

let output_filter_arg =
  let doc = "Output file (default: $(i,TARGET).achfilter)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let print_witness_arg =
  let doc =
    "Also print each discovered Trojan witness as a hex string ready for \
     $(b,filter query) / $(b,filter send) golden checks."
  in
  Arg.(value & flag & info [ "print-witnesses" ] ~doc)

let write_filter ~name (target : Registry.t) ~mask ~witnesses ~enum_values
    ~output ~print_witnesses =
  let config = { (Registry.search_config ~witnesses target) with Search.mask } in
  let analysis = Registry.analyze ~config target in
  let filter =
    Obs.span Obs.Filter_eval (fun () ->
        Filter.compile ~enum_values ~target:name ~layout:target.layout
          ~report:analysis.Achilles.report ())
  in
  let file = match output with Some f -> f | None -> name ^ ".achfilter" in
  match Filter.save filter ~file with
  | Error e ->
      Format.eprintf "compile-filter: cannot write %s: %s@." file e;
      1
  | Ok () ->
      Format.printf "%a@." Filter.pp_summary filter;
      Format.printf "wrote %s@." file;
      if print_witnesses then
        List.iter
          (fun (t : Search.trojan) ->
            Format.printf "witness state=%d %s@." t.Search.server_state_id
              (hex_of_witness t.Search.witness))
          (Achilles.trojans analysis);
      if Filter.unknown_leaves filter > 0 then
        Format.printf
          "note: %d unknown leaves — some messages will answer \
           unknown-state@."
          (Filter.unknown_leaves filter);
      0

let compile_filter name mask witnesses enum_values output print_witnesses =
  match find_target name with
  | Error e ->
      Format.eprintf "%s@." e;
      `Ok 1
  | Ok target -> (
      match parse_mask target mask with
      | Error msg -> `Error (false, msg)
      | Ok mask ->
          `Ok
            (write_filter ~name target ~mask ~witnesses ~enum_values ~output
               ~print_witnesses))

let compile_filter_cmd =
  Cmd.v
    (Cmd.info "compile-filter"
       ~doc:
         "Analyze a target and compile the per-state Trojan queries \
          ($(i,not) PC restricted to accepting server paths) into a \
          self-contained runtime filter")
    Term.(
      ret
        (const compile_filter $ target_arg $ mask_arg $ witnesses_arg
       $ enum_values_arg $ output_filter_arg $ print_witness_arg))

let filter_file_arg =
  let doc = "Compiled filter written by $(b,compile-filter)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILTER" ~doc)

let socket_arg =
  let doc = "Serve on a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Serve on TCP $(docv) (HOST:PORT)." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_address socket tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (Daemon.Unix_socket path)
  | None, Some hostport -> (
      match String.rindex_opt hostport ':' with
      | None -> Error "--tcp expects HOST:PORT"
      | Some i -> (
          let host = String.sub hostport 0 i in
          let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 0x10000 -> Ok (Daemon.Tcp (host, p))
          | _ -> Error (Printf.sprintf "bad port %S" port)))
  | None, None | Some _, Some _ ->
      Error "exactly one of --socket or --tcp is required"

let serve filter_file socket tcp trace =
  match Filter.load ~file:filter_file with
  | Error e ->
      Format.eprintf "serve: %s@." e;
      1
  | Ok filter -> (
      match parse_address socket tcp with
      | Error e ->
          Format.eprintf "serve: %s@." e;
          1
      | Ok address ->
          install_signal_handlers ();
          (* a peer that hangs up surfaces as an EPIPE error on that one
             socket (the daemon then closes the connection) instead of
             killing the daemon *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          setup_trace trace;
          Format.printf "serving %a@." Filter.pp_summary filter;
          (match address with
          | Daemon.Unix_socket path -> Format.printf "listening on %s@." path
          | Daemon.Tcp (host, port) ->
              Format.printf "listening on %s:%d@." host port);
          (* readiness marker for scripts: the socket exists once run is
             entered, but flushing here lets a parent wait on our stdout *)
          Format.printf "ready@.";
          flush stdout;
          Fun.protect ~finally:(fun () -> Obs.Trace.disable ()) @@ fun () ->
          let stats =
            Daemon.run ~filter ~address
              ~stop:(fun () -> Atomic.get interrupted)
              ()
          in
          Format.printf "%a@." Daemon.pp_stats stats;
          0)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a compiled filter as a daemon: length-prefixed messages in, \
          accept / trojan-suspect / unknown-state verdicts out. SIGTERM or \
          SIGINT drains and prints verdict statistics."
       ~man:
         [
           `S Cmdliner.Manpage.s_description;
           `P
             "Protocol: each request is a 4-byte big-endian length followed \
              by the raw message bytes; each response is one verdict \
              character (A/T/U) and a 4-byte big-endian state id \
              (0xFFFFFFFF when there is none). Frames above 1 MiB drop the \
              connection. A length of 0xFFFFFFFF is the STATS sentinel: \
              the daemon replies with a length-prefixed text block of its \
              live statistics (see $(b,filter stats)). At 1,000 open \
              connections the daemon closes each new connection as soon \
              as it accepts it, and counts it as refused.";
         ])
    Term.(const serve $ filter_file_arg $ socket_arg $ tcp_arg $ trace_arg)

let filter_info file =
  match Filter.load ~file with
  | Error e ->
      Format.eprintf "filter info: %s@." e;
      1
  | Ok filter ->
      Format.printf "%a@." Filter.pp_summary filter;
      0

let filter_info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print a compiled filter's summary")
    Term.(const filter_info $ filter_file_arg)

let hex_messages_arg =
  let doc = "Messages as hex strings (two digits per byte)." in
  Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"HEX" ~doc)

let filter_query file hexes =
  match Filter.load ~file with
  | Error e ->
      Format.eprintf "filter query: %s@." e;
      1
  | Ok filter ->
      let ev = Filter.evaluator filter in
      let rec go = function
        | [] -> 0
        | hex :: rest -> (
            match bytes_of_hex hex with
            | Error e ->
                Format.eprintf "filter query: %s@." e;
                1
            | Ok bytes ->
                Format.printf "%s -> %a@." hex (pp_verdict filter)
                  (Filter.verdict_bytes ev bytes);
                go rest)
      in
      go hexes

let filter_query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate messages against a compiled filter in-process")
    Term.(const filter_query $ filter_file_arg $ hex_messages_arg)

let hex_messages_all_arg =
  let doc = "Messages as hex strings (two digits per byte)." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"HEX" ~doc)

let filter_send socket tcp hexes =
  match parse_address socket tcp with
  | Error e ->
      Format.eprintf "filter send: %s@." e;
      1
  | Ok address -> (
      let sockaddr, domain =
        match address with
        | Daemon.Unix_socket path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
        | Daemon.Tcp (host, port) ->
            (Unix.ADDR_INET (Unix.inet_addr_of_string host, port), Unix.PF_INET)
      in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd sockaddr with
      | exception Unix.Unix_error (err, _, _) ->
          Format.eprintf "filter send: connect: %s@." (Unix.error_message err);
          1
      | () ->
          let read_exactly n =
            let buf = Bytes.create n in
            let rec go off =
              if off >= n then buf
              else
                match Unix.read fd buf off (n - off) with
                | 0 -> failwith "daemon closed the connection"
                | k -> go (off + k)
            in
            go 0
          in
          let code =
            try
              List.iter
                (fun hex ->
                  match bytes_of_hex hex with
                  | Error e -> failwith e
                  | Ok payload ->
                      let frame = Bytes.create (4 + Bytes.length payload) in
                      Bytes.set_int32_be frame 0
                        (Int32.of_int (Bytes.length payload));
                      Bytes.blit payload 0 frame 4 (Bytes.length payload);
                      let _ = Unix.write fd frame 0 (Bytes.length frame) in
                      let reply = read_exactly 5 in
                      let state =
                        Int32.to_int (Bytes.get_int32_be reply 1)
                        land 0xFFFFFFFF
                      in
                      let verdict =
                        match Bytes.get reply 0 with
                        | 'A' -> "accept"
                        | 'T' -> Printf.sprintf "trojan-suspect state=%d" state
                        | 'U' -> "unknown-state"
                        | c -> Printf.sprintf "unexpected reply %C" c
                      in
                      Format.printf "%s -> %s@." hex verdict)
                hexes;
              0
            with Failure e ->
              Format.eprintf "filter send: %s@." e;
              1
          in
          (try Unix.close fd with Unix.Unix_error _ -> ());
          code)

let filter_send_cmd =
  Cmd.v
    (Cmd.info "send"
       ~doc:
         "Send messages to a running $(b,serve) daemon and print its \
          verdicts (the daemon's wire protocol, exercised end to end)")
    Term.(const filter_send $ socket_arg $ tcp_arg $ hex_messages_all_arg)

let filter_stats socket tcp =
  match parse_address socket tcp with
  | Error e ->
      Format.eprintf "filter stats: %s@." e;
      1
  | Ok address -> (
      let sockaddr, domain =
        match address with
        | Daemon.Unix_socket path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
        | Daemon.Tcp (host, port) ->
            (Unix.ADDR_INET (Unix.inet_addr_of_string host, port), Unix.PF_INET)
      in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd sockaddr with
      | exception Unix.Unix_error (err, _, _) ->
          Format.eprintf "filter stats: connect: %s@." (Unix.error_message err);
          1
      | () ->
          let read_exactly n =
            let buf = Bytes.create n in
            let rec go off =
              if off >= n then buf
              else
                match Unix.read fd buf off (n - off) with
                | 0 -> failwith "daemon closed the connection"
                | k -> go (off + k)
            in
            go 0
          in
          let code =
            try
              (* the STATS sentinel: an impossible frame length *)
              let req = Bytes.create 4 in
              Bytes.set_int32_be req 0 0xFFFFFFFFl;
              let _ = Unix.write fd req 0 4 in
              let len =
                Int32.to_int (Bytes.get_int32_be (read_exactly 4) 0)
                land 0xFFFFFFFF
              in
              print_string (Bytes.to_string (read_exactly len));
              0
            with Failure e ->
              Format.eprintf "filter stats: %s@." e;
              1
          in
          (try Unix.close fd with Unix.Unix_error _ -> ());
          code)

let filter_stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Ask a running $(b,serve) daemon for its live statistics over the \
          verdict socket (uptime, connection and message totals, verdict \
          counters, refused connections, dropped frames, latency quantiles) \
          — one $(i,key value) line each; this is the daemon's only \
          counter surface")
    Term.(const filter_stats $ socket_arg $ tcp_arg)

let filter_cmd =
  Cmd.group
    (Cmd.info "filter"
       ~doc:"Inspect, evaluate, and exercise compiled Trojan filters")
    [ filter_info_cmd; filter_query_cmd; filter_send_cmd; filter_stats_cmd ]

(* --- trace inspection ------------------------------------------------------------- *)

let trace_file_arg =
  let doc = "JSONL trace file written by $(b,analyze --trace)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let trace_summarize file =
  match Obs.Summary.load file with
  | Error e ->
      Format.eprintf "trace summarize: %s@." e;
      1
  | Ok s ->
      let open Obs.Summary in
      Format.printf
        "Trace: %d events over %.3fs wall; %.1f%% of wall-clock attributed \
         to named phases@.@."
        s.events s.wall (100. *. s.attributed);
      Format.printf "%-16s %10s %8s %10s %8s %9s %9s %9s %10s@." "phase"
        "self(s)" "share" "total(s)" "spans" "p50(ms)" "p95(ms)" "p99(ms)"
        "max(ms)";
      let rows =
        List.sort (fun a b -> compare b.self_seconds a.self_seconds) s.rows
      in
      List.iter
        (fun r ->
          (* a bucket's midpoint can lie above every span in it *)
          let q p =
            1000.
            *. Float.min r.max_seconds (Obs.estimate_quantile r.row_hist p)
          in
          Format.printf
            "%-16s %10.3f %7.1f%% %10.3f %8d %9.2f %9.2f %9.2f %10.2f@."
            r.row_phase r.self_seconds
            (if s.wall > 0. then 100. *. r.self_seconds /. s.wall else 0.)
            r.total_seconds r.row_spans (q 0.5) (q 0.95) (q 0.99)
            (1000. *. r.max_seconds))
        rows;
      if s.sites <> [] then begin
        (* the same self-time attribution, split by the caller that issued
           each span *)
        Format.printf "@.%-16s %-16s %10s %8s %10s %8s@." "phase" "call site"
          "self(s)" "share" "total(s)" "spans";
        List.iter
          (fun (site, r) ->
            Format.printf "%-16s %-16s %10.3f %7.1f%% %10.3f %8d@." r.row_phase
              site r.self_seconds
              (if s.wall > 0. then 100. *. r.self_seconds /. s.wall else 0.)
              r.total_seconds r.row_spans)
          (List.sort
             (fun (_, a) (_, b) -> compare b.self_seconds a.self_seconds)
             s.sites)
      end;
      if s.verdicts <> [] then begin
        Format.printf "@.solver verdicts:";
        List.iter (fun (v, n) -> Format.printf " %s=%d" v n) s.verdicts;
        Format.printf "@."
      end;
      if s.counters <> [] then begin
        Format.printf "@.counters:@.";
        List.iter
          (fun (name, n) -> Format.printf "  %-28s %d@." name n)
          s.counters
      end;
      if s.kinds <> [] then begin
        Format.printf "@.events by kind:@.";
        List.iter (fun (k, n) -> Format.printf "  %-28s %d@." k n) s.kinds
      end;
      0

let trace_summarize_cmd =
  Cmd.v
    (Cmd.info "summarize"
       ~doc:
         "Print a per-phase time/query breakdown of a JSONL trace. Self-time \
          attribution: nested spans (a solver query inside the server \
          search) are charged to the innermost phase only.")
    Term.(const trace_summarize $ trace_file_arg)

let trace_export file output =
  let dst =
    match output with Some o -> o | None -> file ^ ".chrome.json"
  in
  match Obs.Chrome.export ~src:file ~dst with
  | Error e ->
      Format.eprintf "trace export: %s@." e;
      1
  | Ok () ->
      Format.printf
        "wrote %s (load in Perfetto / chrome://tracing as a flamegraph)@." dst;
      0

let trace_export_cmd =
  let output_arg =
    let doc = "Output path (default: $(i,FILE).chrome.json)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Convert a JSONL trace to Chrome trace-event JSON for Perfetto / \
          chrome://tracing")
    Term.(const trace_export $ trace_file_arg $ output_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect JSONL traces written by analyze --trace")
    [ trace_summarize_cmd; trace_export_cmd ]

let () =
  (* Every command but [serve] writes to stdout like a Unix filter: a
     reader that goes away early ([achilles analyze fsp | head -1]) ends
     it quietly through SIGPIPE's default action, whatever disposition the
     parent process left behind. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let doc = "find Trojan messages in distributed system implementations" in
  let info = Cmd.info "achilles" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            analyze_cmd;
            predicate_cmd;
            replay_cmd;
            show_cmd;
            conformance_cmd;
            compile_filter_cmd;
            serve_cmd;
            filter_cmd;
            trace_cmd;
          ]))
