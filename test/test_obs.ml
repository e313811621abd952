(* The observability layer: JSON round-trips, metric aggregation and
   reset, the JSONL writer's one-line-per-event output and mid-run
   interruption, self-time attribution in trace summaries, the Chrome
   exporter, a committed trace whose summary and export are pinned byte for
   byte, and the guarantee that tracing never perturbs search results
   (digest equality on random cases, golden FSP digests). *)

open Achilles_smt
open Achilles_core
open Achilles_targets
module Obs = Achilles_obs.Obs

(* --- JSON round-trips --------------------------------------------------------- *)

let tricky_string = "q\"uote \\back\nnew\tline \r \001ctrl caf\xc3\xa9"

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing field %S" k)

let check_num fields k expected =
  match field fields k with
  | Obs.Json.Num f -> Alcotest.(check (float 0.)) k expected f
  | _ -> Alcotest.fail (Printf.sprintf "field %S is not a number" k)

let check_str fields k expected =
  match field fields k with
  | Obs.Json.Str s -> Alcotest.(check string) k expected s
  | _ -> Alcotest.fail (Printf.sprintf "field %S is not a string" k)

let test_json_roundtrip () =
  let ev =
    {
      Obs.ev_t = 1.25;
      ev_kind = "te\"st";
      ev_name = tricky_string;
      ev_args =
        [
          ("s", Obs.S tricky_string);
          ("i", Obs.I (-42));
          ("f", Obs.F 0.015625);
          ("whole", Obs.F 3.0);
          ("b", Obs.B true);
        ];
    }
  in
  match Obs.Json.parse_line (Obs.json_of_event ev) with
  | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
  | Ok fields ->
      check_num fields "t" 1.25;
      check_str fields "kind" "te\"st";
      check_str fields "name" tricky_string;
      check_str fields "s" tricky_string;
      check_num fields "i" (-42.);
      check_num fields "f" 0.015625;
      check_num fields "whole" 3.;
      (match field fields "b" with
      | Obs.Json.Bool true -> ()
      | _ -> Alcotest.fail "field b is not true")

let test_json_parse_errors () =
  let bad s =
    match Obs.Json.parse_line s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" s)
  in
  bad "not json";
  bad "{\"a\":1} trailing";
  bad "{\"a\":}";
  bad "{\"a\":\"unterminated";
  bad "{\"a\":1,}";
  (match Obs.Json.parse_line "{}" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty object should parse to an empty assoc");
  match Obs.Json.parse_line "{ \"a\" : null , \"b\" : -1.5e2 }" with
  | Ok [ ("a", Obs.Json.Null); ("b", Obs.Json.Num f) ] ->
      Alcotest.(check (float 0.)) "number with exponent" (-150.) f
  | _ -> Alcotest.fail "whitespace/null/exponent object misparsed"

(* --- metrics: aggregate and reset ---------------------------------------------- *)

let test_aggregate_and_reset () =
  Obs.reset_all ();
  for _ = 1 to 5 do
    Obs.span Obs.Negate (fun () -> ());
    Obs.count ~n:2 "obs.test_counter"
  done;
  let snap = Obs.aggregate () in
  let negate = List.assoc Obs.Negate snap.Obs.phases in
  Alcotest.(check int) "spans summed" 5 negate.Obs.spans;
  Alcotest.(check bool) "elapsed non-negative" true (negate.Obs.seconds >= 0.);
  Alcotest.(check int) "histogram mass equals span count" 5
    (Array.fold_left ( + ) 0 negate.Obs.histogram);
  Alcotest.(check (option int)) "counter summed" (Some 10)
    (List.assoc_opt "obs.test_counter" snap.Obs.counters);
  Obs.reset_all ();
  Alcotest.(check int) "an earlier snapshot survives the reset" 5
    (Array.fold_left ( + ) 0 negate.Obs.histogram);
  let snap = Obs.aggregate () in
  let negate = List.assoc Obs.Negate snap.Obs.phases in
  Alcotest.(check int) "reset zeroes the spans" 0 negate.Obs.spans;
  Alcotest.(check (option int)) "reset clears counters" None
    (List.assoc_opt "obs.test_counter" snap.Obs.counters)

let test_phase_names_total () =
  Alcotest.(check int) "ten phases" 10 (List.length Obs.all_phases);
  List.iter
    (fun p ->
      match Obs.phase_of_name (Obs.phase_name p) with
      | Some p' when p' = p -> ()
      | _ -> Alcotest.fail ("phase name does not round-trip: " ^ Obs.phase_name p))
    Obs.all_phases;
  Alcotest.(check (option reject)) "unknown phase name rejected" None
    (Obs.phase_of_name "no_such_phase")

(* --- the JSONL writer ---------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let check_all_lines_parse path lines =
  List.iteri
    (fun i line ->
      match Obs.Json.parse_line line with
      | Ok _ -> ()
      | Error msg ->
          Alcotest.fail (Printf.sprintf "%s:%d: invalid JSON (%s)" path (i + 1) msg))
    lines

let test_one_line_per_event () =
  let file = Filename.temp_file "achilles-obs-lines" ".jsonl" in
  Obs.Trace.enable file;
  let n = 200 in
  for i = 0 to n - 1 do
    Obs.emit
      ~args:[ ("i", Obs.I i); ("s", Obs.S "x\"y\nz") ]
      ~kind:"test" ~name:"tick" ();
    Obs.span Obs.Checkpoint_io (fun () -> ())
  done;
  Obs.Trace.disable ();
  let lines = read_lines file in
  (* the trace_start meta stamp, then one tick + span_begin/span_end per
     iteration, no torn or merged lines *)
  Alcotest.(check int) "every event is exactly one line" ((n * 3) + 1)
    (List.length lines);
  (match Obs.Json.parse_line (List.hd lines) with
  | Ok fields ->
      check_str fields "kind" "meta";
      check_str fields "name" "trace_start"
  | Error msg -> Alcotest.fail ("meta line unparseable: " ^ msg));
  check_all_lines_parse file lines;
  let parsed =
    List.filter_map (fun l -> Result.to_option (Obs.Json.parse_line l)) lines
  in
  Alcotest.(check bool) "no line carries a tid" false
    (List.exists (List.mem_assoc "tid") parsed);
  let ticks =
    List.filter
      (fun fields -> List.assoc_opt "kind" fields = Some (Obs.Json.Str "test"))
      parsed
  in
  Alcotest.(check int) "all ticks accounted" n (List.length ticks);
  List.iteri (fun i fields -> check_num fields "i" (float_of_int i)) ticks;
  check_str (List.hd ticks) "s" "x\"y\nz";
  Sys.remove file

(* --- random client/server pairs (shared with the robustness suite) ---------- *)

include Random_protocol.Make (struct
  let layout = "obs" and program = "obs" and input = "oin"
end)

(* --- a cancelled run still leaves a flushed, parseable trace ------------------- *)

let test_interrupted_trace_parseable () =
  let client, server, base = extract_case fixed_case in
  let file = Filename.temp_file "achilles-obs-cancel" ".jsonl" in
  Obs.Trace.enable file;
  let calls = Atomic.make 0 in
  let config =
    {
      Search.default_config with
      Search.split_bits = Some 4;
      (* trips partway through the run, like a SIGINT/SIGTERM would: the
         flag is polled at every branch constraint and shard boundary *)
      Search.cancel = (fun () -> Atomic.fetch_and_add calls 1 >= 10);
    }
  in
  let partial = run_case ~config ~base client server in
  Alcotest.(check bool) "interruption reported" true
    partial.Search.coverage.Search.interrupted;
  (* read the file BEFORE disable: the per-line flush must already have
     left only whole lines behind, as a process kill would find them *)
  let lines = read_lines file in
  Alcotest.(check bool) "interrupted trace is non-empty" true (lines <> []);
  check_all_lines_parse file lines;
  Obs.Trace.disable ();
  (match Obs.Summary.load file with
  | Error msg -> Alcotest.fail ("summarize failed on interrupted trace: " ^ msg)
  | Ok s ->
      Alcotest.(check int) "summary saw every flushed line" (List.length lines)
        s.Obs.Summary.events;
      Alcotest.(check bool) "attribution is a fraction" true
        (s.Obs.Summary.attributed >= 0. && s.Obs.Summary.attributed <= 1.));
  Sys.remove file

(* --- self-time attribution on a hand-written trace ----------------------------- *)

let evt ?(args = []) t kind name =
  [
    ("t", Obs.Json.Num t);
    ("kind", Obs.Json.Str kind);
    ("name", Obs.Json.Str name);
  ]
  @ args

let row_of s name =
  match
    List.find_opt
      (fun r -> r.Obs.Summary.row_phase = name)
      s.Obs.Summary.rows
  with
  | Some r -> r
  | None -> Alcotest.fail ("summary has no row for " ^ name)

let test_summary_self_time () =
  let events =
    [
      evt 0. "span_begin" "server_se";
      evt 2. "span_begin" "solver_query";
      evt 5. "span_end" "solver_query" ~args:[ ("dur", Obs.Json.Num 3.) ];
      evt 6. "counter" "foo" ~args:[ ("n", Obs.Json.Num 4.) ];
      evt 7. "solver" "verdict" ~args:[ ("result", Obs.Json.Str "sat") ];
      evt 7.5 "cache" "hit";
      evt 7.6 "cache" "miss";
      evt 10. "span_end" "server_se" (* no dur: derived from t - start *);
      evt 1. "span_begin" "negate" (* left open: the run was killed *);
    ]
  in
  let s = Obs.Summary.of_events events in
  Alcotest.(check (float 1e-9)) "wall clock spans the event range" 10. s.Obs.Summary.wall;
  let server = row_of s "server_se" in
  Alcotest.(check (float 1e-9)) "server_se total" 10. server.Obs.Summary.total_seconds;
  Alcotest.(check (float 1e-9)) "server_se self excludes its child" 7.
    server.Obs.Summary.self_seconds;
  Alcotest.(check (float 1e-9)) "server_se max" 10. server.Obs.Summary.max_seconds;
  let solver = row_of s "solver_query" in
  Alcotest.(check (float 1e-9)) "solver_query self = dur (leaf span)" 3.
    solver.Obs.Summary.self_seconds;
  Alcotest.(check int) "solver_query span count" 1 solver.Obs.Summary.row_spans;
  (* the unclosed span is closed at the last timestamp *)
  let negate = row_of s "negate" in
  Alcotest.(check (float 1e-9)) "unclosed span closed at max t" 9.
    negate.Obs.Summary.total_seconds;
  (* server_se, a root span, covers the whole window; the negate root
     closed at the end cannot push coverage past 1 *)
  Alcotest.(check (float 1e-9)) "fully attributed" 1. s.Obs.Summary.attributed;
  Alcotest.(check (option int)) "counter event tallied" (Some 4)
    (List.assoc_opt "foo" s.Obs.Summary.counters);
  Alcotest.(check (option int)) "verdict tallied" (Some 1)
    (List.assoc_opt "sat" s.Obs.Summary.verdicts);
  (* traces from before the solver result caches were removed carry
     "cache" events: they count under their kind and nowhere else *)
  Alcotest.(check (option int)) "old cache events kept by kind" (Some 2)
    (List.assoc_opt "cache" s.Obs.Summary.kinds);
  Alcotest.(check (list (pair string int))) "cache events are not counters"
    [ ("foo", 4) ] s.Obs.Summary.counters;
  Alcotest.(check int) "event count" 9 s.Obs.Summary.events

(* A trace file written before the solver result caches were removed still
   loads: its "cache" events show up only under events-by-kind. *)
let test_summary_loads_old_cache_events () =
  let file = Filename.temp_file "achilles-obs-oldcache" ".jsonl" in
  let oc = open_out file in
  List.iter
    (fun l -> output_string oc (l ^ "\n"))
    [
      {|{"t":0,"tid":0,"kind":"span_begin","name":"solver_query"}|};
      {|{"t":0.5,"tid":0,"kind":"cache","name":"miss"}|};
      {|{"t":1,"tid":0,"kind":"span_end","name":"solver_query","dur":1}|};
      {|{"t":1.5,"tid":0,"kind":"cache","name":"hit"}|};
    ];
  close_out oc;
  let loaded = Obs.Summary.load file in
  Sys.remove file;
  match loaded with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      Alcotest.(check (option int)) "cache events by kind" (Some 2)
        (List.assoc_opt "cache" s.Obs.Summary.kinds);
      Alcotest.(check int) "no counters from cache events" 0
        (List.length s.Obs.Summary.counters);
      Alcotest.(check int) "solver_query span read" 1
        (row_of s "solver_query").Obs.Summary.row_spans

(* --- Chrome export ------------------------------------------------------------- *)

let test_chrome_export () =
  let src = Filename.temp_file "achilles-obs-chrome" ".jsonl" in
  let dst = src ^ ".chrome.json" in
  let oc = open_out src in
  List.iter
    (fun ev -> output_string oc (Obs.json_of_event ev ^ "\n"))
    [
      {
        Obs.ev_t = 0.001;
        ev_kind = "span_begin";
        ev_name = "solver_query";
        ev_args = [];
      };
      {
        Obs.ev_t = 0.004;
        ev_kind = "span_end";
        ev_name = "solver_query";
        ev_args = [ ("dur", Obs.F 0.003) ];
      };
      {
        Obs.ev_t = 0.005;
        ev_kind = "drop";
        ev_name = "transitive";
        ev_args = [ ("route", Obs.S "r\"1") ];
      };
    ];
  close_out oc;
  (match Obs.Chrome.export ~src ~dst with
  | Error msg -> Alcotest.fail ("export failed: " ^ msg)
  | Ok () -> ());
  let ic = open_in_bin dst in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains needle =
    let nl = String.length needle and l = String.length out in
    let rec go i = i + nl <= l && (String.sub out i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "output contains %s" needle) true (go 0)
  in
  Alcotest.(check bool) "traceEvents wrapper" true
    (String.length out > 16 && String.sub out 0 16 = "{\"traceEvents\":[");
  contains "\"ph\":\"B\"";
  contains "\"ph\":\"E\"";
  contains "\"ph\":\"i\"";
  contains "\"s\":\"t\"";
  (* µs timestamps *)
  contains "\"ts\":1000.000";
  contains "\"ts\":4000.000";
  (* args carried over, with JSON escapes intact *)
  contains "\"route\":\"r\\\"1\"";
  contains "\"name\":\"drop:transitive\"";
  Sys.remove src;
  Sys.remove dst

(* --- latency quantiles from log2-µs histograms --------------------------------- *)

let bucket_mid k = (2. ** (float_of_int k +. 0.5)) *. 1e-6

let test_estimate_quantile () =
  let hist = Array.make Obs.histogram_buckets 0 in
  Alcotest.(check (float 0.)) "empty histogram" 0.
    (Obs.estimate_quantile hist 0.5);
  hist.(0) <- 10;
  hist.(10) <- 10;
  Alcotest.(check (float 1e-12)) "p25 falls in bucket 0" (bucket_mid 0)
    (Obs.estimate_quantile hist 0.25);
  Alcotest.(check (float 1e-9)) "p75 falls in bucket 10" (bucket_mid 10)
    (Obs.estimate_quantile hist 0.75);
  Alcotest.(check (float 1e-9)) "p100 is the last occupied bucket" (bucket_mid 10)
    (Obs.estimate_quantile hist 1.0);
  Alcotest.(check (float 1e-12)) "p0 clamps to the first observation"
    (bucket_mid 0) (Obs.estimate_quantile hist 0.);
  (* bucket_of_seconds must land durations in the bucket the quantile
     estimator reads back *)
  let one_ms = Array.make Obs.histogram_buckets 0 in
  one_ms.(Obs.bucket_of_seconds 1e-3) <- 1;
  let est = Obs.estimate_quantile one_ms 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "1ms estimate within 2x (%g)" est)
    true
    (est >= 0.5e-3 && est <= 2e-3)

(* --- nested JSON values (Json.v) ----------------------------------------------- *)

let test_json_value_roundtrip () =
  let v =
    Obs.Json.VObj
      [
        ("s", Obs.Json.VStr tricky_string);
        ("n", Obs.Json.VNum 1.5);
        ("neg", Obs.Json.VNum (-3.));
        ("null", Obs.Json.VNull);
        ("b", Obs.Json.VBool false);
        ( "arr",
          Obs.Json.VArr
            [ Obs.Json.VNum 1.; Obs.Json.VStr "x"; Obs.Json.VObj [] ] );
        ("obj", Obs.Json.VObj [ ("k", Obs.Json.VArr []) ]);
      ]
  in
  (match Obs.Json.parse (Obs.Json.to_string v) with
  | Error e -> Alcotest.fail ("nested round-trip failed: " ^ e)
  | Ok v' -> Alcotest.(check bool) "nested value round-trips" true (v = v'));
  (match Obs.Json.parse "\"caf\\u00e9\"" with
  | Ok (Obs.Json.VStr s) ->
      Alcotest.(check string) "unicode escape decodes to UTF-8" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape misparsed");
  (match Obs.Json.parse " [ 1 , true , null ] " with
  | Ok (Obs.Json.VArr [ Obs.Json.VNum 1.; Obs.Json.VBool true; Obs.Json.VNull ])
    -> ()
  | _ -> Alcotest.fail "whitespace array misparsed");
  let bad s =
    match Obs.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" s)
  in
  bad "{";
  bad "[1,";
  bad "tru";
  bad "{\"a\":1} x";
  (* accessors *)
  (match Obs.Json.mem "n" v with
  | Some n ->
      Alcotest.(check (option (float 0.))) "to_float" (Some 1.5)
        (Obs.Json.to_float n)
  | None -> Alcotest.fail "mem lost a field");
  Alcotest.(check (option string)) "to_str"
    (Some tricky_string)
    (Option.bind (Obs.Json.mem "s" v) Obs.Json.to_str);
  Alcotest.(check bool) "mem on non-object" true
    (Obs.Json.mem "x" (Obs.Json.VNum 1.) = None)

(* --- the trace_start meta event --------------------------------------------------- *)

let test_trace_meta_identity () =
  let file = Filename.temp_file "achilles-obs-meta" ".jsonl" in
  Obs.Trace.enable file;
  Obs.emit ~kind:"test" ~name:"x" ();
  Obs.Trace.disable ();
  let lines = read_lines file in
  Alcotest.(check int) "meta stamp plus one event" 2 (List.length lines);
  (match Obs.Json.parse_line (List.hd lines) with
  | Error e -> Alcotest.fail ("meta line unparseable: " ^ e)
  | Ok fields -> (
      check_str fields "kind" "meta";
      check_str fields "name" "trace_start";
      check_num fields "pid" (float_of_int (Unix.getpid ()));
      match field fields "wall0" with
      | Obs.Json.Num w ->
          Alcotest.(check bool) "wall0 is an epoch timestamp near now" true
            (Float.abs (w -. Unix.gettimeofday ()) < 3600.)
      | _ -> Alcotest.fail "wall0 is not a number"));
  Sys.remove file

(* --- traces with the older run_id/proc meta ------------------------------------- *)

let write_stream path ~run_id ~proc ~wall0 events =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"t\":0,\"tid\":0,\"kind\":\"meta\",\"name\":\"trace_start\",\"run_id\":%S,\"proc\":%S,\"pid\":1,\"wall0\":%.6f}\n"
    run_id proc wall0;
  List.iter
    (fun ev -> output_string oc (Obs.json_of_event ev ^ "\n"))
    events;
  close_out oc

let span_pair t name =
  [
    { Obs.ev_t = t; ev_kind = "span_begin"; ev_name = name; ev_args = [] };
    {
      Obs.ev_t = t +. 0.5;
      ev_kind = "span_end";
      ev_name = name;
      ev_args = [ ("dur", Obs.F 0.5) ];
    };
  ]

(* Traces once stamped their trace_start meta with a run id and a process
   name; such files must still summarize and export. *)
let test_old_meta_loads () =
  let src = Filename.temp_file "achilles-obs-oldmeta" ".jsonl" in
  let dst = src ^ ".chrome.json" in
  write_stream src ~run_id:"deadbeef0001" ~proc:"analyze" ~wall0:1000.
    (span_pair 1.0 "server_se");
  (match Obs.Summary.load src with
  | Error e -> Alcotest.fail ("summary failed: " ^ e)
  | Ok s ->
      Alcotest.(check int) "all three events read" 3 s.Obs.Summary.events;
      Alcotest.(check int) "server_se span read" 1
        (row_of s "server_se").Obs.Summary.row_spans);
  (match Obs.Chrome.export ~src ~dst with
  | Error e -> Alcotest.fail ("export failed: " ^ e)
  | Ok () -> ());
  (match
     Obs.Json.parse (In_channel.with_open_bin dst In_channel.input_all)
   with
  | Error e -> Alcotest.fail ("exported trace is not valid JSON: " ^ e)
  | Ok v -> (
      match Obs.Json.mem "traceEvents" v with
      | Some (Obs.Json.VArr evs) ->
          Alcotest.(check int) "every event exported" 3 (List.length evs)
      | _ -> Alcotest.fail "export lacks a traceEvents array"));
  Sys.remove src;
  Sys.remove dst

(* --- tracing must never change search results ---------------------------------- *)

let qcheck_trace_invisible =
  QCheck2.Test.make
    ~name:"trace on/off and split bits 0/4 all agree on report digests"
    ~count:10
    case_gen
    (fun case ->
      let client, server, base = extract_case case in
      let digest ~split_bits ~traced =
        let config =
          { Search.default_config with Search.split_bits = Some split_bits }
        in
        if not traced then
          Report.report_digest (run_case ~config ~base client server)
        else begin
          let file = Filename.temp_file "achilles-obs-q" ".jsonl" in
          Obs.Trace.enable file;
          Fun.protect
            ~finally:(fun () ->
              Obs.Trace.disable ();
              Sys.remove file)
            (fun () ->
              Report.report_digest (run_case ~config ~base client server))
        end
      in
      let d = digest ~split_bits:0 ~traced:false in
      d = digest ~split_bits:0 ~traced:true
      && d = digest ~split_bits:4 ~traced:false
      && d = digest ~split_bits:4 ~traced:true)

(* The pinned FSP digests ({!Goldens}): the instrumented search, traced or
   not, must still reproduce them byte for byte. *)

let test_fsp_golden_traced () =
  let run split_bits =
    Solver.reset_all_for_tests ();
    Term.reset_fresh_counter ();
    let file = Filename.temp_file "achilles-obs-fsp" ".jsonl" in
    Obs.Trace.enable file;
    let analysis =
      Fun.protect
        ~finally:(fun () -> Obs.Trace.disable ())
        (fun () ->
          let config =
            {
              (Registry.search_config ~witnesses:16 Registry.fsp) with
              Search.split_bits = Some split_bits;
            }
          in
          Registry.analyze ~config Registry.fsp)
    in
    (analysis, file)
  in
  let a1, f1 = run 0 in
  let a4, f4 = run 4 in
  let report (a : Achilles.analysis) = a.Achilles.report in
  Alcotest.(check string) "Fig 10 golden, traced, 1 shard" Goldens.fig10_digest
    (Report.discovery_digest (report a1));
  Alcotest.(check string) "Fig 10 golden, traced, 16 shards" Goldens.fig10_digest
    (Report.discovery_digest (report a4));
  Alcotest.(check string) "Fig 11 golden, traced, 1 shard" Goldens.fig11_digest
    (Report.alive_digest (report a1).Search.search_stats);
  Alcotest.(check string) "Fig 11 golden, traced, 16 shards" Goldens.fig11_digest
    (Report.alive_digest (report a4).Search.search_stats);
  Alcotest.(check string) "full reports agree across splits"
    (Report.report_digest (report a1))
    (Report.report_digest (report a4));
  (* the acceptance bar: summarize attributes >= 95% of wall-clock to the
     named phases on an FSP run *)
  List.iter
    (fun file ->
      match Obs.Summary.load file with
      | Error msg -> Alcotest.fail ("summarize failed: " ^ msg)
      | Ok s ->
          Alcotest.(check bool)
            (Printf.sprintf "attribution >= 95%% (%s: %.1f%%)" file
               (100. *. s.Obs.Summary.attributed))
            true
            (s.Obs.Summary.attributed >= 0.95);
          List.iter
            (fun phase ->
              Alcotest.(check bool)
                (Printf.sprintf "%s has a row in %s" phase file)
                true
                (List.exists
                   (fun r -> r.Obs.Summary.row_phase = phase)
                   s.Obs.Summary.rows))
            [ "client_se"; "server_se"; "solver_query" ];
          (* solver time split by the caller that issued each query *)
          List.iter
            (fun site ->
              Alcotest.(check bool)
                (Printf.sprintf "solver_query has a %s site row in %s" site file)
                true
                (List.exists
                   (fun (site', r) ->
                     site' = site
                     && r.Obs.Summary.row_phase = "solver_query"
                     && r.Obs.Summary.row_spans > 0)
                   s.Obs.Summary.sites))
            [ "witness"; "alive" ];
          Sys.remove file)
    [ f1; f4 ]

(* The trace surface of the built CLI end to end: a traced FSP analysis
   summarizes (every headline phase and the per-site solver rows present)
   and exports to Chrome trace-event JSON that the full JSON reader
   accepts. The trace and export are removed only when every check
   passes; a failure leaves both behind and names the trace in its
   message, so a red run can still be inspected. *)
let run_cli ~where args =
  let binary =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/achilles_cli.exe"
  in
  let ic = Unix.open_process_args_in binary (Array.of_list (binary :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "achilles %s failed%s:\n%s" (String.concat " " args) where out

let test_cli_trace_smoke () =
  (* in the test's own directory, which outlives the run (the temporary
     directory a test runner provides may not) *)
  let temp_dir = Sys.getcwd () in
  let trace = Filename.temp_file ~temp_dir "achilles-cli-trace" ".jsonl" in
  let chrome = Filename.temp_file ~temp_dir "achilles-cli-trace" ".chrome.json" in
  let where = Printf.sprintf " [trace: %s]" trace in
  ignore (run_cli ~where [ "analyze"; "fsp"; "--trace"; trace ]);
  let summary = run_cli ~where [ "trace"; "summarize"; trace ] in
  let lines = String.split_on_char '\n' summary in
  let has_row first second =
    List.exists
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | a :: b :: _ -> a = first && (second = None || Some b = second)
        | _ -> false)
      lines
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " row" ^ where) true (has_row phase None))
    [ "client_se"; "server_se"; "solver_query"; "report" ];
  List.iter
    (fun site ->
      Alcotest.(check bool)
        ("solver_query " ^ site ^ " site row" ^ where)
        true
        (has_row "solver_query" (Some site)))
    [ "witness"; "alive" ];
  ignore (run_cli ~where [ "trace"; "export"; trace; "-o"; chrome ]);
  (match Obs.Json.parse (In_channel.with_open_bin chrome In_channel.input_all) with
  | Error msg -> Alcotest.failf "export %s is not JSON%s: %s" chrome where msg
  | Ok json -> (
      match Obs.Json.mem "traceEvents" json with
      | Some (Obs.Json.VArr (_ :: _)) -> ()
      | _ -> Alcotest.failf "export %s has no traceEvents%s" chrome where));
  List.iter Sys.remove [ trace; chrome ]

(* A trace the CLI wrote while trace lines still carried a "tid" field
   ([analyze gossip -w 1 --trace]), committed with that CLI's [trace
   summarize] and [trace export] output: both must come out byte for byte
   the same today. *)
let fixture name =
  Filename.concat (Filename.dirname Sys.executable_name) ("fixtures/" ^ name)

let test_committed_trace_fixture () =
  let read file = In_channel.with_open_bin file In_channel.input_all in
  let trace = fixture "gossip_trace.jsonl" in
  Alcotest.(check string) "trace summarize output"
    (read (fixture "gossip_trace.summary.txt"))
    (run_cli ~where:"" [ "trace"; "summarize"; trace ]);
  let chrome =
    Filename.temp_file ~temp_dir:(Sys.getcwd ()) "achilles-fixture"
      ".chrome.json"
  in
  ignore (run_cli ~where:"" [ "trace"; "export"; trace; "-o"; chrome ]);
  let exported = read chrome in
  Sys.remove chrome;
  Alcotest.(check string) "trace export output"
    (read (fixture "gossip_trace.chrome.json"))
    exported

(* The quantile columns of the pinned summary are ordered and never exceed
   the row's max: p50 <= p95 <= p99 <= max on every phase row. *)
let test_summary_quantiles_ordered () =
  let lines =
    In_channel.with_open_bin (fixture "gossip_trace.summary.txt")
      In_channel.input_lines
  in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let rec phase_rows = function
    | l :: rest when List.mem "p50(ms)" (words l) ->
        let rec take = function
          | l :: rest when l <> "" -> words l :: take rest
          | _ -> []
        in
        take rest
    | _ :: rest -> phase_rows rest
    | [] -> []
  in
  let rows = phase_rows lines in
  Alcotest.(check bool) "the summary has phase rows" true (rows <> []);
  List.iter
    (function
      | [ phase; _; _; _; _; p50; p95; p99; max ] ->
          let p50, p95, p99, max =
            (float_of_string p50, float_of_string p95, float_of_string p99,
             float_of_string max)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: p50 %.2f <= p95 %.2f <= p99 %.2f <= max %.2f"
               phase p50 p95 p99 max)
            true
            (p50 <= p95 && p95 <= p99 && p99 <= max)
      | row -> Alcotest.failf "unexpected summary row: %s" (String.concat " " row))
    rows

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "event round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser rejects malformed lines" `Quick
            test_json_parse_errors;
          Alcotest.test_case "nested values round-trip" `Quick
            test_json_value_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "aggregate sums and reset zeroes" `Quick
            test_aggregate_and_reset;
          Alcotest.test_case "phase taxonomy round-trips" `Quick
            test_phase_names_total;
          Alcotest.test_case "quantiles from log2 histograms" `Quick
            test_estimate_quantile;
        ] );
      ( "trace-writer",
        [
          Alcotest.test_case "every event is one line" `Quick
            test_one_line_per_event;
          Alcotest.test_case "cancelled run leaves a parseable trace" `Quick
            test_interrupted_trace_parseable;
        ] );
      ( "summary",
        [
          Alcotest.test_case "self-time attribution" `Quick
            test_summary_self_time;
          Alcotest.test_case "old cache events load" `Quick
            test_summary_loads_old_cache_events;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "CLI trace smoke" `Slow test_cli_trace_smoke;
          Alcotest.test_case "committed trace summarizes and exports unchanged"
            `Quick test_committed_trace_fixture;
          Alcotest.test_case "summary quantiles stay below the max" `Quick
            test_summary_quantiles_ordered;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "identity and trace_start meta" `Quick
            test_trace_meta_identity;
        ] );
      ( "old-trace-meta",
        [
          Alcotest.test_case "run_id/proc fields still load" `Quick
            test_old_meta_loads;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_trace_invisible;
          Alcotest.test_case "FSP golden digests with tracing on" `Slow
            test_fsp_golden_traced;
        ] );
    ]
