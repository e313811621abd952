(* The observability layer: JSON round-trips, domain-safe metric
   aggregation, the lock-protected JSONL writer under concurrent emission
   and mid-run interruption, self-time attribution in trace summaries, the
   Chrome exporter, and the guarantee that tracing never perturbs search
   results (digest equality on random cases, golden FSP digests). *)

open Achilles_smt
open Achilles_symvm
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
      ev_tid = 3;
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
      check_num fields "tid" 3.;
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

(* --- DLS metrics and cross-domain aggregation --------------------------------- *)

let test_aggregate_across_domains () =
  Obs.reset_all ();
  let work () =
    Obs.span Obs.Negate (fun () -> ());
    Obs.count ~n:2 "obs.test_counter"
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn work) in
  Array.iter Domain.join domains;
  work ();
  (* the current domain as well *)
  let snap = Obs.aggregate () in
  let negate = List.assoc Obs.Negate snap.Obs.phases in
  Alcotest.(check int) "spans summed over 5 domains" 5 negate.Obs.spans;
  Alcotest.(check bool) "elapsed non-negative" true (negate.Obs.seconds >= 0.);
  Alcotest.(check int) "histogram mass equals span count" 5
    (Array.fold_left ( + ) 0 negate.Obs.histogram);
  Alcotest.(check (option int)) "counter summed over 5 domains" (Some 10)
    (List.assoc_opt "obs.test_counter" snap.Obs.counters);
  Obs.reset_all ();
  let snap = Obs.aggregate () in
  let negate = List.assoc Obs.Negate snap.Obs.phases in
  Alcotest.(check int) "reset zeroes every registered slice" 0 negate.Obs.spans;
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

(* --- the JSONL writer under concurrency --------------------------------------- *)

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

let test_concurrent_writer () =
  let file = Filename.temp_file "achilles-obs-conc" ".jsonl" in
  Obs.Trace.enable file;
  let per_domain = 50 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Obs.emit
                ~args:[ ("domain", Obs.I d); ("i", Obs.I i); ("s", Obs.S "x\"y\nz") ]
                ~kind:"test" ~name:"tick" ();
              Obs.span Obs.Checkpoint_io (fun () -> ())
            done))
  in
  Array.iter Domain.join domains;
  Obs.Trace.disable ();
  let lines = read_lines file in
  (* the trace_start meta stamp, then one tick + span_begin/span_end per
     iteration, no torn or merged lines *)
  Alcotest.(check int) "every event is exactly one line"
    ((4 * per_domain * 3) + 1)
    (List.length lines);
  (match Obs.Json.parse_line (List.hd lines) with
  | Ok fields ->
      check_str fields "kind" "meta";
      check_str fields "name" "trace_start"
  | Error msg -> Alcotest.fail ("meta line unparseable: " ^ msg));
  check_all_lines_parse file lines;
  let ticks =
    List.filter
      (fun l ->
        match Obs.Json.parse_line l with
        | Ok fields -> List.assoc_opt "kind" fields = Some (Obs.Json.Str "test")
        | Error _ -> false)
      lines
  in
  Alcotest.(check int) "all ticks accounted" (4 * per_domain) (List.length ticks);
  Sys.remove file

(* --- random client/server pairs (same harness as the robustness suite) --------- *)

let message_size = 3
let layout = Layout.make ~name:"obs" [ ("tag", 1); ("a", 1); ("b", 1) ]

type tree =
  | Leaf of bool
  | Node of { field : int; op : int; konst : int; t : tree; f : tree }

type field_spec = Fconst of int | Fbounded of int

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_range 1 3) @@ fix (fun self depth ->
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
  prog "obs-server"
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
               let name = Printf.sprintf "oin%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog
    (Printf.sprintf "obs-client%d" idx)
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

let evt ?(args = []) t tid kind name =
  [
    ("t", Obs.Json.Num t);
    ("tid", Obs.Json.Num (float_of_int tid));
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
      evt 0. 0 "span_begin" "server_se";
      evt 2. 0 "span_begin" "solver_query";
      evt 1. 1 "span_begin" "negate" (* left open: the run was killed *);
      evt 5. 0 "span_end" "solver_query" ~args:[ ("dur", Obs.Json.Num 3.) ];
      evt 6. 0 "counter" "foo" ~args:[ ("n", Obs.Json.Num 4.) ];
      evt 7. 0 "solver" "verdict" ~args:[ ("result", Obs.Json.Str "sat") ];
      evt 7.5 0 "cache" "hit";
      evt 7.6 0 "cache" "miss";
      evt 10. 0 "span_end" "server_se" (* no dur: derived from t - start *);
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
  (* the unclosed span on tid 1 is closed at the last timestamp *)
  let negate = row_of s "negate" in
  Alcotest.(check (float 1e-9)) "unclosed span closed at max t" 9.
    negate.Obs.Summary.total_seconds;
  (* tid 0 emitted first, so it is the main domain: its root span covers
     the whole window, and tid 1's orphan does not inflate coverage *)
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
        ev_tid = 0;
        ev_kind = "span_begin";
        ev_name = "solver_query";
        ev_args = [];
      };
      {
        Obs.ev_t = 0.004;
        ev_tid = 0;
        ev_kind = "span_end";
        ev_name = "solver_query";
        ev_args = [ ("dur", Obs.F 0.003) ];
      };
      {
        Obs.ev_t = 0.005;
        ev_tid = 1;
        ev_kind = "drop";
        ev_name = "subsumed";
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
  contains "\"name\":\"drop:subsumed\"";
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
    { Obs.ev_t = t; ev_tid = 0; ev_kind = "span_begin"; ev_name = name; ev_args = [] };
    {
      Obs.ev_t = t +. 0.5;
      ev_tid = 0;
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
              Search.default_config with
              Search.mask = Some Fsp_model.analysis_mask;
              Search.witnesses_per_path = 16;
              Search.distinct_by = Some Fsp_model.block_class;
              Search.split_bits = Some split_bits;
            }
          in
          Achilles.analyze ~search_config:config ~layout:Fsp_model.layout
            ~clients:(Fsp_model.clients ()) ~server:Fsp_model.server ())
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
          Alcotest.test_case "aggregate across domains" `Quick
            test_aggregate_across_domains;
          Alcotest.test_case "phase taxonomy round-trips" `Quick
            test_phase_names_total;
          Alcotest.test_case "quantiles from log2 histograms" `Quick
            test_estimate_quantile;
        ] );
      ( "trace-writer",
        [
          Alcotest.test_case "concurrent emission stays line-atomic" `Quick
            test_concurrent_writer;
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
