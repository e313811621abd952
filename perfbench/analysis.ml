(* One cold analysis, run in a fresh child process per repetition so nothing
   (solver cache, term tables, bitblast memo, heap) carries over from an
   earlier one.

   The child composes the pipeline from the public calls exactly as
   [Achilles.analyze] does — client extraction, the server's static slice,
   differentFrom, then the search — so it can time each call and the first
   witness. It prints [metric NAME VALUE] and [witness CONFIRMED HEX] lines
   for the parent, which judges the witnesses (Oracle) and aggregates. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Obs = Achilles_obs.Obs
module Slice = Achilles_slice.Slice
module Filter = Achilles_filter.Filter

type model = {
  commands : Fsp_model.command list;
  clients : Ast.program list;
  server : Ast.program;
  config : Search.config;
}

(* Every search/solver knob a workload depends on, set explicitly rather
   than left to defaults or the environment: one domain, slicing on,
   incremental solving on, no budget, no checkpoint, no fault injection. *)
let pin_globals () =
  Solver.set_incremental true;
  Slice.set_enabled true;
  Solver.set_fault_injection ~rate:0. ();
  Solver.set_budget None;
  Term.set_sharing true

let search_config ~witnesses =
  {
    Search.default_config with
    Search.drop_alive = true;
    use_different_from = true;
    prune_no_trojan = true;
    check_overlap = true;
    incremental_bindings = true;
    explain_drops = false;
    use_slice = true;
    mask = Some Fsp_model.analysis_mask;
    witnesses_per_path = witnesses;
    distinct_by = Some Fsp_model.block_class;
    interp = Interp.default_config;
    domains = 1;
    split_bits = None;
    solver_budget = None;
    checkpoint_dir = None;
    resume = false;
    cancel = (fun () -> false);
    chaos = None;
  }

(* "fsp": the paper-scale model, 8 utilities, 16 class-blocked witnesses per
   path (the E1 configuration). "fsp-wide": 24 utilities, 1 witness per
   path. *)
let model = function
  | "fsp" ->
      let commands = Fsp_model.commands in
      Some
        {
          commands;
          clients = Fsp_model.clients ~command_set:commands ();
          server = Fsp_model.server_for commands;
          config = search_config ~witnesses:16;
        }
  | "fsp-wide" ->
      let commands = Fsp_model.extended_commands 24 in
      Some
        {
          commands;
          clients = Fsp_model.clients ~command_set:commands ();
          server = Fsp_model.server_for commands;
          config = search_config ~witnesses:1;
        }
  | _ -> None

(* A benchmark-side span around one public call. Emitted only while a trace
   is live; [Obs.Summary] charges the call's time not covered by the
   library's own phase spans to this name. *)
let layer name f =
  let name = "bench." ^ name in
  Obs.emit ~kind:"span_begin" ~name ();
  Fun.protect ~finally:(fun () -> Obs.emit ~kind:"span_end" ~name ()) f

type run = {
  client : Predicate.client_predicate;
  df_stats : Different_from.stats;
  report : Search.report;
  client_s : float;
  slice_s : float;
  df_s : float;
  search_s : float;
  analyze_s : float;
  witness_times : float array;
      (* seconds from the start of the analysis to each witness, in
         discovery order: the Fig. 10 curve *)
}

(* The time by which a share [q] of the witnesses had been reported
   (nearest rank); [nan] without witnesses. *)
let discovery r q =
  let n = Array.length r.witness_times in
  if n = 0 then Float.nan
  else r.witness_times.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let analyze m =
  let now = Clock.now in
  let timed name f =
    let t = now () in
    let r = layer name f in
    (r, now () -. t)
  in
  let t0 = now () in
  let client_interp =
    { Interp.default_config with Interp.oracle = Some (Slice.make_oracle ()) }
  in
  let (client, _), client_s =
    timed "client_extract" (fun () ->
        Client_extract.extract ~config:client_interp ~layout:Fsp_model.layout
          m.clients)
  in
  let server_slice, slice_s =
    timed "slice_analyze" (fun () ->
        Slice.analyze ~layout:Fsp_model.layout m.server)
  in
  let (different_from, df_stats), df_s =
    timed "different_from" (fun () ->
        Different_from.compute ?mask:m.config.Search.mask ~use_slice:true
          ~server_slice client)
  in
  let search_start = now () in
  let report, search_s =
    timed "search" (fun () ->
        Search.run ~config:m.config ~different_from ~client ~server:m.server ())
  in
  let analyze_s = now () -. t0 in
  let witness_times =
    Array.of_list
      (List.map
         (fun (t : Search.trojan) -> search_start -. t0 +. t.Search.found_at)
         report.Search.trojans)
  in
  {
    client;
    df_stats;
    report;
    client_s;
    slice_s;
    df_s;
    search_s;
    analyze_s;
    witness_times;
  }

let hex_of_bytes bytes =
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%02x") bytes))

let bytes_of_hex s =
  Array.init (String.length s / 2) (fun i ->
      int_of_string ("0x" ^ String.sub s (2 * i) 2))

let witness_bytes (t : Search.trojan) = Array.map Bv.to_int t.Search.witness

(* Layer counters of the analysis just run; everything was zero when the
   child started. *)
let layer_metrics r =
  let s = Solver.aggregate_stats () in
  let memo_hits, memo_misses = Bitblast.aggregate_memo_stats () in
  let intern_hits, created = Term.aggregate_intern_stats () in
  let snap = Obs.aggregate () in
  let counter name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Obs.counters))
  in
  let phase_seconds p = (List.assoc p snap.Obs.phases).Obs.seconds in
  let frac a b = if a +. b > 0. then a /. (a +. b) else 0. in
  let st = r.report.Search.search_stats in
  let fi = float_of_int in
  let static = counter "slice.branch_skipped" in
  let memo = counter "slice.memo_hits" in
  let cone = counter "slice.cone_queries" in
  let transitive = fi st.Search.transitive_drops in
  [
    ("solver.queries", fi s.Solver.queries);
    ("solver.sat_calls", fi s.Solver.sat_calls);
    ("solver.incremental_checks", fi s.Solver.incremental_checks);
    ("solver.cache_hit_frac", frac (fi s.Solver.cache_hits) (fi s.Solver.cache_misses));
    ("solver.unknown", fi s.Solver.unknown_results);
    ("solver.solve_s", s.Solver.solve_time);
    ("bitblast.memo_misses", fi memo_misses);
    ("bitblast.memo_hit_frac", frac (fi memo_hits) (fi memo_misses));
    ("term.nodes_created", fi created);
    ("term.intern_hit_frac", frac (fi intern_hits) (fi created));
    ("interp.feasibility_queries", counter "interp.feasibility_queries");
    ("search.forks", fi st.Search.forks);
    ("client_extract.s", r.client_s);
    ("client_extract.paths", fi (Predicate.client_path_count r.client));
    ("different_from.s", r.df_s);
    ("different_from.pairs_checked", fi r.df_stats.Different_from.pairs_checked);
    ("different_from.pairs_static", fi r.df_stats.Different_from.pairs_static);
    ("negate.s", phase_seconds Obs.Negate);
    ("negate.paths_negated", counter "negate.paths_negated");
    ("search.s", r.search_s);
    ("search.alive_checks", fi st.Search.alive_checks);
    ("search.transitive_drops", transitive);
    ("search.drop_frac", frac transitive (counter "search.client_path_drops"));
    ("search.pruned_states", fi st.Search.pruned_states);
    ("search.trojans", fi (List.length r.report.Search.trojans));
    ("slice.analyze_s", r.slice_s);
    ("slice.static_branches", static);
    ("slice.cone_queries", cone);
    ("slice.memo_hits", memo);
    ("slice.static_frac", if static +. memo +. cone > 0. then static /. (static +. memo +. cone) else 0.);
  ]

(* Self times and coverage of a finished trace. *)
let trace_metrics file =
  match Obs.Summary.load file with
  | Error e -> failwith ("trace summary: " ^ e)
  | Ok sum ->
      let self name =
        List.fold_left
          (fun acc (row : Obs.Summary.row) ->
            if row.Obs.Summary.row_phase = name then acc +. row.Obs.Summary.self_seconds
            else acc)
          0. sum.Obs.Summary.rows
      in
      [
        ("bitblast.self_s", self "bitblast");
        ("solver.query_self_s", self "solver_query");
        ("obs.attributed_frac", sum.Obs.Summary.attributed);
      ]

(* The child process: [models_ready] (on the monotonic clock, which the
   parent shares, for its set-up time), the analysis figures, the witnesses,
   and with [filter] the compiled filter's figures. *)
let child ~model_name ~trace ~filter =
  let m =
    match model model_name with
    | Some m -> m
    | None -> failwith ("unknown model " ^ model_name)
  in
  pin_globals ();
  let metric name v = Printf.printf "metric %s %.17g\n" name v in
  metric "models_ready" (Clock.now ());
  Option.iter Obs.Trace.enable trace;
  let cpu0 = Unix.times () in
  let r = analyze m in
  let cpu1 = Unix.times () in
  Obs.Trace.disable ();
  metric "analyze_s" r.analyze_s;
  metric "witness_first_s" (discovery r 0.);
  metric "witness_p50_s" (discovery r 0.5);
  metric "witness_p90_s" (discovery r 0.9);
  metric "witnesses" (float_of_int (Array.length r.witness_times));
  metric "cpu_s"
    (cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime
   -. cpu0.Unix.tms_stime);
  List.iter (fun (k, v) -> metric k v) (layer_metrics r);
  Option.iter
    (fun file -> List.iter (fun (k, v) -> metric k v) (trace_metrics file))
    trace;
  Option.iter
    (fun file ->
      let t = Clock.now () in
      let f =
        Filter.compile ~target:"fsp" ~layout:Fsp_model.layout ~report:r.report ()
      in
      metric "filter.compile_s" (Clock.now () -. t);
      metric "filter.ops" (float_of_int (Filter.op_count f));
      metric "filter.states" (float_of_int (Filter.state_count f));
      metric "filter.unknown_leaves" (float_of_int (Filter.unknown_leaves f));
      match Filter.save f ~file with
      | Ok () -> ()
      | Error e -> failwith ("saving the filter: " ^ e))
    filter;
  metric "rss_mb" (Option.value ~default:0. (Procs.peak_rss_mb ()));
  List.iter
    (fun (t : Search.trojan) ->
      Printf.printf "witness %d %s\n"
        (if t.Search.confirmed then 1 else 0)
        (hex_of_bytes (witness_bytes t)))
    r.report.Search.trojans

(* --- the parent's view of one child ---------------------------------------------- *)

type child_result = {
  metrics : (string * float) list;
  witnesses : Oracle.witness list;
}

let parse_child output =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ "metric"; k; v ] ->
          { acc with metrics = (k, float_of_string v) :: acc.metrics }
      | [ "witness"; c; hex ] ->
          {
            acc with
            witnesses =
              { Oracle.confirmed = c = "1"; bytes = bytes_of_hex hex }
              :: acc.witnesses;
          }
      | _ -> acc)
    { metrics = []; witnesses = [] }
    (String.split_on_char '\n' output)
  |> fun r -> { r with witnesses = List.rev r.witnesses }

let get r k =
  match List.assoc_opt k r.metrics with
  | Some v -> v
  | None -> failwith ("child reported no " ^ k)
