(* The repository benchmark. See README.md in this directory.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   --cli PATH/achilles_cli.exe
     bench.exe child --model fsp|fsp-wide [--trace FILE] [--filter FILE]
     bench.exe calib

   [run] measures one workload and prints, as its last line, one JSON object
   with the keys correct, attempted, failed and metrics. [child] is one cold
   analysis in a fresh process (see Analysis); [calib] one run of the speed
   reference (see Calib). *)

open Perfbench
module Obs = Achilles_obs.Obs

let now = Clock.now

(* --- metric catalogue ----------------------------------------------------------- *)

(* The (name, unit) pairs BENCHMARK.json registers under [section]. *)
let catalogue section =
  let module J = Obs.Json in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let field k v = Option.bind (J.mem k v) J.to_str in
  match J.parse text with
  | Ok doc -> (
      match J.mem section doc with
      | Some (J.VArr entries) ->
          List.map
            (fun e ->
              match (field "name" e, field "unit" e) with
              | Some name, Some unit -> (name, unit)
              | _ -> failwith ("BENCHMARK.json: malformed " ^ section ^ " entry"))
            entries
      | _ -> failwith ("BENCHMARK.json: no " ^ section))
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

type measured = {
  attempted : int;
  failed : int;
  wrong : int; (* failures that are wrong outputs, not missing ones *)
  e2e : (string * float) list;
  layers : (string * float) list;
}

(* --- analyze-* ---------------------------------------------------------------- *)

let child_run ~self ~model ?trace ?filter () =
  let args =
    [ "child"; "--model"; model ]
    @ (match trace with Some f -> [ "--trace"; f ] | None -> [])
    @ match filter with Some f -> [ "--filter"; f ] | None -> []
  in
  let spawned = now () in
  match Procs.run_capture ~timeout:120. self args with
  | Error e -> failwith e
  | Ok out ->
      let r = Analysis.parse_child out in
      (r, Analysis.get r "models_ready" -. spawned)

let judge model (r : Analysis.child_result) =
  match model with
  | "fsp" -> Oracle.check_fsp r.Analysis.witnesses
  | _ -> (
      match Analysis.model model with
      | Some m -> Oracle.check_wide m.Analysis.commands r.Analysis.witnesses
      | None -> invalid_arg model)

let add_tally (a, f) (t : Oracle.tally) =
  List.iter (fun p -> Printf.printf "# oracle: %s\n" p) t.Oracle.problems;
  (a + t.Oracle.attempted, f + t.Oracle.failed)

let column rs k = Array.of_list (List.map (fun r -> Analysis.get r k) rs)

(* The traced repetitions, each right after an untraced one so that the
   machine's drifting speed cancels out of the tracing overhead: per-layer
   figures from the traced repetition of median analysis time, and the
   median overhead of the pairs. *)
let traced_layers ~self ~workdir ~model ?filter ~pairs () =
  let runs =
    List.init pairs (fun k ->
        let file = Filename.concat workdir (Printf.sprintf "trace-%d.jsonl" k) in
        Procs.register_file file;
        let plain, _ = child_run ~self ~model ?filter () in
        let traced, _ = child_run ~self ~model ~trace:file ?filter () in
        Procs.remove_file file;
        (plain, traced))
  in
  let time r = Analysis.get r "analyze_s" in
  let overhead =
    Qstats.median
      (Array.of_list (List.map (fun (p, t) -> (time t -. time p) /. time p) runs))
  in
  let traced = List.sort (fun a b -> Float.compare (time a) (time b)) (List.map snd runs) in
  let mid = List.nth traced (pairs / 2) in
  ( List.concat_map (fun (p, t) -> [ p; t ]) runs,
    ("obs.trace_overhead_frac", overhead) :: mid.Analysis.metrics )

(* One run of the speed reference (Calib) in a process of its own. *)
let calibrate ~self =
  match Procs.run_capture ~timeout:60. self [ "calib" ] with
  | Error e -> failwith e
  | Ok out -> Analysis.get (Analysis.parse_child out) "calib_s"

let analyze_workload ~self ~workdir ~model ~seconds ~trace =
  let start = now () in
  (* cold analyses, each between two runs of the speed reference; [scale]
     turns its times into times at the reference speed *)
  let rec loop before acc =
    if acc <> [] && now () -. start >= seconds then List.rev acc
    else
      let r, setup = child_run ~self ~model () in
      let after = calibrate ~self in
      let scale = Calib.reference /. ((before +. after) /. 2.) in
      loop after ((r, setup, scale) :: acc)
  in
  let reps = loop (calibrate ~self) [] in
  let rs = List.map (fun (r, _, _) -> r) reps in
  let tally = List.fold_left (fun acc r -> add_tally acc (judge model r)) (0, 0) rs in
  let analyze = column rs "analyze_s" in
  let scales = Array.of_list (List.map (fun (_, _, s) -> s) reps) in
  (* The median over the run of a per-analysis time at the reference speed,
     in ms. Unscaled, run medians moved by a quarter between runs as the
     machine's speed drifted; README.md has the measurements. *)
  let scaled f =
    1000. *. Qstats.median (Array.of_list (List.map (fun (r, _, s) -> s *. f r) reps))
  in
  let e2e =
    [
      ("setup_s", Qstats.median (Array.of_list (List.map (fun (_, t, s) -> s *. t) reps)));
      ("first_result_ms", scaled (fun r -> Analysis.get r "witness_first_s"));
      ("op_p50_ms", scaled (fun r -> Analysis.get r "witness_p50_s"));
      ("op_p90_ms", scaled (fun r -> Analysis.get r "witness_p90_s"));
      ( "cpu_per_op_ms",
        scaled (fun r -> Analysis.get r "cpu_s" /. Float.max 1. (Analysis.get r "witnesses")) );
      ("peak_rss_mb", Qstats.median (column rs "rss_mb"));
    ]
  in
  Printf.printf
    "# %d cold analyses in %.1fs; analysis time median %.3fs (min %.3fs), \
     at the reference speed %.3fs; speed scale median %.3f (min %.3f, max %.3f)\n"
    (List.length rs) (now () -. start) (Qstats.median analyze)
    (Array.fold_left Float.min Float.infinity analyze)
    (Qstats.median (Array.map2 ( *. ) analyze scales))
    (Qstats.median scales)
    (Array.fold_left Float.min Float.infinity scales)
    (Array.fold_left Float.max Float.neg_infinity scales);
  let attempted, failed, layers =
    if not trace then (fst tally, snd tally, [])
    else
      let runs, layers = traced_layers ~self ~workdir ~model ~pairs:3 () in
      let a, f = List.fold_left (fun acc r -> add_tally acc (judge model r)) tally runs in
      (a, f, layers)
  in
  { attempted; failed; wrong = failed; e2e; layers }

(* --- serve-* ------------------------------------------------------------------- *)

let setups = 3
let restarts = 6 (* daemon starts after each load segment, for first_result_ms *)

(* What [between] measures around each segment of the serve load. *)
type reference = {
  starts : (float * float) list;
      (* a fresh daemon's time to its first reply, and a fresh echo
         server's right after it *)
  calib : float; (* the speed reference (Calib) *)
}

(* The echo server's median round trip on the reference machine: the
   daemon's latency and CPU figures in a segment are scaled by it over the
   echo's median in the same segment, as the times of an analysis are to
   Calib.reference. *)
let rtt_reference = 20e-6

(* The echo server's start-up on the reference machine: the daemon's is
   scaled by it over the echo's measured beside it. *)
let start_reference = 4e-3

let serve_workload ~self ~cli ~workdir ~seed ~seconds ~trace ~stalled =
  let sockets = ref 0 in
  let socket () =
    incr sockets;
    Filename.concat workdir (Printf.sprintf "d%d.sock" !sockets)
  in
  (* one full set-up, between two runs of the speed reference: its time at
     the reference speed, the analysis, and the saved filter *)
  let setup k before =
    let filter_file = Filename.concat workdir (Printf.sprintf "fsp-%d.achfilter" k) in
    Procs.register_file filter_file;
    let t0 = now () in
    let child, _ = child_run ~self ~model:"fsp" ~filter:filter_file () in
    let witnesses = Serve.witness_messages child.Analysis.witnesses in
    if Array.length witnesses = 0 then failwith "the analysis found no witness";
    let d, _ = Serve.start ~cli ~filter_file ~socket:(socket ()) ~probe:witnesses.(0) in
    let took = now () -. t0 in
    Serve.stop d;
    let after = calibrate ~self in
    ((took *. Calib.reference /. ((before +. after) /. 2.), child, filter_file), after)
  in
  let runs, _ =
    List.fold_left
      (fun (acc, before) k ->
        let r, after = setup k before in
        (r :: acc, after))
      ([], calibrate ~self)
      (List.init setups Fun.id)
  in
  let setup_s = Qstats.median (Array.of_list (List.map (fun (s, _, _) -> s) runs)) in
  let _, child, filter_file = List.hd runs in
  let probe = (Serve.witness_messages child.Analysis.witnesses).(0) in
  let d, _ = Serve.start ~cli ~filter_file ~socket:(socket ()) ~probe in
  let echo, _ = Serve.start_echo ~self ~socket:(socket ()) ~probe in
  let filter =
    match Achilles_filter.Filter.load ~file:filter_file with
    | Ok f -> f
    | Error e -> failwith e
  in
  let traffic =
    Serve.traffic ~seed ~witnesses:(Serve.witness_messages child.Analysis.witnesses)
  in
  (* before and after each segment of the load: fresh daemons on the saved
     filter, each followed by a fresh echo server, so that first_result_ms
     spans the whole run; then the speed reference *)
  let between () =
    let starts =
      List.init restarts (fun _ ->
          let d, first = Serve.start ~cli ~filter_file ~socket:(socket ()) ~probe in
          Serve.stop d;
          let e, bare = Serve.start_echo ~self ~socket:(socket ()) ~probe in
          Serve.stop_echo e;
          (first, bare))
    in
    { starts; calib = calibrate ~self }
  in
  let o =
    Serve.drive d ~echo ~filter ~traffic ~seconds ~stalled ~between ~between_seconds:0.5
  in
  Serve.stop_echo echo;
  let l = o.Serve.load in
  let answered = Array.length l.Loadgen.latencies in
  let p50, p90, p99 =
    match Qstats.quantiles l.Loadgen.latencies [ 0.5; 0.9; 0.99 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let answering =
    List.filter (fun g -> Array.length g.Serve.seg_load.Loadgen.latencies > 0) o.Serve.segments
  in
  (* The daemon's latency and CPU in a segment are scaled by the echo's
     round trip in the same segment, and each daemon start-up by the echo
     start-up beside it. Unscaled, p50 rose by 60% and start-up doubled
     within a run as the machine slowed; README.md has the measurements.
     The stalled run has no echo turns, and reports unscaled latencies. *)
  let rtt g =
    let e = g.Serve.seg_echo.Loadgen.latencies in
    if Array.length e = 0 then rtt_reference else Qstats.median e
  in
  let rtt_scale g = rtt_reference /. rtt g in
  let seg_quantile q g = Qstats.quantile g.Serve.seg_load.Loadgen.latencies q in
  let seg_cpu g =
    g.Serve.seg_cpu_s /. float_of_int (Array.length g.Serve.seg_load.Loadgen.latencies)
  in
  let over_segments f = Qstats.median (Array.of_list (List.map f answering)) in
  let first =
    Qstats.median
      (Array.of_list
         (List.concat_map
            (fun g -> List.map (fun (t, bare) -> start_reference *. t /. bare) g.Serve.after.starts)
            o.Serve.segments))
  in
  List.iter
    (fun g ->
      let us x = 1e6 *. x in
      Printf.printf
        "# segment: p50 %.3f p90 %.3f cpu %.3f us; echo p50 %.3f us; calib %.4f s; \
         first %.3f ms; echo first %.3f ms\n"
        (us (seg_quantile 0.5 g)) (us (seg_quantile 0.9 g)) (us (seg_cpu g))
        (us (rtt g)) g.Serve.after.calib
        (1000. *. Qstats.median (Array.of_list (List.map fst g.Serve.after.starts)))
        (1000. *. Qstats.median (Array.of_list (List.map snd g.Serve.after.starts))))
    o.Serve.segments;
  if stalled then
    Printf.printf
      "# %d scheduled at %.0f/s: %d answered, %d unsent, %d timed out, %d wrong; \
       generator at most %.3f ms late\n\
       # stalled peer: %d frames sent, daemon %s\n"
      l.Loadgen.scheduled Serve.rate answered l.Loadgen.unsent l.Loadgen.timeouts
      l.Loadgen.wrong (1000. *. l.Loadgen.late_max) o.Serve.stall_frames
      (if o.Serve.alive then "alive" else "dead")
  else
    Printf.printf
      "# closed loop: %d sent in %d segments, %d answered, %d unsent, %d timed out, \
       %d wrong; unscaled p50 %.5f ms, p90 %.5f ms\n"
      l.Loadgen.scheduled (List.length o.Serve.segments) answered l.Loadgen.unsent
      l.Loadgen.timeouts l.Loadgen.wrong (1000. *. p50) (1000. *. p90);
  let ms x = 1000. *. x in
  let e2e =
    [
      ("setup_s", setup_s);
      ("first_result_ms", ms first);
      ("op_p50_ms", ms (over_segments (fun g -> rtt_scale g *. seg_quantile 0.5 g)));
      ("op_p90_ms", ms (over_segments (fun g -> rtt_scale g *. seg_quantile 0.9 g)));
      ("cpu_per_op_ms", ms (over_segments (fun g -> rtt_scale g *. seg_cpu g)));
      ("peak_rss_mb", o.Serve.daemon_rss_mb);
    ]
  in
  let layers =
    if not trace then []
    else begin
      (* the analysis and compile layers, from the set-up's analysis run
         once more with and without the trace *)
      let traced_filter = Filename.concat workdir "traced.achfilter" in
      Procs.register_file traced_filter;
      let _, analysis_layers =
        traced_layers ~self ~workdir ~model:"fsp" ~filter:traced_filter ~pairs:1 ()
      in
      let stat k =
        match o.Serve.daemon_stats with
        | Some s -> Option.value ~default:0. (List.assoc_opt k s)
        | None -> 0.
      in
      analysis_layers
      @ [
          ("filter.eval_ns", Serve.eval_ns filter traffic);
          ("daemon.eval_p50_us", stat "latency_p50_us");
          ("daemon.eval_p99_us", stat "latency_p99_us");
          ("daemon.messages", stat "messages");
          ("daemon.dropped_frames", stat "dropped_frames");
          ("daemon.alive", if o.Serve.alive then 1. else 0.);
          ("daemon.rss_mb", o.Serve.daemon_rss_mb);
          ("loadgen.late_max_ms", ms l.Loadgen.late_max);
          ("loadgen.unsent", float_of_int l.Loadgen.unsent);
          ("loadgen.timeouts", float_of_int l.Loadgen.timeouts);
          ("loadgen.p99_us", 1e6 *. p99);
        ]
    end
  in
  {
    attempted = l.Loadgen.scheduled;
    failed = Loadgen.failed l;
    wrong = l.Loadgen.wrong;
    e2e;
    layers;
  }

(* --- output ---------------------------------------------------------------------- *)

(* Layers a workload does not exercise report 0: no work was done there. *)
let json_result m ~trace =
  let catalogue, values =
    if trace then (catalogue "per_layer", m.layers) else (catalogue "end_to_end", m.e2e)
  in
  let entry (name, unit) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None when trace -> 0.
      | None -> failwith ("no value for " ^ name)
    in
    if not (Float.is_finite v) then failwith (Printf.sprintf "%s is %f" name v);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (m.wrong = 0) m.attempted m.failed
    (String.concat ", " (List.map entry catalogue))

(* --- command line ------------------------------------------------------------------ *)

let workloads = [ "analyze-fsp"; "analyze-fsp-wide"; "serve-fsp"; "serve-fsp-stalled" ]

let achilles_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv >= 9 && String.sub kv 0 9 = "ACHILLES_")

let rec rmdir_quiet dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then rmdir_quiet p else Sys.remove p)
        entries;
      Sys.rmdir dir
  | exception Sys_error _ -> ()

let run ~workload ~seed ~seconds ~trace ~cli =
  (match achilles_env () with
  | [] -> ()
  | vars ->
      Printf.eprintf "refusing to measure with %s set\n" (String.concat ", " vars);
      exit 2);
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %s (one of %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  let self = Sys.executable_name in
  let workdir = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ()) in
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir workdir 0o755;
  at_exit (fun () ->
      Procs.cleanup ();
      rmdir_quiet workdir;
      try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ());
  (* read before the serve workloads pin this process to one CPU *)
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s\n%!"
    workload seed seconds (if trace then 1 else 0) nproc Sys.ocaml_version;
  let m =
    match workload with
    | "analyze-fsp" -> analyze_workload ~self ~workdir ~model:"fsp" ~seconds ~trace
    | "analyze-fsp-wide" -> analyze_workload ~self ~workdir ~model:"fsp-wide" ~seconds ~trace
    | "serve-fsp" -> serve_workload ~self ~cli ~workdir ~seed ~seconds ~trace ~stalled:false
    | _ -> serve_workload ~self ~cli ~workdir ~seed ~seconds ~trace ~stalled:true
  in
  Printf.printf "# workload=%s seed=%d nproc=%d ocaml=%s failed_frac=%.6f\n"
    workload seed nproc Sys.ocaml_version
    (float_of_int m.failed /. float_of_int (max 1 m.attempted));
  print_endline (json_result m ~trace)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let die _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle die);
  Sys.set_signal Sys.sigint (Sys.Signal_handle die);
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let usage () =
    prerr_endline
      "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1 --cli PATH\n\
      \       bench.exe child --model fsp|fsp-wide [--trace FILE] [--filter FILE]";
    exit 2
  in
  match args with
  | [ "calib" ] -> Printf.printf "metric calib_s %.17g\n" (Calib.seconds ())
  | [ "echo"; socket ] -> Serve.echo_serve socket
  | "child" :: rest -> (
      match opts [] rest with
      | Some o -> (
          match List.assoc_opt "model" o with
          | Some model_name ->
              Analysis.child ~model_name ~trace:(List.assoc_opt "trace" o)
                ~filter:(List.assoc_opt "filter" o)
          | None -> usage ())
      | None -> usage ())
  | "run" :: rest -> (
      let o = match opts [] rest with Some o -> o | None -> usage () in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      match
        ( int_of_string_opt (get "seed"),
          float_of_string_opt (get "seconds"),
          get "trace" )
      with
      | Some seed, Some seconds, ("0" | "1" as t) when seconds > 0. -> (
          try run ~workload:(get "workload") ~seed ~seconds ~trace:(t = "1") ~cli:(get "cli")
          with Failure e ->
            Printf.eprintf "perfbench: %s\n" e;
            exit 1)
      | _ -> usage ())
  | _ -> usage ()
