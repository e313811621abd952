(* Atomically-updated run status for a distributed search.

   The coordinator aggregates worker telemetry snapshots (piggybacked on
   heartbeats) and mirrors the run's live state to [workdir/status.json]
   via the same temp-file + rename discipline as checkpoints, so `achilles
   status` can render a consistent picture of a live run — or the last
   known picture of a crashed one — without talking to any process. *)

module Obs = Achilles_obs.Obs

let version = 1
let status_file workdir = Filename.concat workdir "status.json"

type worker = {
  w_wid : int;
  w_pid : int; (* -1 when the worker never said hello *)
  w_epoch : int; (* respawns of this slot so far *)
  w_last_seen : float; (* epoch seconds of the last message from it *)
  w_shard : int; (* currently leased shard, -1 when idle *)
  w_phase : string; (* dominant phase since its previous snapshot *)
  w_queries : int; (* cumulative solver queries it reported *)
}

type t = {
  s_run_id : string;
  s_state : string; (* "running" | "done" *)
  s_updated : float; (* epoch seconds of this write *)
  s_started : float;
  s_shards_total : int;
  s_done : int;
  s_leased : int;
  s_pending : int;
  s_uncovered : int;
  s_reassignments : int;
  s_queries : int;
  s_workers : worker list;
  s_counters : (string * int) list; (* merged worker counters, sorted *)
}

let queries_per_sec t =
  let dt = t.s_updated -. t.s_started in
  if dt > 0. then float_of_int t.s_queries /. dt else 0.

let to_json t =
  let open Obs.Json in
  let num f = VNum f in
  let int i = VNum (float_of_int i) in
  VObj
    [
      ("version", int version);
      ("run_id", VStr t.s_run_id);
      ("state", VStr t.s_state);
      ("updated", num t.s_updated);
      ("started", num t.s_started);
      ( "shards",
        VObj
          [
            ("total", int t.s_shards_total);
            ("done", int t.s_done);
            ("leased", int t.s_leased);
            ("pending", int t.s_pending);
            ("uncovered", int t.s_uncovered);
          ] );
      ("reassignments", int t.s_reassignments);
      ( "solver",
        VObj
          [
            ("queries", int t.s_queries);
            ("queries_per_sec", num (queries_per_sec t));
          ] );
      ( "workers",
        VArr
          (List.map
             (fun w ->
               VObj
                 [
                   ("wid", int w.w_wid);
                   ("pid", int w.w_pid);
                   ("epoch", int w.w_epoch);
                   ("last_seen", num w.w_last_seen);
                   ("shard", int w.w_shard);
                   ("phase", VStr w.w_phase);
                   ("queries", int w.w_queries);
                 ])
             t.s_workers) );
      ("counters", VObj (List.map (fun (k, v) -> (k, int v)) t.s_counters));
    ]

let of_json v =
  let open Obs.Json in
  let str k obj = Option.bind (mem k obj) to_str in
  let flt k obj = Option.bind (mem k obj) to_float in
  let int k obj = Option.map int_of_float (flt k obj) in
  let d0 = Option.value ~default:0 in
  let df = Option.value ~default:0. in
  match v with
  | VObj _ ->
      let shards = Option.value ~default:(VObj []) (mem "shards" v) in
      let solver = Option.value ~default:(VObj []) (mem "solver" v) in
      let workers =
        match mem "workers" v with
        | Some (VArr ws) ->
            List.filter_map
              (fun w ->
                match w with
                | VObj _ ->
                    Some
                      {
                        w_wid = d0 (int "wid" w);
                        w_pid = Option.value ~default:(-1) (int "pid" w);
                        w_epoch = d0 (int "epoch" w);
                        w_last_seen = df (flt "last_seen" w);
                        w_shard = Option.value ~default:(-1) (int "shard" w);
                        w_phase = Option.value ~default:"" (str "phase" w);
                        w_queries = d0 (int "queries" w);
                      }
                | _ -> None)
              ws
        | _ -> []
      in
      let counters =
        match mem "counters" v with
        | Some (VObj fields) ->
            List.filter_map
              (fun (k, cv) ->
                Option.map (fun f -> (k, int_of_float f)) (to_float cv))
              fields
        | _ -> []
      in
      Ok
        {
          s_run_id = Option.value ~default:"" (str "run_id" v);
          s_state = Option.value ~default:"unknown" (str "state" v);
          s_updated = df (flt "updated" v);
          s_started = df (flt "started" v);
          s_shards_total = d0 (int "total" shards);
          s_done = d0 (int "done" shards);
          s_leased = d0 (int "leased" shards);
          s_pending = d0 (int "pending" shards);
          s_uncovered = d0 (int "uncovered" shards);
          s_reassignments = d0 (int "reassignments" v);
          s_queries = d0 (int "queries" solver);
          s_workers = workers;
          s_counters = counters;
        }
  | _ -> Error "status.json: expected a JSON object"

let save ~workdir t =
  try
    Lease.atomic_write ~path:(status_file workdir)
      (Obs.Json.to_string (to_json t) ^ "\n");
    true
  with Sys_error _ | Unix.Unix_error _ -> false

let load ~workdir =
  match Lease.read_file (status_file workdir) with
  | None -> Error (Printf.sprintf "no status.json under %s" workdir)
  | Some content -> (
      match Obs.Json.parse (String.trim content) with
      | Error msg -> Error (Printf.sprintf "status.json: %s" msg)
      | Ok v -> of_json v)

let pp ?now ppf t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  Format.fprintf ppf "run %s: %s@."
    (if t.s_run_id = "" then "?" else t.s_run_id)
    t.s_state;
  Format.fprintf ppf "  updated %.1fs ago, running %.1fs@." (now -. t.s_updated)
    (t.s_updated -. t.s_started);
  Format.fprintf ppf
    "  shards: %d/%d done, %d leased, %d pending, %d uncovered, %d \
     reassignments@."
    t.s_done t.s_shards_total t.s_leased t.s_pending t.s_uncovered
    t.s_reassignments;
  Format.fprintf ppf "  solver: %d queries (%.1f/s)@." t.s_queries
    (queries_per_sec t);
  if t.s_workers = [] then Format.fprintf ppf "  workers: none reported yet@."
  else begin
    Format.fprintf ppf "  workers:@.";
    List.iter
      (fun w ->
        let age = now -. w.w_last_seen in
        Format.fprintf ppf
          "    w%03d pid %d epoch %d: %s, last seen %.1fs ago, %s, %d queries@."
          w.w_wid w.w_pid w.w_epoch
          (if w.w_shard >= 0 then Printf.sprintf "shard %d" w.w_shard
           else "idle")
          age
          (if w.w_phase = "" then "no phase data"
           else Printf.sprintf "phase %s" w.w_phase)
          w.w_queries)
      (List.sort (fun a b -> compare a.w_wid b.w_wid) t.s_workers)
  end
