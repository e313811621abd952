open Achilles_smt
open Achilles_symvm

let pp_witness layout fmt witness =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (f : Layout.field) ->
      if f.Layout.size > 8 then begin
        Format.fprintf fmt "  %-14s =" f.Layout.field_name;
        Array.iter
          (fun b -> Format.fprintf fmt " %02Lx" (Bv.value b))
          (Layout.field_bytes layout witness f.Layout.field_name);
        Format.fprintf fmt "@,"
      end
      else
        let value = Layout.field_value layout witness f.Layout.field_name in
        let printable =
          if f.Layout.size = 1 then
            let code = Bv.to_int value in
            if code >= 32 && code < 127 then
              Printf.sprintf " %C" (Char.chr code)
            else ""
          else ""
        in
        Format.fprintf fmt "  %-14s = %a%s@," f.Layout.field_name Bv.pp value
          printable)
    (Layout.fields layout);
  Format.fprintf fmt "@]"

let pp_trojan layout fmt (t : Search.trojan) =
  Format.fprintf fmt
    "@[<v>Trojan message (server path %d, accept label %S, found at %.2fs)%s:@,%a@]"
    t.Search.server_state_id t.Search.accept_label t.Search.found_at
    (if t.Search.confirmed then ""
     else " [UNCONFIRMED: witness query exhausted its solver budget]")
    (pp_witness layout) t.Search.witness

let pp_coverage fmt (c : Search.coverage) =
  Format.fprintf fmt "@[<v>Coverage: %s@,"
    (if Search.coverage_complete c then "complete" else "PARTIAL");
  Format.fprintf fmt "  shards          %d/%d completed" c.Search.completed_shards
    c.Search.total_shards;
  if c.Search.resumed_shards > 0 then
    Format.fprintf fmt " (%d resumed from checkpoint)" c.Search.resumed_shards;
  Format.fprintf fmt "@,";
  (match c.Search.failed_shards with
  | [] -> ()
  | failed ->
      Format.fprintf fmt "  uncovered shards %s@,"
        (String.concat ", " (List.map string_of_int failed)));
  if c.Search.interrupted then
    Format.fprintf fmt "  interrupted     yes (%d states abandoned)@,"
      c.Search.abandoned_states;
  if
    c.Search.unknown_alive > 0 || c.Search.unknown_prune > 0
    || c.Search.unknown_witness > 0
  then
    Format.fprintf fmt
      "  solver Unknowns %d alive (kept alive), %d prune (kept state), %d \
       witness (unconfirmed)@,"
      c.Search.unknown_alive c.Search.unknown_prune c.Search.unknown_witness;
  if c.Search.budget_exhaustions > 0 then
    Format.fprintf fmt "  budget blown    %d escalation ladders@,"
      c.Search.budget_exhaustions;
  if c.Search.injected_faults > 0 then
    Format.fprintf fmt "  injected faults %d@," c.Search.injected_faults;
  Format.fprintf fmt "@]"

(* Counts only: span durations and histograms are wall-clock and belong in
   the trace file, never in report text that digests could be derived from.
   Phases with no spans and empty counter sets are omitted so untraced
   sequential runs don't render a wall of zeros. *)
let pp_metrics fmt (snap : Achilles_obs.Obs.snapshot) =
  let module Obs = Achilles_obs.Obs in
  let phases = List.filter (fun (_, m) -> m.Obs.spans > 0) snap.Obs.phases in
  let counters = List.filter (fun (_, n) -> n > 0) snap.Obs.counters in
  if phases <> [] || counters <> [] then begin
    Format.fprintf fmt "@[<v>Metrics (counts; timings go to --trace):@,";
    List.iter
      (fun (p, m) ->
        Format.fprintf fmt "  %-28s %d spans@," (Obs.phase_name p) m.Obs.spans)
      phases;
    List.iter
      (fun (name, n) -> Format.fprintf fmt "  %-28s %d@," name n)
      counters;
    Format.fprintf fmt "@]"
  end

let discovery_curve ~total trojans =
  let total = max total 1 in
  List.mapi
    (fun i (t : Search.trojan) ->
      (t.Search.found_at, 100. *. float_of_int (i + 1) /. float_of_int total))
    trojans

let alive_scatter (stats : Search.stats) =
  List.map
    (fun (s : Search.alive_sample) -> (s.Search.path_length, s.Search.alive))
    stats.Search.alive_samples

let render_ascii_curve ?(width = 60) ?(height = 12) points =
  match points with
  | [] -> "(no data)\n"
  | _ ->
      let xs = List.map fst points and ys = List.map snd points in
      let xmax = List.fold_left max 0.0001 xs in
      let ymax = List.fold_left max 0.0001 ys in
      let grid = Array.make_matrix height width ' ' in
      List.iter
        (fun (x, y) ->
          let col =
            min (width - 1) (int_of_float (x /. xmax *. float_of_int (width - 1)))
          in
          let row =
            min (height - 1)
              (int_of_float (y /. ymax *. float_of_int (height - 1)))
          in
          grid.(height - 1 - row).(col) <- '*')
        points;
      let buf = Buffer.create ((width + 8) * height) in
      Array.iteri
        (fun i row ->
          let label =
            if i = 0 then Printf.sprintf "%6.1f |" ymax
            else if i = height - 1 then Printf.sprintf "%6.1f |" 0.
            else "       |"
          in
          Buffer.add_string buf label;
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf "       +";
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "        0%*s%.2f\n" (width - 6) "" xmax);
      Buffer.contents buf

(* --- deterministic digests ------------------------------------------------- *)

let hex_of_witness witness =
  String.concat ""
    (Array.to_list
       (Array.map (fun b -> Printf.sprintf "%02Lx" (Bv.value b)) witness))

let add_trojan buf (t : Search.trojan) =
  Buffer.add_string buf
    (Printf.sprintf "T %d %s %s |" t.Search.server_state_id
       t.Search.accept_label
       (hex_of_witness t.Search.witness));
  List.iter
    (fun term -> Buffer.add_string buf (Term.to_string term ^ ";"))
    t.Search.symbolic;
  Buffer.add_string buf "|";
  Array.iter
    (fun (v : Term.var) ->
      Buffer.add_string buf (Printf.sprintf "%s#%d," v.Term.name v.Term.id))
    t.Search.msg_vars;
  (* only degraded runs produce unconfirmed trojans, so fault-free digests
     (the pinned goldens) are unchanged by this marker *)
  if not t.Search.confirmed then Buffer.add_string buf " unconfirmed";
  Buffer.add_char buf '\n'

let discovery_digest (r : Search.report) =
  let buf = Buffer.create 4096 in
  List.iter (add_trojan buf) r.Search.trojans;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let alive_digest (stats : Search.stats) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Search.alive_sample) ->
      Buffer.add_string buf
        (Printf.sprintf "A %d %d %d\n" s.Search.state_id s.Search.path_length
           s.Search.alive))
    stats.Search.alive_samples;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let report_digest (r : Search.report) =
  let buf = Buffer.create 8192 in
  List.iter (add_trojan buf) r.Search.trojans;
  List.iter
    (fun (sp : Predicate.server_path) ->
      Buffer.add_string buf
        (Printf.sprintf "P %d %s |" sp.Predicate.sp_state_id
           sp.Predicate.label);
      List.iter
        (fun term -> Buffer.add_string buf (Term.to_string term ^ ";"))
        sp.Predicate.sp_constraints;
      Buffer.add_char buf '\n')
    r.Search.accepting;
  (* drop events are part of the digest; their unsat-core contents are not
     (cores depend on solver history, see Search's shard notes) *)
  List.iter
    (fun (d : Search.drop_explanation) ->
      Buffer.add_string buf
        (Printf.sprintf "D %d %d\n" d.Search.at_state d.Search.dropped_path))
    r.Search.drops;
  let s = r.Search.search_stats in
  Buffer.add_string buf
    (Printf.sprintf "S %d %d %d %d %d %d %d\n" s.Search.accepting_paths
       s.Search.rejecting_paths s.Search.other_paths s.Search.pruned_states
       s.Search.forks s.Search.alive_checks s.Search.transitive_drops);
  List.iter
    (fun (a : Search.alive_sample) ->
      Buffer.add_string buf
        (Printf.sprintf "A %d %d %d\n" a.Search.state_id a.Search.path_length
           a.Search.alive))
    s.Search.alive_samples;
  (* Coverage enters the digest only when the run is incomplete: a partial
     report must never collide with the complete one (resume correctness is
     checked by exactly this digest), while complete runs — degraded or not
     — keep the digest the determinism suite pinned before coverage
     existed. Unknown-degradation on a complete run is already visible
     above through the per-trojan "unconfirmed" markers. *)
  let c = r.Search.coverage in
  if not (Search.coverage_complete c) then
    Buffer.add_string buf
      (Printf.sprintf "C partial %d/%d failed=[%s] interrupted=%b\n"
         c.Search.completed_shards c.Search.total_shards
         (String.concat "," (List.map string_of_int c.Search.failed_shards))
         c.Search.interrupted);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let verdict_digest (r : Search.report) =
  let zero (t : Search.trojan) =
    let witness = Array.map (fun b -> Bv.zero (Bv.width b)) t.Search.witness in
    { t with Search.witness }
  in
  report_digest { r with Search.trojans = List.map zero r.Search.trojans }

(* --- grammar summaries ---------------------------------------------------- *)

type field_summary =
  | Constant of Bv.t list
  | Ranged of { low : Bv.t; high : Bv.t }
  | Unconstrained

(* Smallest achievable value of [value] under [constraints], by binary
   search on SAT(value <= mid). *)
let solver_min ~width value constraints =
  let rec go lo hi =
    (* invariant: some achievable value lies in [lo, hi] *)
    if Bv.equal lo hi then lo
    else
      let mid =
        Bv.add lo (Bv.lshr (Bv.sub hi lo) (Bv.one width))
      in
      if Solver.is_sat (Term.ule value (Term.const mid) :: constraints) then
        go lo mid
      else go (Bv.add mid (Bv.one width)) hi
  in
  go (Bv.zero width) (Bv.ones width)

let solver_max ~width value constraints =
  let rec go lo hi =
    if Bv.equal lo hi then lo
    else
      (* ceil((hi - lo) / 2) without the +1 that would overflow on the
         full-domain range: half + parity bit *)
      let diff = Bv.sub hi lo in
      let mid =
        Bv.add lo
          (Bv.add
             (Bv.lshr diff (Bv.one width))
             (Bv.logand diff (Bv.one width)))
      in
      if Solver.is_sat (Term.ule (Term.const mid) value :: constraints) then
        go mid hi
      else go lo (Bv.sub mid (Bv.one width))
  in
  go (Bv.zero width) (Bv.ones width)

let describe_grammar ?mask (pc : Predicate.client_predicate) =
  let layout = pc.Predicate.layout in
  let fields = Predicate.analyzed_fields ?mask layout in
  List.filter_map
    (fun (f : Layout.field) ->
      if f.Layout.size > 8 then None
      else begin
        let width = 8 * f.Layout.size in
        let per_path =
          List.map
            (fun (p : Predicate.client_path) ->
              let value =
                Layout.field_term layout p.Predicate.message f.Layout.field_name
              in
              match Term.const_value value with
              | Some c -> `Const c
              | None -> (
                  match Negate.related_constraints p (Term.var_ids value) with
                  | [] -> `Full
                  | constraints -> `Range (value, constraints)))
            pc.Predicate.paths
        in
        let summary =
          if List.for_all (function `Const _ -> true | _ -> false) per_path
          then
            Constant
              (List.filter_map
                 (function `Const c -> Some c | _ -> None)
                 per_path
              |> List.sort_uniq Bv.compare_unsigned)
          else if List.exists (function `Full -> true | _ -> false) per_path
          then Unconstrained
          else begin
            let lows, highs =
              List.fold_left
                (fun (lows, highs) case ->
                  match case with
                  | `Const c -> (c :: lows, c :: highs)
                  | `Range (value, constraints) ->
                      ( solver_min ~width value constraints :: lows,
                        solver_max ~width value constraints :: highs )
                  | `Full -> (lows, highs))
                ([], []) per_path
            in
            let low =
              List.fold_left
                (fun a b -> if Bv.ult b a then b else a)
                (Bv.ones width) lows
            in
            let high =
              List.fold_left
                (fun a b -> if Bv.ult a b then b else a)
                (Bv.zero width) highs
            in
            Ranged { low; high }
          end
        in
        Some (f.Layout.field_name, summary)
      end)
    fields

let pp_grammar fmt summaries =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, summary) ->
      Format.fprintf fmt "  %-14s " name;
      (match summary with
      | Constant values ->
          Format.fprintf fmt "constant in {%s}"
            (String.concat ", " (List.map (fun v -> Printf.sprintf "%Lu" (Bv.value v)) values))
      | Ranged { low; high } ->
          Format.fprintf fmt "values within [%Lu, %Lu] (hull)" (Bv.value low)
            (Bv.value high)
      | Unconstrained -> Format.fprintf fmt "unconstrained");
      Format.fprintf fmt "@,")
    summaries;
  Format.fprintf fmt "@]"
