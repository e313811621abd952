open Achilles_smt
open Achilles_symvm
module Obs = Achilles_obs.Obs
module Slice = Achilles_slice.Slice

type config = {
  drop_alive : bool;
  use_different_from : bool;
  prune_no_trojan : bool;
  check_overlap : bool;
  incremental_bindings : bool; (* unused; see search.mli *)
  explain_drops : bool;
      (* record, for every dropped client path, the unsat core of server
         constraints that made it incompatible (from the frame context's
         assumption core; none while incremental solving is off) *)
  use_slice : bool;
      (* answer branch feasibility through the static-slice oracle (cone
         restriction + equality-chain decisions); verdict-preserving, so
         report digests are unchanged *)
  mask : string list option;
  witnesses_per_path : int;
  distinct_by : (Bv.t array -> Term.var array -> Term.t) option;
  interp : Interp.config;
  domains : int; (* must be 1; see search.mli *)
  split_bits : int option;
  solver_budget : Solver.budget option;
      (* per-query budget installed for the search's queries *)
  shard_retries : int; (* unused; see search.mli *)
  checkpoint_dir : string option;
      (* flush each completed shard's event log here (atomically) *)
  resume : bool; (* reuse matching shard checkpoints already in the dir *)
  cancel : unit -> bool;
      (* polled cooperative interrupt: when it turns true, exploration
         stops; completed shards and the partial log of the shard the pass
         was in are reported *)
  chaos : (int -> unit) option;
      (* test hook run with the shard position as a pass starts recording
         it; may raise to simulate a crashing shard *)
}

let default_config =
  {
    drop_alive = true;
    use_different_from = true;
    prune_no_trojan = true;
    check_overlap = true;
    incremental_bindings = true;
    explain_drops = false;
    use_slice = Slice.enabled ();
    mask = None;
    witnesses_per_path = 1;
    distinct_by = None;
    interp = Interp.default_config;
    domains = 1;
    split_bits = None;
    solver_budget = None;
    shard_retries = 0;
    checkpoint_dir = None;
    resume = false;
    cancel = (fun () -> false);
    chaos = None;
  }

type trojan = {
  server_state_id : int;
  accept_label : string;
  witness : Bv.t array;
  symbolic : Term.t list;
  msg_vars : Term.var array;
  confirmed : bool;
      (* false: the witness query went Unknown, so the symbolic expression
         stands but no concrete message was extracted (witness is zeros) *)
  found_at : float;
}

type alive_sample = { state_id : int; path_length : int; alive : int }

type drop_explanation = {
  at_state : int; (* server state where the client path died *)
  dropped_path : int; (* cp_id *)
  conflicting : Term.t list; (* server constraints in the unsat core *)
}

type stats = {
  accepting_paths : int;
  rejecting_paths : int;
  other_paths : int;
  pruned_states : int;
  forks : int;
  alive_checks : int;
  transitive_drops : int;
  alive_samples : alive_sample list;
  wall_time : float;
}

(* Honest accounting of everything that degraded a run: failed or resumed
   shards, Unknown answers by query site, budget exhaustions, injected
   faults, cancellation. A pristine run has [coverage_complete] true and
   all-zero degradation counters. *)
type coverage = {
  total_shards : int;
  completed_shards : int; (* shards whose event log made the report *)
  failed_shards : int list; (* shard indices a pass raised in *)
  resumed_shards : int; (* completed shards loaded from a checkpoint *)
  interrupted : bool; (* the cooperative cancel fired *)
  unknown_alive : int; (* alive-check Unknowns: client path kept alive *)
  unknown_prune : int; (* prune-check Unknowns: state kept *)
  unknown_witness : int; (* witness Unknowns: trojan emitted unconfirmed *)
  budget_exhaustions : int;
  injected_faults : int;
  abandoned_states : int; (* states cut off by cancellation *)
  (* slice-oracle effectiveness, process-wide since the last stats reset
     (never digested): branch decisions settled statically, and full-path
     feasibility queries replaced by cone-restricted ones *)
  slice_static_branches : int;
  slice_cone_queries : int;
}

(* Cumulative Obs counter reads. *)
let slice_counters () =
  let counters = (Obs.aggregate ()).Obs.counters in
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  (get "slice.branch_skipped", get "slice.cone_queries")

let coverage_complete c =
  c.completed_shards = c.total_shards
  && c.failed_shards = [] && not c.interrupted

type report = {
  trojans : trojan list;
  accepting : Predicate.server_path list;
  drops : drop_explanation list; (* populated when [explain_drops] is set *)
  search_stats : stats;
  coverage : coverage;
}

(* --- shard event log ---------------------------------------------------------

   Instead of filling the report directly, the search logs every
   observation in the log of the shard its state belongs to (a shard's log
   may also come from a checkpoint another process wrote). A log names a
   state by its local id: its interpreter id minus that of the shard's
   first state. Pre-order creates a shard's states one after another and a
   pass never skips inside a shard it records, so local ids are 0, 1, ...
   in creation order whichever pass logged the shard, and the merge only
   has to concatenate the logs in position order and shift each one's ids
   by the states of the logs before it. *)

type cevent = {
  (* one per recorded constraint on a message-constrained state *)
  ce_id : int;
  ce_plen : int;
  ce_alive : int;
  ce_checks : int;
  ce_transitive : int;
  ce_pruned : bool;
}

type wtrojan = {
  wt_id : int;
  wt_label : string;
  wt_witness : Bv.t array;
  wt_symbolic : Term.t list;
  wt_msg_vars : Term.var array;
  wt_confirmed : bool;
  wt_found_at : float;
}

type waccept = {
  wa_id : int;
  wa_label : string;
  wa_msg_vars : Term.var array;
  wa_constraints : Term.t list;
}

type wdrop = { wd_id : int; wd_path : int; wd_conflicting : Term.t list }

(* Every event list is newest first. *)
type recorder = {
  mutable rec_states : int;
      (* states of the shard: its fork children, plus the root at position 0 *)
  mutable rec_cevents : cevent list;
  mutable rec_terminals : State.status list;
  mutable rec_trojans : wtrojan list;
  mutable rec_accepting : waccept list;
  mutable rec_drops : wdrop list;
  mutable rec_forks : int;
  (* degradation accounting (coverage block), per shard like the other
     events *)
  mutable rec_unknown_alive : int;
  mutable rec_unknown_prune : int;
  mutable rec_unknown_witness : int;
  mutable rec_exhaustions : int; (* solver-stat delta while it was recorded *)
  mutable rec_faults : int;
}

let fresh_recorder ~states =
  {
    rec_states = states;
    rec_cevents = [];
    rec_terminals = [];
    rec_trojans = [];
    rec_accepting = [];
    rec_drops = [];
    rec_forks = 0;
    rec_unknown_alive = 0;
    rec_unknown_prune = 0;
    rec_unknown_witness = 0;
    rec_exhaustions = 0;
    rec_faults = 0;
  }

(* One shard's finished log and the fresh-variable counter at its end. *)
type out = recorder * int

(* --- checkpoint shards -------------------------------------------------------

   A run splits the exploration tree into 2^bits route shards, the units
   of checkpoint and resume. A state belongs to the shard named by the
   first [bits] decisions of its route, padded with '0' (the true side)
   when the route is shorter. Depth-first pre-order visits routes in
   lexicographic order, so it reaches those shards in the order of their
   padded prefixes read as binary numbers — their positions, which name
   them everywhere (shard files, [failed_shards], the [chaos] hook) — and
   never comes back to one it has left. One pass over the tree therefore
   finishes a shard, and checkpoints it, as soon as it reaches a state of a
   later one. *)

type slot =
  | Todo (* no log yet: the next pass records it *)
  | Loaded of out (* resumed from a checkpoint *)
  | Done of out (* finished by a pass *)
  | Partial of out (* cut short by a cancel: reported, never completed *)
  | Failed (* a pass raised while recording it *)

let is_todo = function Todo -> true | _ -> false

(* Where one pass is, and the run's shard slots it fills. *)
type cursor = {
  bits : int;
  slots : slot array; (* by position *)
  mutable cur : int; (* position of the shard the pass is in; -1 before *)
  mutable log : recorder option; (* [cur]'s log, while this pass records it *)
  mutable first : int; (* interpreter id of [cur]'s first state *)
  mutable stopped : bool;
      (* a cancel was seen at a shard boundary: [cur] stays partial and no
         other shard starts or finishes *)
  mutable exhaustions0 : int; (* solver counters when [log] started *)
  mutable faults0 : int;
  mutable abandoned : int; (* states cut off by cancellation, every pass *)
  checkpoint : int -> out -> unit; (* position, finished log *)
}

(* The position of the shard a route belongs to. *)
let position bits route =
  let p = ref 0 in
  for k = 0 to bits - 1 do
    p := (2 * !p) + if k < String.length route && route.[k] = '1' then 1 else 0
  done;
  !p

(* What a state carries down the tree: its alive client paths, each with
   the model of its last satisfiable alive check, and the model of the
   last satisfiable prune query. Models come from the solver restricted to
   the message variables; [None] means no model (none taken yet, or the
   last answer was Unknown). [on_constraint] explains how they settle
   checks. *)
type alive_entry = {
  ae_paths : (int * Model.t option) list; (* alive client idx, its model *)
  ae_prune : Model.t option;
}

(* Mutable search context shared by the interpreter hooks. *)
type search_ctx = {
  cfg : config;
  client : Predicate.client_predicate;
  paths : Predicate.client_path array;
  different_from : Different_from.t option;
  alive : (int, alive_entry) Hashtbl.t; (* state id -> its alive entry *)
  bindings : (int, Term.t list) Hashtbl.t; (* client idx -> msgS=msgC binding *)
  mutable negated : Term.t array; (* client idx -> negate(pathCi) *)
  shards : cursor;
  mutable server_vars : Term.var array option;
  msg_var_ids : (int, unit) Hashtbl.t; (* ids of [server_vars] *)
  mutable field_var_ids : (string * int list) list; (* server var ids per field *)
  started : float;
}

let all_indices ctx = List.init (Array.length ctx.paths) Fun.id

let fresh_entry ctx =
  { ae_paths = List.map (fun i -> (i, None)) (all_indices ctx); ae_prune = None }

(* Start the shard at [cur]: a [Todo] shard gets a fresh log (holding the
   root at position 0), and the [chaos] hook runs with its position (a
   raise fails that shard). *)
let start_shard cfg sh =
  if is_todo sh.slots.(sh.cur) then begin
    let s = Solver.stats () in
    sh.exhaustions0 <- s.Solver.budget_exhaustions;
    sh.faults0 <- s.Solver.injected_faults;
    sh.log <- Some (fresh_recorder ~states:(if sh.cur = 0 then 1 else 0));
    if Obs.live () then
      Obs.emit ~kind:"shard" ~name:"start" ~args:[ ("index", Obs.I sh.cur) ] ();
    Option.iter (fun hook -> hook sh.cur) cfg.chaos
  end

(* The log of the shard at [cur] as it stands, with the solver's
   degradation counters since it started. *)
let close_log sh r =
  let s = Solver.stats () in
  r.rec_exhaustions <- s.Solver.budget_exhaustions - sh.exhaustions0;
  r.rec_faults <- s.Solver.injected_faults - sh.faults0;
  (r, Term.fresh_counter_value ())

(* The pass has left the shard at [cur]: its log is complete, so it is
   checkpointed. *)
let finish_shard sh =
  match sh.log with
  | None -> ()
  | Some r ->
      let out = close_log sh r in
      sh.slots.(sh.cur) <- Done out;
      sh.log <- None;
      sh.checkpoint sh.cur out;
      if Obs.live () then
        Obs.emit ~kind:"shard" ~name:"done" ~args:[ ("index", Obs.I sh.cur) ] ()

(* Move the pass forward to position [p] ([Array.length slots]: past the
   last shard), one shard boundary at a time: each finishes the current
   shard and starts the next, so a shard the pass crosses without
   exploring a state of it is finished empty. A cancel seen at a boundary
   stops the cursor there. *)
let advance cfg sh p =
  while sh.cur < p && not sh.stopped do
    if cfg.cancel () then sh.stopped <- true
    else begin
      finish_shard sh;
      sh.cur <- sh.cur + 1;
      if sh.cur < Array.length sh.slots then start_shard cfg sh
    end
  done

(* The log this state's events go to: its shard's, if this pass records
   it. The first state the pass reaches in a later shard is that shard's
   first (a fork child, reported by [on_fork] as soon as it exists), so it
   fixes the shard's local ids. Pre-order never goes back to an earlier
   shard; the one event that can arrive late, a crash reported on a
   statement's starting state after part of its subtree ran, joins the
   current log as a terminal, which carries no id. *)
let log_for ctx (st : State.t) =
  let sh = ctx.shards in
  let p = position sh.bits st.State.route in
  if p > sh.cur then begin
    advance ctx.cfg sh p;
    sh.first <- st.State.id
  end;
  if p > sh.cur then None (* stopped by a cancel *) else sh.log

(* A logged state's id within its shard's log. *)
let local_id ctx (st : State.t) = st.State.id - ctx.shards.first

let negation_for ctx idx = ctx.negated.(idx)

let setup_server_vars ctx vars =
  match ctx.server_vars with
  | Some existing when existing == vars -> ()
  | Some _ ->
      (* A second, distinct symbolic message would need per-state negations;
         all our server models receive the analyzed message exactly once. *)
      invalid_arg "Search: server received more than one symbolic message"
  | None ->
      ctx.server_vars <- Some vars;
      Array.iter
        (fun (v : Term.var) -> Hashtbl.replace ctx.msg_var_ids v.Term.id ())
        vars;
      let layout = ctx.client.Predicate.layout in
      ctx.field_var_ids <-
        List.map
          (fun (f : Layout.field) ->
            let ids =
              List.init f.Layout.size (fun i ->
                  vars.(f.Layout.offset + i).Term.id)
            in
            (f.Layout.field_name, List.sort compare ids))
          (Layout.fields layout);
      (* every negation at once, at the first message-constrained state:
         the primed variables get the same ids whichever state first needs
         one *)
      ctx.negated <-
        Array.map
          (Negate.negate_path ~check_overlap:ctx.cfg.check_overlap
             ?mask:ctx.cfg.mask ~layout ~server_vars:vars)
          ctx.paths

let binding_for ctx idx =
  match Hashtbl.find_opt ctx.bindings idx with
  | Some b -> b
  | None ->
      let server_vars = Option.get ctx.server_vars in
      let b = Predicate.bind_to_server ~server_vars ctx.paths.(idx) in
      Hashtbl.replace ctx.bindings idx b;
      b

(* pathS /\ bind(pathCi) unsatisfiable? The hot query of the search.
   [Unknown] (budget exhausted, fault injected) must keep the client path
   alive: an alive path only adds its — then implied — negation to the
   Trojan query, whereas a wrong drop would delete a conjunct and admit
   spurious Trojans. Degrading towards "alive" is the sound direction. *)
let binding_check ctx idx (st : State.t) =
  (* on the frame context the path prefix is asserted once and
     shared with the prune query, the interpreter's feasibility checks and
     every other client's binding check at this state; only the binding
     terms ride as per-call assumptions (scratch while incremental solving
     is off) *)
  match
    Solver.check_assuming ~site:"alive" ?model_vars:ctx.server_vars
      ~path:st.State.path (binding_for ctx idx)
  with
  | Solver.Unsat -> `Incompatible
  | Solver.Sat m -> `Compatible m
  | Solver.Unknown -> `Unknown

(* Explanation for the drop just reported by [binding_check]: the server
   constraints in the unsat core. The frame context's core may also name
   binding terms; those are filtered out so the explanation keeps its
   historical meaning. No core (incremental solving off): no explanation. *)
let drop_core (st : State.t) =
  Option.map
    (List.filter (fun t -> List.exists (Term.equal t) st.State.path))
    (Solver.last_assumption_core ())

let alive_for ctx (st : State.t) =
  match Hashtbl.find_opt ctx.alive st.State.id with
  | Some e -> e
  | None -> (
      match st.State.parent with
      | Some p when Hashtbl.mem ctx.alive p -> Hashtbl.find ctx.alive p
      | _ -> fresh_entry ctx)

(* Does [cond] mention only message variables, so that a carried model
   (which binds exactly those) decides it? *)
let over_message_vars ctx cond =
  List.for_all (Hashtbl.mem ctx.msg_var_ids) (Term.var_ids cond)

(* Which single field, if any, does this constraint depend on? The
   constraint must mention only server message variables, all within one
   field. *)
let single_field_of ctx cond =
  let ids = Term.var_ids cond in
  if ids = [] then None
  else
    List.find_opt
      (fun (_, field_ids) -> List.for_all (fun id -> List.mem id field_ids) ids)
      ctx.field_var_ids
    |> Option.map fst

let trojan_query ctx (st : State.t) alive =
  List.rev_append
    (List.map (negation_for ctx) alive)
    (List.rev st.State.path)

(* Does the model carried from the parent state settle this check as
   satisfiable, so that no query runs? [m] is the restriction, to the
   message variables, of a full satisfying assignment A of the parent's
   query: its path with one client binding (alive check), or with the
   negations of its alive set (prune query). The child's query adds [cond],
   and for the prune query keeps only a subset of those negations, since
   alive sets only shrink. When every variable of [cond] is a message
   variable, A agrees with [m] on all of them (a variable [m] leaves
   unbound is absent from the parent's query, so A may take the default
   [Model.eval] reads for it). So if [cond] holds under [m], A satisfies
   the child's query: the check is SAT, and [m] stays a valid restriction
   for the next constraint down the tree. *)
let settles ~over_msg m cond =
  match m with Some m -> over_msg && Model.eval_bool m cond | None -> false

(* The incremental step: update the alive set for the new constraint, then
   decide whether any Trojan message can still trigger this state. *)
let on_constraint ctx (st : State.t) cond =
  if ctx.cfg.cancel () then begin
    (* cooperative interrupt: stop growing this subtree; the state ends
       [Dropped] and the surrounding shard is reported incomplete *)
    ctx.shards.abandoned <- ctx.shards.abandoned + 1;
    false
  end
  else
  match st.State.msg_vars with
  | None -> true (* constraints before the message arrives: nothing to do *)
  | Some vars ->
      setup_server_vars ctx vars;
      let log = log_for ctx st in
      let checks_here = ref 0 and transitive_here = ref 0 in
      let entry = alive_for ctx st in
      let over_msg = over_message_vars ctx cond in
      let alive =
        if not ctx.cfg.drop_alive then entry.ae_paths
        else begin
          let field =
            if ctx.cfg.use_different_from && ctx.different_from <> None then
              single_field_of ctx cond
            else None
          in
          let dropped = Hashtbl.create 8 in
          let maybe_transitive_drop i =
            match field, ctx.different_from with
            | Some a, Some df when Different_from.covers_field df a ->
                List.iter
                  (fun j ->
                    if
                      (not (Hashtbl.mem dropped j))
                      && not (Different_from.different df ~i:j ~j:i ~field:a)
                    then begin
                      Hashtbl.replace dropped j ();
                      incr transitive_here;
                      Obs.count "search.transitive_drops";
                      if Obs.live () then
                        Obs.emit ~kind:"drop" ~name:"transitive"
                          ~args:
                            [
                              ("route", Obs.S st.State.route);
                              ("path", Obs.I j);
                            ]
                          ()
                    end)
                  (all_indices ctx)
            | _ -> ()
          in
          let checked =
            List.filter_map
              (fun (i, m) ->
                if Hashtbl.mem dropped i then None
                else begin
                  incr checks_here;
                  if settles ~over_msg m cond then begin
                    Obs.count "search.alive_settled";
                    Some (i, m)
                  end
                  else
                    match binding_check ctx i st with
                    | `Compatible m -> Some (i, Some m)
                    | `Unknown ->
                        (* sound degradation: an undecided compatibility
                           keeps the client path alive (its negation stays
                           in the Trojan query, over- rather than
                           under-constraining) *)
                        Option.iter
                          (fun r -> r.rec_unknown_alive <- r.rec_unknown_alive + 1)
                          log;
                        Some (i, None)
                    | `Incompatible ->
                        (match log with
                        | Some r when ctx.cfg.explain_drops -> (
                            match drop_core st with
                            | Some conflicting ->
                                r.rec_drops <-
                                  {
                                    wd_id = local_id ctx st;
                                    wd_path = i;
                                    wd_conflicting = conflicting;
                                  }
                                  :: r.rec_drops
                            | None -> ())
                        | _ -> ());
                        Obs.count "search.client_path_drops";
                        if Obs.live () then
                          Obs.emit ~kind:"drop" ~name:"client_path"
                            ~args:
                              [
                                ("route", Obs.S st.State.route);
                                ("path", Obs.I i);
                              ]
                            ();
                        Hashtbl.replace dropped i ();
                        maybe_transitive_drop i;
                        None
                end)
              entry.ae_paths
          in
          (* a transitive drop may also hit a path checked before it *)
          List.filter (fun (i, _) -> not (Hashtbl.mem dropped i)) checked
        end
      in
      let indices = List.map fst alive in
      let pruned, prune_model =
        if not ctx.cfg.prune_no_trojan then (false, None)
        else if settles ~over_msg entry.ae_prune cond then begin
          Obs.count "search.prune_settled";
          (false, entry.ae_prune)
        end
        else
        (* rides the frame context whose stack already holds this state's
           path (scratch [check] while incrementality is off); its model
           depends on the instance's history, so it only settles later
           prune checks. Report witnesses come from [Solver.witnesses] on
           the same context, whose lexicographic solves make them a
           function of the query alone *)
        match
          Solver.check_assuming ~site:"prune" ~model_vars:vars
            ~path:st.State.path
            (List.map (negation_for ctx) indices)
        with
        | Solver.Unsat -> (true, None)
        | Solver.Sat m -> (false, Some m)
        | Solver.Unknown ->
            (* sound degradation: only a proven-Trojan-free state may be
               pruned; an undecided query keeps the state alive *)
            Option.iter
              (fun r -> r.rec_unknown_prune <- r.rec_unknown_prune + 1)
              log;
            (false, None)
      in
      Hashtbl.replace ctx.alive st.State.id
        { ae_paths = alive; ae_prune = prune_model };
      if pruned then begin
        Obs.count "search.pruned_states";
        if Obs.live () then
          Obs.emit ~kind:"drop" ~name:"pruned"
            ~args:[ ("route", Obs.S st.State.route) ]
            ()
      end;
      Option.iter
        (fun r ->
          r.rec_cevents <-
            {
              ce_id = local_id ctx st;
              ce_plen = List.length st.State.path;
              ce_alive = List.length alive;
              ce_checks = !checks_here;
              ce_transitive = !transitive_here;
              ce_pruned = pruned;
            }
            :: r.rec_cevents)
        log;
      not pruned

let on_fork ctx ~parent ~child =
  Hashtbl.replace ctx.alive child.State.id (alive_for ctx parent);
  match log_for ctx child with
  | None -> ()
  | Some r ->
      let croute = child.State.route in
      r.rec_states <- r.rec_states + 1;
      (* count each two-sided fork once: at its '0' child, which belongs to
         the parent's shard *)
      if croute.[String.length croute - 1] = '0' then
        r.rec_forks <- r.rec_forks + 1

let witness_of_model vars model =
  Array.map
    (fun v ->
      match Model.find model v with
      | Some (Model.Vbv bv) -> bv
      | Some (Model.Vbool _) -> assert false
      | None -> Bv.zero 8)
    vars

(* Enumerate concrete Trojan witnesses on an accepting path in one solver
   session on the frame context (whose stack already holds the path),
   blocking each discovered message (or message class) before re-solving.
   Each witness is the least message the query admits under its preferred
   bits: scattered per witness when exact messages are blocked, so
   consecutive witnesses differ in more than their last bits. *)
let emit_trojans ctx r (st : State.t) label =
  match st.State.msg_vars with
  | None -> ()
  | Some vars ->
      setup_server_vars ctx vars;
      let alive = List.map fst (alive_for ctx st).ae_paths in
      let base_query = trojan_query ctx st alive in
      r.rec_accepting <-
        {
          wa_id = local_id ctx st;
          wa_label = label;
          wa_msg_vars = vars;
          wa_constraints = List.rev st.State.path;
        }
        :: r.rec_accepting;
      let block witness =
        match ctx.cfg.distinct_by with
        | Some f -> f witness vars
        | None ->
            (* block exactly these bytes *)
            Term.not_
              (Term.and_l
                 (Array.to_list
                    (Array.mapi
                       (fun i v -> Term.eq (Term.var vars.(i)) (Term.const v))
                       witness)))
      in
      let emit ~n ~confirmed witness =
        Obs.count "search.trojans_emitted";
        if Obs.live () then
          Obs.emit ~kind:"trojan" ~name:label
            ~args:
              [
                ("route", Obs.S st.State.route);
                ("idx", Obs.I n);
                ("confirmed", Obs.B confirmed);
              ]
            ();
        r.rec_trojans <-
          {
            wt_id = local_id ctx st;
            wt_label = label;
            wt_witness = witness;
            wt_symbolic = base_query;
            wt_msg_vars = vars;
            wt_confirmed = confirmed;
            wt_found_at = Unix.gettimeofday () -. ctx.started;
          }
          :: r.rec_trojans
      in
      let n = ref 0 in
      match
        Solver.witnesses ~site:"witness" ~model_vars:vars
          ~limit:ctx.cfg.witnesses_per_path
          ~scatter:(Option.is_none ctx.cfg.distinct_by)
          ~path:st.State.path
          (List.map (negation_for ctx) alive)
          (fun model ->
            let witness = witness_of_model vars model in
            emit ~n:!n ~confirmed:true witness;
            incr n;
            block witness)
      with
      | `Exhausted | `Limit -> ()
      | `Unknown ->
          (* sound degradation: the accepting state is reported with its
             symbolic Trojan expression but no extracted message — an
             over-approximation flagged [unconfirmed], never a silently
             dropped Trojan *)
          r.rec_unknown_witness <- r.rec_unknown_witness + 1;
          emit ~n:!n ~confirmed:false (Array.map (fun _ -> Bv.zero 8) vars)

(* Greedily zero out witness bytes while the Trojan expression stays
   satisfiable: smaller witnesses make fire-drill payloads easier to read
   and diff against valid traffic. *)
let minimize_witness (t : trojan) =
  let pins = Array.map (fun b -> Some b) t.witness in
  let pin_terms () =
    Array.to_list pins
    |> List.mapi (fun i p ->
           Option.map (fun b -> Term.eq (Term.var t.msg_vars.(i)) (Term.const b)) p)
    |> List.filter_map Fun.id
  in
  let current = Array.copy t.witness in
  Array.iteri
    (fun i byte ->
      if not (Bv.equal byte (Bv.zero 8)) then begin
        pins.(i) <- Some (Bv.zero 8);
        if Solver.is_sat ~site:"minimize" (pin_terms () @ t.symbolic) then
          current.(i) <- Bv.zero 8
        else pins.(i) <- Some current.(i)
      end)
    t.witness;
  current

let on_terminal ctx (st : State.t) =
  match log_for ctx st with
  | Some r when st.State.status <> State.Running -> (
      r.rec_terminals <- st.State.status :: r.rec_terminals;
      match st.State.status with
      | State.Accepted label -> emit_trojans ctx r st label
      | _ -> ())
  | _ -> ()

let make_ctx ~config ~client ~different_from ~shards ~started =
  {
    cfg = config;
    client;
    paths = Array.of_list client.Predicate.paths;
    different_from;
    alive = Hashtbl.create 256;
    bindings = Hashtbl.create 64;
    negated = [||];
    shards;
    server_vars = None;
    msg_var_ids = Hashtbl.create 64;
    field_var_ids = [];
    started;
  }

let hooks_of ctx =
  {
    Interp.on_constraint = (fun st c -> on_constraint ctx st c);
    Interp.on_fork = (fun ~parent ~child -> on_fork ctx ~parent ~child);
    Interp.on_send = (fun _ _ -> ());
    Interp.on_terminal = (fun st -> on_terminal ctx st);
  }

(* --- shard checkpoints ------------------------------------------------------

   Each completed shard's event log is flushed to its own file, written to a
   temporary name, fsynced, and renamed — atomic on POSIX — with the
   containing directory fsynced after the rename, so a run killed at any
   moment (including SIGKILL or power loss) leaves only whole, durable
   shard files behind. The payload carries its own digest: a torn or
   bit-rotted file is detected on load and treated as missing (the shard is
   re-explored with a warning), never trusted and never fatal. [resume]
   then re-explores exactly the missing shards: every pass starts from the
   same fresh-variable base, and a shard's log names its states by local
   ids, which no pass changes, so a merge of loaded and re-explored shards
   is indistinguishable from an uninterrupted run (the determinism
   guarantee extends across process boundaries). *)

let ckpt_magic = "ACHILLES-CKPT-4"

(* Identity of a run for resume purposes: everything that changes the shard
   decomposition or per-shard event logs. Closure-valued config fields
   ([distinct_by], [interp.auto_classify]) cannot be fingerprinted; resume
   assumes they are unchanged. The client's terms are fingerprinted by
   their printed rendering, not their in-memory representation: hash-consed
   nodes carry process-local ids that vary with construction order, and
   marshaling them would make the fingerprint differ between runs of the
   same analysis. *)
let client_rendering (client : Predicate.client_predicate) =
  List.map
    (fun (p : Predicate.client_path) ->
      ( p.Predicate.cp_id,
        p.Predicate.source,
        Array.to_list (Array.map Term.to_string p.Predicate.message),
        List.map Term.to_string p.Predicate.constraints ))
    client.Predicate.paths

let run_fingerprint ~bits ~config ~client ~server =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( ckpt_magic,
            bits,
            config.drop_alive,
            config.use_different_from,
            config.prune_no_trojan,
            config.check_overlap,
            config.incremental_bindings,
            config.explain_drops,
            config.mask,
            config.witnesses_per_path,
            config.solver_budget,
            Layout.name client.Predicate.layout,
            Layout.total_size client.Predicate.layout,
            client_rendering client,
            server )
          []))

let shard_file dir pos =
  Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" pos)

(* Flush [fd], then its durability: an atomic rename only orders the
   *names*; the bytes (and the new directory entry) still have to reach the
   platter before a crash may assume the checkpoint exists. Filesystems
   that refuse fsync on directories (some network mounts) degrade to the
   rename-only guarantee. *)
let fsync_noerr fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      fsync_noerr fd;
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* A write that fails (ENOSPC, EIO, an unwritable directory) costs only the
   checkpoint, never the shard: the explored log still goes into this run's
   report, the temp file is removed, and the shard file is simply missing —
   so a later [--resume] re-explores it, just as after a torn write. *)
let write_checkpoint_file ~file ~fingerprint ~pos (recorder, counter) =
  Obs.span Obs.Checkpoint_io @@ fun () ->
  if Obs.live () then
    Obs.emit ~kind:"checkpoint" ~name:"write" ~args:[ ("index", Obs.I pos) ] ();
  (* pid-qualified temp name: two analyze runs sharing one checkpoint dir
     must never interleave writes into one temp file *)
  let tmp = Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) pos in
  let failed reason =
    Printf.eprintf
      "achilles: warning: cannot write shard checkpoint %s (%s); a resume \
       will re-explore shard %d\n\
       %!"
      file reason pos;
    Obs.count "checkpoint.write_failed"
  in
  let payload = Marshal.to_string (recorder, counter) [] in
  match open_out_bin tmp with
  | exception Sys_error reason -> failed reason
  | oc -> (
      match
        Marshal.to_channel oc
          (ckpt_magic, fingerprint, pos, Digest.string payload, payload)
          [];
        flush oc;
        fsync_noerr (Unix.descr_of_out_channel oc);
        close_out oc;
        Sys.rename tmp file
      with
      | () -> fsync_dir (Filename.dirname file)
      | exception Sys_error reason ->
          close_out_noerr oc;
          (try Sys.remove tmp with Sys_error _ -> ());
          failed reason)

(* Terms revived by [Marshal] bypassed the smart constructors: their node
   ids belong to the (dead) process that wrote the checkpoint and may
   collide with ids of live terms, which would poison id-keyed memo tables
   (e.g. [Term.var_ids]) when report building walks the loaded events.
   Re-intern every term before letting the recorder out. *)
let rebuild_recorder r =
  let terms = List.map Term.rebuild in
  r.rec_trojans <-
    List.map
      (fun w -> { w with wt_symbolic = terms w.wt_symbolic })
      r.rec_trojans;
  r.rec_accepting <-
    List.map
      (fun w -> { w with wa_constraints = terms w.wa_constraints })
      r.rec_accepting;
  r.rec_drops <-
    List.map
      (fun w -> { w with wd_conflicting = terms w.wd_conflicting })
      r.rec_drops;
  r

(* A checkpoint that fails any validation step — bad magic, wrong
   fingerprint or position, short read, payload digest mismatch, Marshal
   failure — is treated as missing: the shard is recomputed. A killed or
   corrupted writer must degrade [--resume] to extra work, never crash it
   or poison the merge. A wrong fingerprint is no damage: the file is
   intact but was written by a run with another split or other options, so
   it is reported as stale rather than corrupt. *)
let load_checkpoint_file ~file ~fingerprint ~pos : out option =
  Obs.span Obs.Checkpoint_io @@ fun () ->
  if Obs.live () then
    Obs.emit ~kind:"checkpoint" ~name:"load" ~args:[ ("index", Obs.I pos) ] ();
  if not (Sys.file_exists file) then None
  else begin
    let ignored ~kind what reason =
      Printf.eprintf
        "achilles: warning: ignoring %s %s (%s); re-exploring shard %d\n%!"
        what file reason pos;
      Obs.count ("checkpoint." ^ kind);
      Obs.emit ~kind:"checkpoint" ~name:kind
        ~args:
          [
            ("index", Obs.I pos);
            ("file", Obs.S file);
            ("reason", Obs.S reason);
          ]
        ();
      None
    in
    let corrupt = ignored ~kind:"corrupt" "corrupt shard checkpoint" in
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (Marshal.from_channel ic
            : string * string * int * Digest.t * string))
    with
    | exception _ -> corrupt "unreadable header (torn or foreign file)"
    | magic, _, _, _, _ when magic <> ckpt_magic -> corrupt "bad magic"
    | _, fp, _, _, _ when fp <> fingerprint ->
        ignored ~kind:"stale" "shard checkpoint"
          "written by a run with a different split or options"
    | _, _, p, _, _ when p <> pos -> corrupt "shard position mismatch"
    | _, _, _, digest, payload when not (Digest.equal digest (Digest.string payload))
      ->
        corrupt "payload digest mismatch"
    | _, _, _, _, payload -> (
        match (Marshal.from_string payload 0 : out) with
        | r, c -> Some (rebuild_recorder r, c)
        | exception _ -> corrupt "payload unmarshal failure")
  end

(* A writer killed between creating its temp file and the rename leaves the
   temp behind; left alone, those accumulate and (worse) a matching-name
   temp from a dead pid could be confused for live work. Startup owns the
   directory (single run per dir), so any [*.tmp.*] is garbage by
   definition: shard-NNNN.ckpt.tmp.<pid>.<pos>, and the pre-durability
   shard-NNNN.ckpt.tmp.<pos> form. *)
let clean_stale_tmp_files dir =
  Array.iter
    (fun name ->
      let full = Filename.concat dir name in
      (* a "tmp" component with one before it and one after it *)
      let rec inner_tmp = function
        | _ :: "tmp" :: _ :: _ -> true
        | _ :: rest -> inner_tmp rest
        | [] -> false
      in
      let is_tmp = inner_tmp (String.split_on_char '.' name) in
      if is_tmp && not (Sys.is_directory full) then begin
        Obs.count "checkpoint.stale_tmp_removed";
        (try Sys.remove full with Sys_error _ -> ())
      end)
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Create [dir] if needed (its parent must exist) and sweep stale temp
   files, or say why it cannot hold checkpoints. *)
let prepare_checkpoint_dir dir =
  match Sys.is_directory dir with
  | true ->
      clean_stale_tmp_files dir;
      Ok ()
  | false ->
      Error (Printf.sprintf "checkpoint directory %s is not a directory" dir)
  | exception Sys_error _ -> (
      match Unix.mkdir dir 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot create checkpoint directory %s: %s" dir
               (Unix.error_message e)))

let split_bits_of config =
  match config.split_bits with
  | Some b ->
      if b < 0 || b > 16 then invalid_arg "Search: split_bits out of [0,16]";
      b
  | None -> if config.checkpoint_dir <> None || config.resume then 2 else 0

(* Deterministic merge of the run's shard event logs into a report: the
   logs in position order are the depth-first pass in order, so their
   events are concatenated, and a log's local ids are shifted by the states
   of the logs before it — in a complete run, the ids one pass over the
   whole tree assigns. Every run ends here, which is what makes the final
   report digest independent of the split and resume history. A failed or
   unreached shard has no log and shifts nothing. A [Partial] log (the
   shard a cancel cut short) joins the report but not the completed
   count. *)
let merge_outs ~base ~started ~interrupted sh =
  let slots = Array.to_list sh.slots in
  let count p = List.length (List.filter p slots) in
  let outs =
    List.filter_map
      (function
        | Loaded out | Done out | Partial out -> Some out
        | Todo | Failed -> None)
      slots
  in
  let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 outs in
  let slice_static, slice_cone = slice_counters () in
  let coverage =
    {
      total_shards = Array.length sh.slots;
      completed_shards =
        count (function Loaded _ | Done _ -> true | _ -> false);
      failed_shards =
        List.concat
          (List.mapi (fun pos -> function Failed -> [ pos ] | _ -> []) slots);
      resumed_shards = count (function Loaded _ -> true | _ -> false);
      interrupted;
      unknown_alive = sum (fun r -> r.rec_unknown_alive);
      unknown_prune = sum (fun r -> r.rec_unknown_prune);
      unknown_witness = sum (fun r -> r.rec_unknown_witness);
      budget_exhaustions = sum (fun r -> r.rec_exhaustions);
      injected_faults = sum (fun r -> r.rec_faults);
      abandoned_states = sh.abandoned;
      slice_static_branches = slice_static;
      slice_cone_queries = slice_cone;
    }
  in
  (* keep the counter ahead of every id any shard allocated, so later
     analyses cannot reuse ids live in this report *)
  let top = List.fold_left (fun acc (_, c) -> max acc c) base outs in
  Term.set_fresh_counter (max top (Term.fresh_counter_value ()));
  let _, shifted =
    List.fold_left_map
      (fun offset (r, _) -> (offset + r.rec_states, (offset, r)))
      0 outs
  in
  (* one event list of every log, oldest first, with whole-run ids *)
  let merged events make =
    List.concat_map
      (fun (offset, r) -> List.rev_map (make offset) (events r))
      shifted
  in
  (* found_at is wall clock — the one field outside the determinism claim.
     Resumed shards were found by another run, so restore monotonicity
     along the merged (depth-first) order for the Figure-10 discovery
     curve. *)
  let _, trojans =
    List.fold_left_map
      (fun floor t ->
        let found_at = Float.max floor t.found_at in
        (found_at, { t with found_at }))
      0.
      (merged
         (fun r -> r.rec_trojans)
         (fun offset w ->
           {
             server_state_id = offset + w.wt_id;
             accept_label = w.wt_label;
             witness = w.wt_witness;
             symbolic = w.wt_symbolic;
             msg_vars = w.wt_msg_vars;
             confirmed = w.wt_confirmed;
             found_at = w.wt_found_at;
           }))
  in
  let accepting =
    merged
      (fun r -> r.rec_accepting)
      (fun offset a ->
        {
          Predicate.sp_state_id = offset + a.wa_id;
          label = a.wa_label;
          msg_vars = a.wa_msg_vars;
          sp_constraints = a.wa_constraints;
        })
  in
  let drops =
    merged
      (fun r -> r.rec_drops)
      (fun offset d ->
        {
          at_state = offset + d.wd_id;
          dropped_path = d.wd_path;
          conflicting = d.wd_conflicting;
        })
  in
  let cevents = List.concat_map (fun (r, _) -> r.rec_cevents) outs in
  let terminals = List.concat_map (fun (r, _) -> r.rec_terminals) outs in
  let terminal p = List.length (List.filter p terminals) in
  (* per §5.1, a server path that returns to the event loop without
     accepting rejected its message *)
  let stats =
    {
      accepting_paths =
        terminal (function State.Accepted _ -> true | _ -> false);
      rejecting_paths =
        terminal (function
          | State.Rejected _ | State.Finished -> true | _ -> false);
      other_paths =
        terminal (function
          | State.Dropped | State.Crashed _ -> true | _ -> false);
      pruned_states = List.length (List.filter (fun e -> e.ce_pruned) cevents);
      forks = sum (fun r -> r.rec_forks);
      alive_checks = List.fold_left (fun acc e -> acc + e.ce_checks) 0 cevents;
      transitive_drops =
        List.fold_left (fun acc e -> acc + e.ce_transitive) 0 cevents;
      alive_samples =
        merged
          (fun r -> r.rec_cevents)
          (fun offset e ->
            {
              state_id = offset + e.ce_id;
              path_length = e.ce_plen;
              alive = e.ce_alive;
            });
      wall_time = Unix.gettimeofday () -. started;
    }
  in
  { trojans; accepting; drops; search_stats = stats; coverage }

(* One depth-first pass over the tree, from the fresh-variable base: it
   records every [Todo] shard it reaches and skips the subtrees that hold
   only shards already logged, so the search work is that of an unsharded
   run. Raises what the pass raised, with the cursor left at the shard it
   was in. The pass installs [config.solver_budget] for its own queries and
   gives the caller its previous budget back. *)
let explore_pass ~config ~different_from ~client ~server ~started ~base sh =
  Term.set_fresh_counter base;
  sh.cur <- -1;
  sh.log <- None;
  (* position 0 starts at the root, id 0 *)
  sh.first <- 0;
  let ctx = make_ctx ~config ~client ~different_from ~shards:sh ~started in
  (* a route's subtree belongs to the shards at positions [lo, hi) *)
  let logged route =
    let lo = position sh.bits route in
    let hi = lo + (1 lsl (sh.bits - min (String.length route) sh.bits)) in
    let rec from p = p = hi || ((not (is_todo sh.slots.(p))) && from (p + 1)) in
    from lo
  in
  let iconfig =
    {
      config.interp with
      (* a pass that starts with every shard [Todo] never returns to one
         it finished *)
      Interp.skip_route =
        (if Array.for_all is_todo sh.slots then None else Some logged);
      Interp.oracle =
        (if config.use_slice then Some (Slice.make_oracle ()) else None);
    }
  in
  let saved_budget = Solver.get_budget () in
  Solver.set_budget config.solver_budget;
  Fun.protect
    ~finally:(fun () -> Solver.set_budget saved_budget)
    (fun () ->
      advance config sh 0;
      if not sh.stopped then begin
        Obs.span Obs.Server_se (fun () ->
            ignore (Interp.run ~config:iconfig ~hooks:(hooks_of ctx) server));
        advance config sh (Array.length sh.slots)
      end)

(* A pass that raises fails the shard it was recording, and the next pass
   skips it along with every finished one, so a run takes at most
   [2^bits] extra passes. A pass that raises while it records nothing (in
   a loaded or failed shard) would raise again: every unfinished shard
   fails and the run ends. *)
let run ?(config = default_config) ?different_from ~client ~server () =
  if config.domains <> 1 then invalid_arg "Search: domains must be 1";
  let started = Unix.gettimeofday () in
  let bits = split_bits_of config in
  let n = 1 lsl bits in
  let base = Term.fresh_counter_value () in
  let fingerprint =
    match config.checkpoint_dir with
    | Some dir -> (
        match prepare_checkpoint_dir dir with
        | Ok () -> run_fingerprint ~bits ~config ~client ~server
        | Error msg -> invalid_arg ("Search: " ^ msg))
    | None -> ""
  in
  let sh =
    {
      bits;
      slots =
        Array.init n (fun pos ->
            match config.checkpoint_dir with
            | Some dir when config.resume -> (
                match
                  load_checkpoint_file ~file:(shard_file dir pos) ~fingerprint
                    ~pos
                with
                | Some out -> Loaded out
                | None -> Todo)
            | _ -> Todo);
      cur = -1;
      log = None;
      first = 0;
      stopped = false;
      exhaustions0 = 0;
      faults0 = 0;
      abandoned = 0;
      checkpoint =
        (match config.checkpoint_dir with
        | Some dir ->
            fun pos ->
              write_checkpoint_file ~file:(shard_file dir pos) ~fingerprint ~pos
        | None -> fun _ _ -> ());
    }
  in
  let fail pos =
    sh.slots.(pos) <- Failed;
    if Obs.live () then
      Obs.emit ~kind:"shard" ~name:"failed" ~args:[ ("index", Obs.I pos) ] ()
  in
  let rec passes () =
    if
      (not sh.stopped)
      && Array.exists is_todo sh.slots
      && not (config.cancel ())
    then
      match
        explore_pass ~config ~different_from ~client ~server ~started ~base sh
      with
      | () -> ()
      | exception _ -> (
          match sh.log with
          | Some _ ->
              sh.log <- None;
              fail sh.cur;
              passes ()
          | None -> Array.iteri (fun pos s -> if is_todo s then fail pos) sh.slots)
  in
  passes ();
  Option.iter
    (fun r ->
      if Obs.live () then
        Obs.emit ~kind:"shard" ~name:"cancelled"
          ~args:[ ("index", Obs.I sh.cur) ]
          ();
      sh.slots.(sh.cur) <- Partial (close_log sh r))
    sh.log;
  merge_outs ~base ~started ~interrupted:(config.cancel ()) sh

(* Accepting states paired with the Trojan query the search decided them
   with — the predicate export consumed by the filter compiler
   ([Achilles_filter]). Trojans carry the query of their state verbatim
   ([emit_trojans] stores [trojan_query] as [symbolic]); states with no
   trojan entry had an unsatisfiable query, so [None] means "provably no
   Trojan message reaches this state". *)
let trojan_queries (r : report) =
  List.map
    (fun (sp : Predicate.server_path) ->
      let query =
        List.find_map
          (fun (t : trojan) ->
            if t.server_state_id = sp.Predicate.sp_state_id then
              Some t.symbolic
            else None)
          r.trojans
      in
      (sp, query))
    r.accepting

(* The checkpoint files of [run], exposed for tests and for the
   CLI's up-front directory check. *)
module Shards = struct
  type nonrec out = out

  let prepare_dir = prepare_checkpoint_dir

  let fingerprint ~config ~client ~server =
    run_fingerprint ~bits:(split_bits_of config) ~config ~client ~server

  let write = write_checkpoint_file
  let load = load_checkpoint_file
end
