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
      (* per-query budget installed for every shard's queries *)
  shard_retries : int; (* unused; see search.mli *)
  checkpoint_dir : string option;
      (* flush each completed shard's event log here (atomically) *)
  resume : bool; (* reuse matching shard checkpoints already in the dir *)
  cancel : unit -> bool;
      (* polled cooperative interrupt: when it turns true, in-flight
         exploration stops; completed shards and the partial logs of the
         interrupted ones are reported *)
  chaos : (int -> unit) option;
      (* test hook run with the shard index as each shard starts; may
         raise to simulate a crashing shard *)
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
  failed_shards : int list; (* shard indices whose task raised *)
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

   A shard cannot use global state ids (each shard numbers its own
   states), so instead of filling the report directly it logs every
   observation keyed by the state's route. Only the shard that *owns* a
   state records it, so the merge is a concatenation — no deduplication —
   sorted by route, with ids rewritten to the lexicographic rank of the
   route, which equals the id a single depth-first run over the whole tree
   assigns. *)

type cevent = {
  (* one per recorded constraint on a message-constrained state *)
  ce_route : string;
  ce_plen : int;
  ce_alive : int;
  ce_checks : int;
  ce_transitive : int;
  ce_pruned : bool;
}

type wtrojan = {
  wt_route : string;
  wt_idx : int; (* enumeration index within the accepting state *)
  wt_label : string;
  wt_witness : Bv.t array;
  wt_symbolic : Term.t list;
  wt_msg_vars : Term.var array;
  wt_confirmed : bool;
  wt_found_at : float;
}

type waccept = {
  wa_route : string;
  wa_label : string;
  wa_msg_vars : Term.var array;
  wa_constraints : Term.t list;
}

type wdrop = {
  wd_route : string;
  wd_plen : int;
  wd_ord : int; (* position within the constraint event *)
  wd_path : int;
  wd_conflicting : Term.t list;
}

type recorder = {
  mutable rec_routes : string list; (* owned fork children *)
  mutable rec_cevents : cevent list;
  mutable rec_terminals : (string * State.status) list;
  mutable rec_trojans : wtrojan list;
  mutable rec_accepting : waccept list;
  mutable rec_drops : wdrop list;
  mutable rec_forks : int;
  (* degradation accounting (coverage block), owner-deduplicated like the
     other events *)
  mutable rec_unknown_alive : int;
  mutable rec_unknown_prune : int;
  mutable rec_unknown_witness : int;
  mutable rec_exhaustions : int; (* solver-stat delta over the task *)
  mutable rec_faults : int;
}

let fresh_recorder () =
  {
    rec_routes = [];
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

(* --- client-path negations ---------------------------------------------------

   [negate(pathCi)] belongs to the client predicate, like the differentFrom
   matrix, so one table serves every shard a run explores. The first shard
   to reach a message-constrained state builds it, in path order. The build
   allocates fresh (primed)
   variables, so the table also records the fresh-variable counter after
   it; a later shard adopts the table and that counter, and its primed
   variables keep exactly the ids its own build would have given them.
   Shards reach that point with the same counter and message variables
   unless the server allocates variables after its first fork (the
   determinism caveat in the interface); the key records both, and a shard
   arriving with others builds a private table, as if none were shared. A
   build that raises stores nothing, so the next shard builds afresh. *)
type negation_table = {
  nt_key : int * int array; (* counter before the build, message var ids *)
  nt_negs : Term.t array; (* client idx -> negate(pathCi) *)
  nt_after : int; (* counter after the build *)
}

type negations = negation_table option ref

let negations () : negations = ref None

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
  negations : negations; (* the run's table, shared between shards *)
  mutable negated : Term.t array; (* client idx -> negate(pathCi) *)
  shard : Interp.shard; (* the route shard being explored *)
  recorder : recorder; (* the shard's event log *)
  mutable server_vars : Term.var array option;
  msg_var_ids : (int, unit) Hashtbl.t; (* ids of [server_vars] *)
  mutable field_var_ids : (string * int list) list; (* server var ids per field *)
  mutable n_abandoned : int; (* states cut off by cancellation *)
  started : float;
}

let all_indices ctx = List.init (Array.length ctx.paths) Fun.id

let fresh_entry ctx =
  { ae_paths = List.map (fun i -> (i, None)) (all_indices ctx); ae_prune = None }

(* Does this shard record observations for this state? Only the shard
   that owns it does (with a single shard, that is every state). *)
let records ctx (st : State.t) = Interp.shard_owns ctx.shard st.State.route

let negation_for ctx idx = ctx.negated.(idx)

let negations_for ctx vars =
  let build () =
    Array.map
      (Negate.negate_path ~check_overlap:ctx.cfg.check_overlap
         ?mask:ctx.cfg.mask ~layout:ctx.client.Predicate.layout
         ~server_vars:vars)
      ctx.paths
  in
  let key =
    ( Term.fresh_counter_value (),
      Array.map (fun (v : Term.var) -> v.Term.id) vars )
  in
  match !(ctx.negations) with
  | Some t when t.nt_key = key ->
      Term.set_fresh_counter t.nt_after;
      t.nt_negs
  | Some _ -> build ()
  | None ->
      let negs = build () in
      ctx.negations :=
        Some
          { nt_key = key; nt_negs = negs; nt_after = Term.fresh_counter_value () };
      negs

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
      ctx.negated <- negations_for ctx vars

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
    ctx.n_abandoned <- ctx.n_abandoned + 1;
    false
  end
  else
  match st.State.msg_vars with
  | None -> true (* constraints before the message arrives: nothing to do *)
  | Some vars ->
      setup_server_vars ctx vars;
      let recording = records ctx st in
      let checks_here = ref 0 and transitive_here = ref 0 and drop_ord = ref 0 in
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
                        (if recording then
                           let r = ctx.recorder in
                           r.rec_unknown_alive <- r.rec_unknown_alive + 1);
                        Some (i, None)
                    | `Incompatible ->
                        if recording && ctx.cfg.explain_drops then begin
                          match drop_core st with
                          | Some conflicting ->
                              ctx.recorder.rec_drops <-
                                {
                                  wd_route = st.State.route;
                                  wd_plen = List.length st.State.path;
                                  wd_ord = !drop_ord;
                                  wd_path = i;
                                  wd_conflicting = conflicting;
                                }
                                :: ctx.recorder.rec_drops;
                              incr drop_ord
                          | None -> ()
                        end;
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
           path (scratch [check] while incrementality is off); its model only
           settles later prune checks, while witness extraction below runs
           in its own enumeration session on a freshly reset instance
           (models from the shared persistent one would depend on its
           history and perturb report digests) *)
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
            (if recording then
               let r = ctx.recorder in
               r.rec_unknown_prune <- r.rec_unknown_prune + 1);
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
      if recording then
        ctx.recorder.rec_cevents <-
          {
            ce_route = st.State.route;
            ce_plen = List.length st.State.path;
            ce_alive = List.length alive;
            ce_checks = !checks_here;
            ce_transitive = !transitive_here;
            ce_pruned = pruned;
          }
          :: ctx.recorder.rec_cevents;
      not pruned

let on_fork ctx ~parent ~child =
  Hashtbl.replace ctx.alive child.State.id (alive_for ctx parent);
  let r = ctx.recorder and croute = child.State.route in
  if Interp.shard_owns ctx.shard croute then r.rec_routes <- croute :: r.rec_routes;
  (* count each two-sided fork once: at its '0' child, by the parent's
     owner (who always explores that child) *)
  let clen = String.length croute in
  if clen > 0 && croute.[clen - 1] = '0' && records ctx parent then
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
   session, blocking each discovered message (or message class) before
   re-solving. *)
let emit_trojans ctx (st : State.t) label =
  match st.State.msg_vars with
  | None -> ()
  | Some vars ->
      setup_server_vars ctx vars;
      let alive = List.map fst (alive_for ctx st).ae_paths in
      let base_query = trojan_query ctx st alive in
      let r = ctx.recorder in
      r.rec_accepting <-
        {
          wa_route = st.State.route;
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
            wt_route = st.State.route;
            wt_idx = n;
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
        Solver.enumerate ~site:"witness" ~limit:ctx.cfg.witnesses_per_path
          base_query (fun model ->
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
  if records ctx st && st.State.status <> State.Running then begin
    let r = ctx.recorder in
    r.rec_terminals <- (st.State.route, st.State.status) :: r.rec_terminals;
    match st.State.status with
    | State.Accepted label -> emit_trojans ctx st label
    | _ -> ()
  end

let make_ctx ~config ~client ~different_from ~negations ~shard ~recorder
    ~started =
  {
    cfg = config;
    client;
    paths = Array.of_list client.Predicate.paths;
    different_from;
    alive = Hashtbl.create 256;
    bindings = Hashtbl.create 64;
    negations;
    negated = [||];
    shard;
    recorder;
    server_vars = None;
    msg_var_ids = Hashtbl.create 64;
    field_var_ids = [];
    n_abandoned = 0;
    started;
  }

let hooks_of ctx =
  {
    Interp.on_constraint = (fun st c -> on_constraint ctx st c);
    Interp.on_fork = (fun ~parent ~child -> on_fork ctx ~parent ~child);
    Interp.on_send = (fun _ _ -> ());
    Interp.on_terminal = (fun st -> on_terminal ctx st);
  }

(* --- shard driver -----------------------------------------------------------

   The exploration tree is split into 2^split_bits route shards, the units
   of checkpoint and resume, explored one after another. A shard replays
   the shared spine (routes shorter than split_bits) and exclusively
   explores — and records — the subtrees matching its bit pattern, with its
   fresh-variable counter reset to the pre-search base, so every variable
   (message bytes, negation primes) gets the same id whatever the
   decomposition. The client-path negations are built once per run, by the
   first shard that needs them, and shared by the rest (see [negations]).
   The merge concatenates the disjoint event logs, sorts them by route
   (lexicographic route order = depth-first creation order), and renumbers
   state ids by route rank; everything except wall-clock timestamps is
   bit-identical across splits. A run without checkpoints is one shard (0
   split bits): no spine replay. *)

module String_set = Set.Make (String)

(* --- shard checkpoints ------------------------------------------------------

   Each completed shard's event log is flushed to its own file, written to a
   temporary name, fsynced, and renamed — atomic on POSIX — with the
   containing directory fsynced after the rename, so a run killed at any
   moment (including SIGKILL or power loss) leaves only whole, durable
   shard files behind. The payload carries its own digest: a torn or
   bit-rotted file is detected on load and treated as missing (the shard is
   re-explored with a warning), never trusted and never fatal. [resume]
   then re-explores exactly the missing shards: because every shard task
   replays the same fresh-variable base and owns disjoint routes, a merge
   of loaded and re-explored shards is indistinguishable from an
   uninterrupted run (the determinism guarantee extends across process
   boundaries). *)

let ckpt_magic = "ACHILLES-CKPT-3"

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

let shard_file dir idx =
  Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" idx)

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
let write_checkpoint_file ~file ~fingerprint ~idx (recorder, counter) =
  Obs.span Obs.Checkpoint_io @@ fun () ->
  if Obs.live () then
    Obs.emit ~kind:"checkpoint" ~name:"write" ~args:[ ("index", Obs.I idx) ] ();
  (* pid-qualified temp name: two analyze runs sharing one checkpoint dir
     must never interleave writes into one temp file *)
  let tmp = Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) idx in
  let failed reason =
    Printf.eprintf
      "achilles: warning: cannot write shard checkpoint %s (%s); a resume \
       will re-explore shard %d\n\
       %!"
      file reason idx;
    Obs.count "checkpoint.write_failed"
  in
  let payload = Marshal.to_string (recorder, counter) [] in
  match open_out_bin tmp with
  | exception Sys_error reason -> failed reason
  | oc -> (
      match
        Marshal.to_channel oc
          (ckpt_magic, fingerprint, idx, Digest.string payload, payload)
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

let write_shard_checkpoint ~dir ~fingerprint ~idx out =
  write_checkpoint_file ~file:(shard_file dir idx) ~fingerprint ~idx out

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
   fingerprint or index, short read, payload digest mismatch, Marshal
   failure — is treated as missing: the shard is recomputed. A killed or
   corrupted writer must degrade [--resume] to extra work, never crash it
   or poison the merge. A wrong fingerprint is no damage: the file is
   intact but was written by a run with another split or other options, so
   it is reported as stale rather than corrupt. *)
let load_checkpoint_file ~file ~fingerprint ~idx : (recorder * int) option =
  Obs.span Obs.Checkpoint_io @@ fun () ->
  if Obs.live () then
    Obs.emit ~kind:"checkpoint" ~name:"load" ~args:[ ("index", Obs.I idx) ] ();
  if not (Sys.file_exists file) then None
  else begin
    let ignored ~kind what reason =
      Printf.eprintf
        "achilles: warning: ignoring %s %s (%s); re-exploring shard %d\n%!"
        what file reason idx;
      Obs.count ("checkpoint." ^ kind);
      Obs.emit ~kind:"checkpoint" ~name:kind
        ~args:
          [
            ("index", Obs.I idx);
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
    | _, _, i, _, _ when i <> idx -> corrupt "shard index mismatch"
    | _, _, _, digest, payload when not (Digest.equal digest (Digest.string payload))
      ->
        corrupt "payload digest mismatch"
    | _, _, _, _, payload -> (
        match (Marshal.from_string payload 0 : recorder * int) with
        | r, c -> Some (rebuild_recorder r, c)
        | exception _ -> corrupt "payload unmarshal failure")
  end

let load_shard_checkpoint ~dir ~fingerprint ~idx =
  load_checkpoint_file ~file:(shard_file dir idx) ~fingerprint ~idx

(* A writer killed between creating its temp file and the rename leaves the
   temp behind; left alone, those accumulate and (worse) a matching-name
   temp from a dead pid could be confused for live work. Startup owns the
   directory (single run per dir), so any [*.tmp.*] is garbage by
   definition. *)
let clean_stale_tmp_files dir =
  Array.iter
    (fun name ->
      let full = Filename.concat dir name in
      let is_tmp =
        (* shard-NNNN.ckpt.tmp.<pid>.<idx> (and the pre-durability
           shard-NNNN.ckpt.tmp.<idx> form) *)
        match String.index_opt name '.' with
        | None -> false
        | Some _ ->
            String.length name > 4
            &&
            let rec find_sub i =
              if i + 5 > String.length name then false
              else if String.sub name i 5 = ".tmp." then true
              else find_sub (i + 1)
            in
            find_sub 0
      in
      if is_tmp && not (Sys.is_directory full) then begin
        Obs.count "checkpoint.stale_tmp_removed";
        (try Sys.remove full with Sys_error _ -> ())
      end)
    (try Sys.readdir dir with Sys_error _ -> [||])

let ensure_checkpoint_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Search: checkpoint dir %S is not a directory" dir)
  else clean_stale_tmp_files dir

let split_bits_of config =
  match config.split_bits with
  | Some b ->
      if b < 0 || b > 16 then invalid_arg "Search: split_bits out of [0,16]";
      b
  | None -> if config.checkpoint_dir <> None || config.resume then 2 else 0

(* Deterministic merge of disjoint shard event logs into a report:
   concatenate, sort by route (lexicographic route order = depth-first
   creation order), and renumber state ids by route rank. Every run ends
   here — which is what makes the final report digest independent of the
   split and resume history. [partial] logs (shards the cancel cut
   short) join the report but not the completed count. *)
let merge_outs ~total ~base ~started ~outs_resumed ~partial ~failed_shards
    ~interrupted ~abandoned =
  let outs = List.map fst outs_resumed @ partial in
  let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 outs in
  let slice_static, slice_cone = slice_counters () in
  let coverage =
    {
      total_shards = total;
      completed_shards = List.length outs_resumed;
      failed_shards;
      resumed_shards = List.length (List.filter snd outs_resumed);
      interrupted;
      unknown_alive = sum (fun r -> r.rec_unknown_alive);
      unknown_prune = sum (fun r -> r.rec_unknown_prune);
      unknown_witness = sum (fun r -> r.rec_unknown_witness);
      budget_exhaustions = sum (fun r -> r.rec_exhaustions);
      injected_faults = sum (fun r -> r.rec_faults);
      abandoned_states = abandoned;
      slice_static_branches = slice_static;
      slice_cone_queries = slice_cone;
    }
  in
  (* keep the counter ahead of every id any shard allocated, so later
     analyses cannot reuse ids live in this report *)
  let top = List.fold_left (fun acc (_, c) -> max acc c) base outs in
  Term.set_fresh_counter (max top (Term.fresh_counter_value ()));
  (* A whole-tree run assigns ids in depth-first creation order, and the
     interpreter forks true-branch first, so creation order is exactly the
     lexicographic order of routes. Rank = whole-tree id. *)
  let routes =
    List.fold_left
      (fun acc (r, _) ->
        List.fold_left (fun a rt -> String_set.add rt a) acc r.rec_routes)
      (String_set.singleton "") outs
  in
  let rank_of = Hashtbl.create (String_set.cardinal routes) in
  let next = ref 0 in
  String_set.iter
    (fun r ->
      Hashtbl.replace rank_of r !next;
      incr next)
    routes;
  let rank r = Hashtbl.find rank_of r in
  let by_route_then key_cmp get_route a b =
    match String.compare (get_route a) (get_route b) with
    | 0 -> key_cmp a b
    | c -> c
  in
  let cevents =
    List.concat_map (fun (r, _) -> r.rec_cevents) outs
    |> List.sort
         (by_route_then
            (fun a b -> compare a.ce_plen b.ce_plen)
            (fun e -> e.ce_route))
  in
  let trojans_sorted =
    List.concat_map (fun (r, _) -> r.rec_trojans) outs
    |> List.sort
         (by_route_then
            (fun a b -> compare a.wt_idx b.wt_idx)
            (fun t -> t.wt_route))
  in
  (* found_at is wall clock — the one field outside the determinism claim.
     Shards do not run in route order, so restore monotonicity along the
     merged (depth-first) order for the Figure-10 discovery curve. *)
  let _, trojans =
    List.fold_left_map
      (fun floor w ->
        let found_at = Float.max floor w.wt_found_at in
        ( found_at,
          {
            server_state_id = rank w.wt_route;
            accept_label = w.wt_label;
            witness = w.wt_witness;
            symbolic = w.wt_symbolic;
            msg_vars = w.wt_msg_vars;
            confirmed = w.wt_confirmed;
            found_at;
          } ))
      0. trojans_sorted
  in
  let accepting =
    List.concat_map (fun (r, _) -> r.rec_accepting) outs
    |> List.sort (by_route_then (fun _ _ -> 0) (fun a -> a.wa_route))
    |> List.map (fun a ->
           {
             Predicate.sp_state_id = rank a.wa_route;
             label = a.wa_label;
             msg_vars = a.wa_msg_vars;
             sp_constraints = a.wa_constraints;
           })
  in
  let drops =
    List.concat_map (fun (r, _) -> r.rec_drops) outs
    |> List.sort
         (by_route_then
            (fun a b -> compare (a.wd_plen, a.wd_ord) (b.wd_plen, b.wd_ord))
            (fun d -> d.wd_route))
    |> List.map (fun d ->
           {
             at_state = rank d.wd_route;
             dropped_path = d.wd_path;
             conflicting = d.wd_conflicting;
           })
  in
  let terminals = List.concat_map (fun (r, _) -> r.rec_terminals) outs in
  let count p = List.length (List.filter p terminals) in
  (* per §5.1, a server path that returns to the event loop without
     accepting rejected its message *)
  let stats =
    {
      accepting_paths =
        count (fun (_, s) -> match s with State.Accepted _ -> true | _ -> false);
      rejecting_paths =
        count (fun (_, s) ->
            match s with State.Rejected _ | State.Finished -> true | _ -> false);
      other_paths =
        count (fun (_, s) ->
            match s with State.Dropped | State.Crashed _ -> true | _ -> false);
      pruned_states =
        List.length (List.filter (fun e -> e.ce_pruned) cevents);
      forks = List.fold_left (fun acc (r, _) -> acc + r.rec_forks) 0 outs;
      alive_checks = List.fold_left (fun acc e -> acc + e.ce_checks) 0 cevents;
      transitive_drops =
        List.fold_left (fun acc e -> acc + e.ce_transitive) 0 cevents;
      alive_samples =
        List.map
          (fun e ->
            {
              state_id = rank e.ce_route;
              path_length = e.ce_plen;
              alive = e.ce_alive;
            })
          cevents;
      wall_time = Unix.gettimeofday () -. started;
    }
  in
  { trojans; accepting; drops; search_stats = stats; coverage }

(* Run one route shard: replay the fresh-variable id sequence from [base],
   explore the shard's subtrees, and return its event log, whether it ran
   to completion, and the states abandoned to cancellation. A log the
   cooperative cancel cut short is partial: it may be reported, but never
   checkpointed or counted as a completed shard. The shard installs
   [config.solver_budget] for its own queries and gives the caller its
   previous budget back. *)
let explore_shard ~config ~different_from ~negations ~client ~server ~bits
    ~base ~started idx =
  let shard = { Interp.shard_index = idx; Interp.shard_bits = bits } in
  Term.set_fresh_counter base;
  let solver_stats = Solver.stats () in
  let exhaustions0 = solver_stats.Solver.budget_exhaustions in
  let faults0 = solver_stats.Solver.injected_faults in
  let recorder = fresh_recorder () in
  let ctx =
    make_ctx ~config ~client ~different_from ~negations ~shard ~recorder
      ~started
  in
  let iconfig =
    {
      config.interp with
      Interp.shard = Some shard;
      (* fresh oracle per shard, as a resumed run that explores only this
         shard would have *)
      Interp.oracle =
        (if config.use_slice then Some (Slice.make_oracle ()) else None);
    }
  in
  let saved_budget = Solver.get_budget () in
  Solver.set_budget config.solver_budget;
  Fun.protect
    ~finally:(fun () -> Solver.set_budget saved_budget)
    (fun () ->
      Obs.span Obs.Server_se (fun () ->
          ignore (Interp.run ~config:iconfig ~hooks:(hooks_of ctx) server)));
  recorder.rec_exhaustions <-
    solver_stats.Solver.budget_exhaustions - exhaustions0;
  recorder.rec_faults <- solver_stats.Solver.injected_faults - faults0;
  ( (recorder, Term.fresh_counter_value ()),
    not (config.cancel ()),
    ctx.n_abandoned )

let run_shards ~config ~different_from ~client ~server ~started ~bits =
  let n_tasks = 1 lsl bits in
  let base = Term.fresh_counter_value () in
  let negations = negations () in
  let fingerprint =
    match config.checkpoint_dir with
    | Some dir ->
        ensure_checkpoint_dir dir;
        run_fingerprint ~bits ~config ~client ~server
    | None -> ""
  in
  let loaded =
    Array.init n_tasks (fun idx ->
        match config.checkpoint_dir with
        | Some dir when config.resume ->
            load_shard_checkpoint ~dir ~fingerprint ~idx
        | _ -> None)
  in
  let abandoned = ref 0 in
  (* A shard that raises (the [chaos] hook included) is recorded as failed
     and the others still run; only a resume recovers it. *)
  let explore idx =
    if Obs.live () then
      Obs.emit ~kind:"shard" ~name:"start" ~args:[ ("index", Obs.I idx) ] ();
    match
      (match config.chaos with Some hook -> hook idx | None -> ());
      if config.cancel () then `Missing
      else begin
        let out, complete, n_abandoned =
          explore_shard ~config ~different_from ~negations ~client ~server
            ~bits ~base ~started idx
        in
        abandoned := !abandoned + n_abandoned;
        if complete then begin
          (match config.checkpoint_dir with
          | Some dir -> write_shard_checkpoint ~dir ~fingerprint ~idx out
          | None -> ());
          if Obs.live () then
            Obs.emit ~kind:"shard" ~name:"done" ~args:[ ("index", Obs.I idx) ] ();
          `Done (out, false)
        end
        else begin
          if Obs.live () then
            Obs.emit ~kind:"shard" ~name:"cancelled"
              ~args:[ ("index", Obs.I idx) ]
              ();
          `Partial out
        end
      end
    with
    | result -> result
    | exception _ ->
        if Obs.live () then
          Obs.emit ~kind:"shard" ~name:"failed" ~args:[ ("index", Obs.I idx) ] ();
        `Failed
  in
  (* highest index first: a seeded fault-injected run replays its fault
     pattern only in a fixed shard order *)
  let results = Array.make n_tasks `Missing in
  for idx = n_tasks - 1 downto 0 do
    results.(idx) <-
      (match loaded.(idx) with
      | Some out -> `Done (out, true)
      | None -> explore idx)
  done;
  let results = Array.to_list results in
  merge_outs ~total:n_tasks ~base ~started
    ~outs_resumed:
      (List.filter_map (function `Done d -> Some d | _ -> None) results)
    ~partial:
      (List.filter_map (function `Partial out -> Some out | _ -> None) results)
    ~failed_shards:
      (List.concat
         (List.mapi (fun idx -> function `Failed -> [ idx ] | _ -> []) results))
    ~interrupted:(config.cancel ()) ~abandoned:!abandoned

let run ?(config = default_config) ?different_from ~client ~server () =
  if config.domains <> 1 then invalid_arg "Search: domains must be 1";
  let started = Unix.gettimeofday () in
  match split_bits_of config with
  | 0 ->
      (* one shard, whose own span covers the whole exploration *)
      run_shards ~config ~different_from ~client ~server ~started ~bits:0
  | bits ->
      (* one span around sharding and the merge; every shard opens its own
         nested span *)
      Obs.span Obs.Server_se (fun () ->
          run_shards ~config ~different_from ~client ~server ~started ~bits)

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

(* The shard-level surface of [run_shards], exposed for tests: explore one
   shard, persist or load its event log as a durable checkpoint file, and
   merge disjoint logs into the canonical report. Everything here is
   exactly what [run] uses, so the two cannot drift. *)
module Shards = struct
  type out = recorder * int

  let split_bits = split_bits_of
  let prepare_dir = ensure_checkpoint_dir

  type nonrec negations = negations

  let negations = negations

  let explore ~config ~different_from ~negations ~client ~server ~bits ~base
      ~started idx =
    let out, complete, abandoned =
      explore_shard ~config ~different_from ~negations ~client ~server ~bits
        ~base ~started idx
    in
    ((if complete then Some out else None), abandoned)

  let write = write_checkpoint_file
  let load = load_checkpoint_file
  let merge = merge_outs
end
