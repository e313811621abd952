open Achilles_smt
module Obs = Achilles_obs.Obs
module String_map = State.String_map

exception Runtime_error of string

let runtime_error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Three-way feasibility verdict. [Feasible_exact] is a real [Sat]: the
   extended path is known satisfiable, preserving the invariant behind
   [State.path_exact]. [Feasible_unknown] keeps the path (conservative) but
   poisons exactness down the subtree. *)
type feasibility = Feasible_exact | Feasible_unknown | Infeasible

(* A feasibility oracle decides [path /\ cond] without (necessarily) paying
   for a full-path solver query — e.g. the slice oracle's cone
   factorization. Only consulted while [State.path_exact] holds, i.e. the
   path itself is known satisfiable; verdicts must coincide with what the
   scratch query over the full path would answer (modulo Unknown, which may
   only degrade toward [Feasible_unknown]). *)
type oracle = path:Term.t list -> Term.t -> feasibility

type config = {
  max_unroll : int;
  max_depth : int;
  max_states : int;
  feasibility_conflict_limit : int option;
  preload_messages : Term.t array list;
  initial_globals : (string * Term.t) list;
  initial_path : Term.t list;
  auto_classify : (State.t -> State.status option) option;
      (* reclassify paths that end back at the event loop without an
         explicit marker (status [Finished]) — §5.1's automatic
         accept/reject detection *)
  skip_route : (string -> bool) option;
      (* when set, fork children whose route it accepts are not explored
         (a resumed search skips subtrees its checkpoints already hold) *)
  oracle : oracle option;
      (* feasibility oracle for branch/assume checks on exact paths; when
         set, [max_depth] also counts only message-tainted decisions *)
}

let default_config =
  {
    max_unroll = 64;
    max_depth = 256;
    max_states = 100_000;
    feasibility_conflict_limit = None;
    preload_messages = [];
    initial_globals = [];
    initial_path = [];
    auto_classify = None;
    skip_route = None;
    oracle = None;
  }

(* §5.1's default heuristic: a handler that replied to the analyzed message
   accepted it; one that silently returned to its event loop rejected it. *)
let classify_by_reply (st : State.t) =
  if st.State.msg_vars = None then None
  else if
    List.exists (fun (m : State.message) -> m.State.during_analysis) st.State.sent
  then Some (State.Accepted "auto:reply")
  else Some (State.Rejected "auto:no-reply")

(* The HTTP-style extension: classify by a status byte of the reply. Paths
   whose status byte is not a compile-time constant are left unclassified
   (conservative). *)
let classify_by_status ~offset ~accept (st : State.t) =
  if st.State.msg_vars = None then None
  else
    match
      List.find_opt
        (fun (m : State.message) -> m.State.during_analysis)
        st.State.sent
    with
    | None -> Some (State.Rejected "auto:no-reply")
    | Some reply when offset < Array.length reply.State.payload -> (
        match Term.const_value reply.State.payload.(offset) with
        | Some code ->
            let code = Bv.to_int code in
            if accept code then
              Some (State.Accepted (Printf.sprintf "auto:status-%d" code))
            else Some (State.Rejected (Printf.sprintf "auto:status-%d" code))
        | None -> None)
    | Some _ -> None

type hooks = {
  on_constraint : State.t -> Term.t -> bool;
  on_fork : parent:State.t -> child:State.t -> unit;
  on_send : State.t -> State.message -> unit;
  on_terminal : State.t -> unit;
}

let default_hooks =
  {
    on_constraint = (fun _ _ -> true);
    on_fork = (fun ~parent:_ ~child:_ -> ());
    on_send = (fun _ _ -> ());
    on_terminal = (fun _ -> ());
  }

type run_stats = {
  mutable states_created : int;
  mutable forks : int;
  mutable pruned : int;
  mutable truncated_depth : int;
  mutable truncated_unroll : int;
  mutable truncated_states : int;
}

let truncated s = s.truncated_depth + s.truncated_unroll + s.truncated_states

type run = { terminals : State.t list; stats : run_stats }

type ctx = {
  program : Ast.program;
  config : config;
  hooks : hooks;
  stats : run_stats;
  mutable next_id : int;
}

type locals = Term.t String_map.t

type exit = Fall | Ret of Term.t option | End

(* Execution is a lazy sequence of outcomes: a fork's true child and its
   whole subtree are forced (and numbered) before the false child is even
   created. That makes state creation order exactly the depth-first
   pre-order of the exploration tree — i.e. the lexicographic order of
   routes. That lets the search finish a checkpoint shard as soon as the
   walk leaves its route prefix, and number a shard's states by creation
   order whichever walk reached them, so its merge is a concatenation. It
   also keeps only one path's frontier live at a time instead of
   materializing every pending sibling eagerly. *)
type outcomes = (State.t * locals * exit) Seq.t

(* --- value coercion -------------------------------------------------------- *)

let as_bool t =
  match Term.sort_of t with
  | Term.Bool -> t
  | Term.Bitvec w -> Term.neq t (Term.int ~width:w 0)

let as_bv t =
  match Term.sort_of t with
  | Term.Bitvec _ -> t
  | Term.Bool -> Term.ite t (Term.int ~width:1 1) (Term.int ~width:1 0)

let harmonize ~signed a b =
  let a = as_bv a and b = as_bv b in
  let wa = Term.width_of a and wb = Term.width_of b in
  if wa = wb then (a, b)
  else
    let extend ~by t =
      if signed then Term.sign_extend ~by t else Term.zero_extend ~by t
    in
    if wa < wb then (extend ~by:(wb - wa) a, b) else (a, extend ~by:(wa - wb) b)

(* --- expression evaluation -------------------------------------------------- *)

let lookup_var st (locals : locals) name =
  match String_map.find_opt name locals with
  | Some t -> Some t
  | None -> String_map.find_opt name st.State.globals

let get_buffer st name =
  match String_map.find_opt name st.State.buffers with
  | Some b -> b
  | None -> runtime_error "unknown buffer %s" name

let load_byte st name offset =
  let buffer = get_buffer st name in
  let n = Array.length buffer in
  match Term.const_value offset with
  | Some bv ->
      let i = Bv.to_int bv in
      if i < 0 || i >= n then
        runtime_error "out-of-bounds read %s[%d] (size %d)" name i n
      else buffer.(i)
  | None ->
      (* symbolic index: mux over every cell; out-of-range reads as 0, which
         models a safe-but-unchecked memory (the accept/reject structure,
         not the loaded value, is what the analysis consumes) *)
      let w = Term.width_of offset in
      let rec mux i =
        if i = n then Term.int ~width:8 0
        else
          Term.ite
            (Term.eq offset (Term.int ~width:w i))
            buffer.(i) (mux (i + 1))
      in
      mux 0

let rec eval ctx st (locals : locals) (e : Ast.expr) : Term.t =
  match e with
  | Num { value; width } -> Term.int ~width value
  | Var name -> (
      match lookup_var st locals name with
      | Some t -> t
      | None -> runtime_error "unbound variable %s" name)
  | Load (buf, off) -> load_byte st buf (as_bv (eval ctx st locals off))
  | Len buf -> Term.int ~width:32 (Array.length (get_buffer st buf))
  | Unop (op, a) -> (
      let t = eval ctx st locals a in
      match op with
      | Ast.Not -> Term.not_ (as_bool t)
      | Ast.Bnot -> Term.bnot (as_bv t)
      | Ast.Neg -> Term.neg (as_bv t))
  | Binop (op, a, b) -> (
      let ta = eval ctx st locals a and tb = eval ctx st locals b in
      let u f = let x, y = harmonize ~signed:false ta tb in f x y in
      let s f = let x, y = harmonize ~signed:true ta tb in f x y in
      match op with
      | Ast.Add -> u Term.add
      | Ast.Sub -> u Term.sub
      | Ast.Mul -> u Term.mul
      | Ast.Udiv -> u Term.udiv
      | Ast.Urem -> u Term.urem
      | Ast.And -> Term.and_ (as_bool ta) (as_bool tb)
      | Ast.Or -> Term.or_ (as_bool ta) (as_bool tb)
      | Ast.Band -> u Term.band
      | Ast.Bor -> u Term.bor
      | Ast.Bxor -> u Term.bxor
      | Ast.Shl -> u Term.shl
      | Ast.Lshr -> u Term.lshr
      | Ast.Ashr -> s Term.ashr
      | Ast.Eq -> u Term.eq
      | Ast.Ne -> u Term.neq
      | Ast.Ult -> u Term.ult
      | Ast.Ule -> u Term.ule
      | Ast.Ugt -> u Term.ugt
      | Ast.Uge -> u Term.uge
      | Ast.Slt -> s Term.slt
      | Ast.Sle -> s Term.sle
      | Ast.Sgt -> s Term.sgt
      | Ast.Sge -> s Term.sge)
  | Cast (width, a) -> Term.resize_unsigned ~width (as_bv (eval ctx st locals a))

(* --- state helpers ----------------------------------------------------------- *)

(* Is [cond] consistent with the state's path? It rides the shared
   incremental context, as the search's alive, prune and witness queries
   do: the frame stack is synced to the state's path prefix (shared with
   the sibling branch and every ancestor check) and only [cond] itself is
   new. With incremental solving off ([Solver.set_incremental false], the
   reference route) it is the scratch query [check (cond :: path)]. *)
let feasible ctx (st : State.t) cond =
  match ctx.config.oracle with
  | Some oracle when st.State.path_exact -> oracle ~path:st.State.path cond
  | _ -> (
      Obs.count "interp.feasibility_queries";
      match
        Solver.check_assuming ~site:"feasibility"
          ?conflict_limit:ctx.config.feasibility_conflict_limit
          ~path:st.State.path [ cond ]
      with
      | Solver.Sat _ -> Feasible_exact
      | Solver.Unsat -> Infeasible
      | Solver.Unknown -> Feasible_unknown (* conservative: keep exploring *))

(* Record the exactness of the verdict that admitted a conjunct: once a path
   carries an Unknown-admitted constraint it is no longer known satisfiable
   and the oracle's factorization argument stops applying below it. *)
let mark_exactness (st : State.t) = function
  | Feasible_unknown when st.State.path_exact ->
      { st with State.path_exact = false }
  | _ -> st

(* Does the condition read any byte of the analyzed message? Sorted-list
   intersection over the memoized distinct-var-id lists. *)
let message_tainted (st : State.t) cond =
  match st.State.msg_vars with
  | None -> false
  | Some vars ->
      let n = Array.length vars in
      n > 0
      &&
      let lo = vars.(0).Term.id and hi = vars.(n - 1).Term.id in
      (* msg vars are allocated as one consecutive run at the Receive *)
      List.exists (fun id -> id >= lo && id <= hi) (Term.var_ids cond)

let finish ctx (st : State.t) status =
  let status =
    match status, ctx.config.auto_classify with
    | State.Finished, Some classify -> (
        match classify st with Some s -> s | None -> State.Finished)
    | _ -> status
  in
  let st = { st with State.status } in
  ctx.hooks.on_terminal st;
  st

(* Resource-bound cuts, labeled so traces can attribute which bound bites.
   The crash reason strings are part of terminal-state identity and must
   not change. *)
let truncate ctx st kind =
  let reason =
    match kind with
    | `Depth ->
        ctx.stats.truncated_depth <- ctx.stats.truncated_depth + 1;
        Obs.count "interp.truncated_depth";
        "max-depth"
    | `Unroll ->
        ctx.stats.truncated_unroll <- ctx.stats.truncated_unroll + 1;
        Obs.count "interp.truncated_unroll";
        "max-unroll"
    | `States ->
        ctx.stats.truncated_states <- ctx.stats.truncated_states + 1;
        Obs.count "interp.truncated_states";
        "max-states"
  in
  finish ctx st (State.Crashed reason)

let set_global (st : State.t) name t =
  { st with State.globals = String_map.add name t st.State.globals }

let assign_var (st : State.t) (locals : locals) name t =
  (* a name declared as a program global updates the state; anything else is
     a frame-local binding (created on first assignment) *)
  if String_map.mem name st.State.globals then (set_global st name t, locals)
  else (st, String_map.add name t locals)

(* Append a constraint and run the pruning hook. *)
let add_constraint ctx (st : State.t) cond =
  let st = { st with State.path = cond :: st.State.path } in
  if ctx.hooks.on_constraint st cond then Some st
  else begin
    ctx.stats.pruned <- ctx.stats.pruned + 1;
    ignore (finish ctx st State.Dropped);
    None
  end

let fork_child ctx (parent : State.t) route =
  ctx.next_id <- ctx.next_id + 1;
  ctx.stats.states_created <- ctx.stats.states_created + 1;
  let child =
    {
      parent with
      State.id = ctx.next_id;
      State.parent = Some parent.State.id;
      State.route = route;
    }
  in
  ctx.hooks.on_fork ~parent ~child;
  child

(* Branch on a boolean term. [ift] and [iff] continue execution from the
   constrained state. *)
let branch ctx (st : State.t) cond ift iff : outcomes =
  match Term.bool_value cond with
  | Some true -> ift st
  | Some false -> iff st
  | None -> (
      let t_verdict = feasible ctx st cond in
      let f_verdict = feasible ctx st (Term.not_ cond) in
      let one_sided verdict cond side =
        match add_constraint ctx (mark_exactness st verdict) cond with
        | Some st -> side st
        | None -> Seq.empty
      in
      match t_verdict, f_verdict with
      | Infeasible, Infeasible ->
          (* the current path was already infeasible; treat as dropped *)
          Seq.return (finish ctx st State.Dropped, String_map.empty, End)
      | Infeasible, f_verdict -> one_sided f_verdict (Term.not_ cond) iff
      | t_verdict, Infeasible -> one_sided t_verdict cond ift
      | t_verdict, f_verdict ->
          (* With an oracle installed, only message-tainted decisions spend
             depth budget: untainted forks (local/config state) are the ones
             slicing makes cheap, so they must not starve the interesting
             depth. Without an oracle, every fork counts, as before. *)
          let next_depth =
            if ctx.config.oracle <> None && not (message_tainted st cond) then
              st.State.depth
            else st.State.depth + 1
          in
          if next_depth > ctx.config.max_depth then
            Seq.return (truncate ctx st `Depth, String_map.empty, End)
          else if ctx.stats.states_created + 2 > ctx.config.max_states then
            Seq.return (truncate ctx st `States, String_map.empty, End)
          else begin
            ctx.stats.forks <- ctx.stats.forks + 1;
            let continue side verdict cond bit : outcomes =
             fun () ->
              (* deferred to forcing time: the true subtree is explored
                 (and numbered) in full before this child even exists *)
              let route = st.State.route ^ bit in
              match ctx.config.skip_route with
              | Some skip when skip route -> Seq.Nil
              | _ -> (
                let child = fork_child ctx st route in
                let child = { child with State.depth = next_depth } in
                let child = mark_exactness child verdict in
                match add_constraint ctx child cond with
                | Some child -> side child ()
                | None -> Seq.Nil)
            in
            Seq.append
              (continue ift t_verdict cond "0")
              (continue iff f_verdict (Term.not_ cond) "1")
          end)

(* --- statement execution ------------------------------------------------------ *)

let rec exec_block ctx st (locals : locals) (block : Ast.block) : outcomes =
  match block with
  | [] -> Seq.return (st, locals, Fall)
  | stmt :: rest ->
      exec_stmt ctx st locals stmt
      |> Seq.concat_map (fun ((st : State.t), locals, exit) ->
             match exit with
             | Fall when st.State.status = State.Running ->
                 exec_block ctx st locals rest
             | _ -> Seq.return (st, locals, exit))

and exec_stmt ctx (st : State.t) (locals : locals) (stmt : Ast.stmt) : outcomes
    =
  protect ctx st locals (fun () -> exec_stmt_unsafe ctx st locals stmt ())

(* Statement execution is lazy, so a [Runtime_error] surfaces while the
   resulting sequence is being forced, not while [exec_stmt_unsafe] builds
   it. Guard every forcing step and turn the error into a crashed terminal
   for the pre-statement state, like the eager interpreter did. *)
and protect ctx (st : State.t) (locals : locals) (s : outcomes) : outcomes =
 fun () ->
  try
    match s () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) -> Seq.Cons (x, protect ctx st locals rest)
  with Runtime_error msg ->
    Seq.Cons ((finish ctx st (State.Crashed msg), locals, End), Seq.empty)

and exec_stmt_unsafe ctx (st : State.t) (locals : locals) (stmt : Ast.stmt) :
    outcomes =
  match stmt with
  | Assign (name, e) ->
      let t = eval ctx st locals e in
      let st, locals = assign_var st locals name t in
      Seq.return (st, locals, Fall)
  | Store (buf, off, value) ->
      let offset = as_bv (eval ctx st locals off) in
      let value = Term.resize_unsigned ~width:8 (as_bv (eval ctx st locals value)) in
      let buffer = get_buffer st buf in
      let n = Array.length buffer in
      let buffer' =
        match Term.const_value offset with
        | Some bv ->
            let i = Bv.to_int bv in
            if i < 0 || i >= n then
              runtime_error "out-of-bounds write %s[%d] (size %d)" buf i n;
            let b = Array.copy buffer in
            b.(i) <- value;
            b
        | None ->
            let w = Term.width_of offset in
            Array.mapi
              (fun i old ->
                Term.ite (Term.eq offset (Term.int ~width:w i)) value old)
              buffer
      in
      let st =
        { st with State.buffers = String_map.add buf buffer' st.State.buffers }
      in
      Seq.return (st, locals, Fall)
  | If (c, tb, fb) ->
      let cond = as_bool (eval ctx st locals c) in
      branch ctx st cond
        (fun st -> exec_block ctx st locals tb)
        (fun st -> exec_block ctx st locals fb)
  | Switch (e, cases, default) ->
      let scrutinee = as_bv (eval ctx st locals e) in
      let w = Term.width_of scrutinee in
      let rec try_cases st = function
        | [] -> exec_block ctx st locals default
        | (k, blk) :: rest ->
            let cond = Term.eq scrutinee (Term.int ~width:w k) in
            branch ctx st cond
              (fun st -> exec_block ctx st locals blk)
              (fun st -> try_cases st rest)
      in
      try_cases st cases
  | While (c, body) -> exec_while ctx st locals c body ctx.config.max_unroll
  | Call { proc; args; result } -> (
      match Ast.find_proc ctx.program proc with
      | None -> runtime_error "unknown procedure %s" proc
      | Some p ->
          let bind frame (param, width) arg =
            let t = eval ctx st locals arg in
            String_map.add param
              (Term.resize_unsigned ~width (as_bv t))
              frame
          in
          let frame = List.fold_left2 bind String_map.empty p.Ast.params args in
          exec_block ctx st frame p.Ast.body
          |> Seq.concat_map (fun ((st : State.t), _frame, exit) ->
                 match exit with
                 | End -> Seq.return (st, locals, End)
                 | Fall | Ret None -> (
                     match result with
                     | None -> Seq.return (st, locals, Fall)
                     | Some _ ->
                         runtime_error "procedure %s returned no value" proc)
                 | Ret (Some value) -> (
                     match result with
                     | None -> Seq.return (st, locals, Fall)
                     | Some var ->
                         let st, locals = assign_var st locals var value in
                         Seq.return (st, locals, Fall))))
  | Return e ->
      let value = Option.map (fun e -> eval ctx st locals e) e in
      Seq.return (st, locals, Ret value)
  | Receive buf -> (
      let buffer = get_buffer st buf in
      let n = Array.length buffer in
      match st.State.incoming_queue with
      | msg :: rest ->
          if Array.length msg <> n then
            runtime_error "receive: message size %d does not match buffer %s (%d)"
              (Array.length msg) buf n;
          let st =
            {
              st with
              State.buffers = String_map.add buf (Array.copy msg) st.State.buffers;
              State.incoming_queue = rest;
              State.received = st.State.received + 1;
            }
          in
          Seq.return (st, locals, Fall)
      | [] ->
          if st.State.msg_vars <> None then
            (* the analyzed message was already delivered: the node is back
               at its event loop, which ends the path *)
            Seq.return (finish ctx st State.Finished, locals, End)
          else begin
            let vars =
              Array.init n (fun i ->
                  Term.fresh_var ~name:(Printf.sprintf "%s[%d]" buf i)
                    (Term.Bitvec 8))
            in
            let bytes = Array.map Term.var vars in
            let st =
              {
                st with
                State.buffers = String_map.add buf bytes st.State.buffers;
                State.received = st.State.received + 1;
                State.msg_vars = Some vars;
              }
            in
            Seq.return (st, locals, Fall)
          end)
  | Send { dst; buf } ->
      let dst = as_bv (eval ctx st locals dst) in
      let payload = Array.copy (get_buffer st buf) in
      let message =
        {
          State.dst;
          State.payload;
          State.path_at_send = st.State.path;
          State.during_analysis = st.State.msg_vars <> None;
        }
      in
      let st = { st with State.sent = message :: st.State.sent } in
      ctx.hooks.on_send st message;
      Seq.return (st, locals, Fall)
  | Read_input (name, width) ->
      let var = Term.fresh_var ~name (Term.Bitvec width) in
      let st = { st with State.input_vars = var :: st.State.input_vars } in
      let st, locals = assign_var st locals name (Term.var var) in
      Seq.return (st, locals, Fall)
  | Make_symbolic (name, width) ->
      let var = Term.fresh_var ~name (Term.Bitvec width) in
      let st = { st with State.input_vars = var :: st.State.input_vars } in
      let st, locals = assign_var st locals name (Term.var var) in
      Seq.return (st, locals, Fall)
  | Make_buffer_symbolic buf ->
      let buffer = get_buffer st buf in
      let vars =
        Array.init (Array.length buffer) (fun i ->
            Term.fresh_var ~name:(Printf.sprintf "%s[%d]" buf i) (Term.Bitvec 8))
      in
      let st =
        {
          st with
          State.buffers =
            String_map.add buf (Array.map Term.var vars) st.State.buffers;
          State.input_vars =
            Array.to_list vars @ st.State.input_vars;
        }
      in
      Seq.return (st, locals, Fall)
  | Assume e -> (
      let cond = as_bool (eval ctx st locals e) in
      match Term.bool_value cond with
      | Some true -> Seq.return (st, locals, Fall)
      | Some false -> Seq.return (finish ctx st State.Dropped, locals, End)
      | None -> (
          match feasible ctx st cond with
          | Infeasible -> Seq.return (finish ctx st State.Dropped, locals, End)
          | verdict -> (
              match add_constraint ctx (mark_exactness st verdict) cond with
              | Some st -> Seq.return (st, locals, Fall)
              | None -> Seq.empty)))
  | Drop_path -> Seq.return (finish ctx st State.Dropped, locals, End)
  | Mark_accept label ->
      (* accept/reject markers classify the handling of the analyzed
         (fresh symbolic) message; while earlier preloaded rounds are being
         replayed they are inert and the node continues its event loop *)
      if st.State.received > 0 && st.State.msg_vars = None then
        Seq.return (st, locals, Fall)
      else Seq.return (finish ctx st (State.Accepted label), locals, End)
  | Mark_reject label ->
      if st.State.received > 0 && st.State.msg_vars = None then
        Seq.return (st, locals, Fall)
      else Seq.return (finish ctx st (State.Rejected label), locals, End)
  | Halt -> Seq.return (finish ctx st State.Finished, locals, End)
  | Abort reason -> Seq.return (finish ctx st (State.Crashed reason), locals, End)

and exec_while ctx st locals c body budget =
  if budget = 0 then Seq.return (truncate ctx st `Unroll, locals, End)
  else
    let cond = as_bool (eval ctx st locals c) in
    branch ctx st cond
      (fun st ->
        exec_block ctx st locals body
        |> Seq.concat_map (fun ((st : State.t), locals, exit) ->
               match exit with
               | Fall when st.State.status = State.Running ->
                   exec_while ctx st locals c body (budget - 1)
               | _ -> Seq.return (st, locals, exit)))
      (fun st -> Seq.return (st, locals, Fall))

(* --- program entry -------------------------------------------------------------- *)

let initial_state ctx =
  let program = ctx.program in
  let globals =
    List.fold_left
      (fun m (name, width) -> String_map.add name (Term.int ~width 0) m)
      String_map.empty program.Ast.globals
  in
  let globals =
    List.fold_left
      (fun m (name, t) ->
        if not (String_map.mem name m) then
          runtime_error "initial_globals: %s is not a program global" name;
        String_map.add name t m)
      globals ctx.config.initial_globals
  in
  let buffers =
    List.fold_left
      (fun m (name, size) ->
        String_map.add name (Array.make size (Term.int ~width:8 0)) m)
      String_map.empty program.Ast.buffers
  in
  {
    State.id = 0;
    parent = None;
    route = "";
    globals;
    buffers;
    path = List.rev ctx.config.initial_path;
    (* [initial_path] is satisfiable by construction (concrete-run prefixes
       and havoc bounds), which is what seeds the oracle's invariant *)
    path_exact = true;
    depth = 0;
    sent = [];
    received = 0;
    incoming_queue = ctx.config.preload_messages;
    msg_vars = None;
    input_vars = [];
    status = State.Running;
  }

let run ?(config = default_config) ?(hooks = default_hooks) program =
  let stats =
    {
      states_created = 1;
      forks = 0;
      pruned = 0;
      truncated_depth = 0;
      truncated_unroll = 0;
      truncated_states = 0;
    }
  in
  let ctx = { program; config; hooks; stats; next_id = 0 } in
  let st = initial_state ctx in
  let outcomes = exec_block ctx st String_map.empty program.Ast.main in
  (* forcing the sequence here is what actually runs the exploration, in
     strict depth-first order *)
  let terminals =
    List.of_seq
      (Seq.map
         (fun ((st : State.t), _locals, _exit) ->
           if State.is_terminal st then st else finish ctx st State.Finished)
         outcomes)
  in
  { terminals; stats }
