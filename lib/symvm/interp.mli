(** The forking symbolic interpreter for the protocol DSL.

    Executes a {!Ast.program} on symbolic inputs. [Read_input] produces
    fresh symbolic variables (the client's "local input" in the paper);
    [Receive] fills the buffer from the configured queue of incoming
    symbolic messages, then — once the queue is exhausted — with one fresh
    unconstrained symbolic message, and finally terminates the path (the
    paper's "execution path ends when the server listens for new events").

    [Mark_accept] / [Mark_reject] classify how the {e analyzed} (fresh
    symbolic) message is handled: they terminate the path once that message
    has been delivered. While preloaded local-state rounds are still being
    replayed they are inert, so a server written as an event loop runs its
    earlier rounds through the same handler code.

    Branches whose condition is symbolic query the SMT solver for the
    feasibility of each side ([Solver.check_assuming] at site
    ["feasibility"], on the frame context) and fork accordingly; an
    [Unknown] answer keeps the side. Hooks observe constraint
    additions, forks, sends and terminal states, and can prune states — this
    is how the Achilles search drops server paths that no Trojan message can
    trigger. *)

open Achilles_smt

type config = {
  max_unroll : int; (* loop iterations per [While] per path *)
  max_depth : int;
      (* two-sided forks per path on conditions that read a byte of the
         analyzed message; forks on local or configuration state are free *)
  max_states : int; (* total states created per run *)
  feasibility_conflict_limit : int option;
      (* optional SAT budget for branch feasibility; [Unknown] counts as
         feasible, preserving soundness of exploration *)
  preload_messages : Term.t array list;
      (* messages handed to the first [Receive]s, for local-state modes *)
  initial_globals : (string * Term.t) list;
      (* overrides of globals' initial (zero) values, e.g. concrete local
         state built by a previous run *)
  initial_path : Term.t list;
      (* constraints assumed before execution starts, e.g. the client path
         constraints attached to a preloaded symbolic message *)
  auto_classify : (State.t -> State.status option) option;
      (* reclassify paths ending with status [Finished] (back at the event
         loop with no explicit marker) — §5.1's automatic accept/reject
         detection; [None] from the classifier keeps [Finished] *)
  skip_route : (string -> bool) option;
      (* when set, a fork child whose route (its fork decisions, ['0'] for
         the true side) the predicate accepts is not created, and its
         subtree is not explored; [None] explores everything *)
  oracle : unit option;
      (* read by nothing. It stays only because the benchmark harness
         (perfbench/analysis.ml) still sets it; it goes with the
         benchmark's next change. *)
}

val default_config : config

val classify_by_reply : State.t -> State.status option
(** §5.1's default heuristic: replying to the analyzed message means the
    path accepted it; silently returning to the event loop means it was
    rejected. *)

val classify_by_status :
  offset:int -> accept:(int -> bool) -> State.t -> State.status option
(** The HTTP-style extension of §5.1: classify by a constant status byte of
    the reply (e.g. [accept = fun c -> c / 100 = 2] for 2xx codes). Replies
    whose status byte is symbolic stay [Finished]. *)

type hooks = {
  on_constraint : State.t -> Term.t -> bool;
      (* a constraint was appended to the state's path; return [false] to
         prune the state (it ends with status [Dropped]) *)
  on_fork : parent:State.t -> child:State.t -> unit;
  on_send : State.t -> State.message -> unit;
  on_terminal : State.t -> unit;
}

val default_hooks : hooks

type run_stats = {
  mutable states_created : int;
  mutable forks : int;
  mutable pruned : int; (* states dropped by [on_constraint] *)
  mutable truncated_depth : int; (* paths cut by [max_depth] *)
  mutable truncated_unroll : int; (* loops cut by [max_unroll] *)
  mutable truncated_states : int; (* forks refused by [max_states] *)
}

val truncated : run_stats -> int
(** Total paths cut by any resource bound (the pre-split lump sum). The
    per-bound counters are also surfaced as [Obs] counters
    [interp.truncated_depth] / [_unroll] / [_states]. *)

type run = { terminals : State.t list; stats : run_stats }

val run : ?config:config -> ?hooks:hooks -> Ast.program -> run
(** Explore the program exhaustively (within bounds) and return all terminal
    states in exploration (depth-first) order. *)
