(** Symbolic execution states.

    A state is one point of the symbolic exploration: the symbolic store
    (scalar globals and byte buffers, all {!Achilles_smt.Term.t}s), the
    path constraints accumulated on the way here, the messages sent, and —
    once the path ends — a terminal status. States are immutable: forking
    shares structure and buffer writes copy. *)

open Achilles_smt
module String_map : Map.S with type key = string

type status =
  | Running
  | Accepted of string  (** reached a [Mark_accept] (or an auto-classifier) *)
  | Rejected of string  (** reached a [Mark_reject] (or an auto-classifier) *)
  | Finished  (** ran to completion / [Halt] / back at the event loop *)
  | Dropped  (** [Drop_path] or an infeasible [Assume] *)
  | Crashed of string  (** runtime error or resource bound *)

type message = {
  dst : Term.t;
  payload : Term.t array;  (** byte terms at the moment of the send *)
  path_at_send : Term.t list;
      (** the sender's path constraints (newest first) when it sent *)
  during_analysis : bool;
      (** sent while handling the analyzed (fresh symbolic) message, i.e. a
          reply to it, as opposed to traffic from preloaded rounds *)
}

type t = {
  id : int;  (** unique within a run; fork children get fresh ids *)
  parent : int option;
  route : string;
      (** branch decisions ('0' = true-branch, '1' = false-branch) taken at
          two-sided forks on the way here. The route names a state's position
          in the exploration tree independently of execution order; the
          sharded search assigns states to checkpoint shards by it. *)
  globals : Term.t String_map.t;
  buffers : Term.t array String_map.t;
  path : Term.t list;  (** path constraints, newest first *)
  depth : int;
      (** two-sided forks along this path on conditions that read a byte
          of the analyzed message (what [Interp.config.max_depth] bounds) *)
  sent : message list;  (** newest first *)
  received : int;  (** number of [Receive] statements executed *)
  incoming_queue : Term.t array list;  (** messages pending for [Receive] *)
  msg_vars : Term.var array option;
      (** the byte variables of the analyzed (fresh symbolic) message, once
          it has been received *)
  input_vars : Term.var list;  (** local inputs read, newest first *)
  status : status;
}

val status_string : status -> string
val is_terminal : t -> bool

val constraints : t -> Term.t list
(** Path constraints in the order they were added. *)


val pp : Format.formatter -> t -> unit
