(* A symbolic execution state: symbolic store (scalars + buffers), path
   constraints, captured sends, and the terminal status. States are
   immutable; forking shares structure, and buffer writes copy the array. *)

open Achilles_smt
module String_map = Map.Make (String)

type status =
  | Running
  | Accepted of string (* reached a [Mark_accept] *)
  | Rejected of string (* reached a [Mark_reject] *)
  | Finished (* ran to completion / [Halt] / trailing [Receive] *)
  | Dropped (* [Drop_path] or infeasible [Assume] *)
  | Crashed of string (* runtime error or resource bound *)

type message = {
  dst : Term.t;
  payload : Term.t array; (* byte terms at the moment of the send *)
  path_at_send : Term.t list;
  during_analysis : bool;
      (* sent while handling the analyzed (fresh symbolic) message — i.e. a
         reply to it, as opposed to traffic from preloaded rounds *)
}

type t = {
  id : int;
  parent : int option;
  route : string;
      (* branch decisions ('0' = true-branch, '1' = false-branch) taken at
         two-sided forks on the way here; stable across runs and shard
         splits, unlike [id] which numbers states in creation order *)
  globals : Term.t String_map.t;
  buffers : Term.t array String_map.t;
  path : Term.t list; (* newest constraint first *)
  path_exact : bool;
      (* every conjunct on [path] was admitted with an exact [Sat] — the
         invariant the slice oracle's cone factorization relies on; turns
         false the first time a conjunct rides in on an [Unknown] *)
  depth : int; (* number of branch decisions on symbolic data *)
  sent : message list; (* newest first *)
  received : int; (* number of [Receive] statements executed *)
  incoming_queue : Term.t array list; (* messages pending for [Receive] *)
  msg_vars : Term.var array option; (* bytes of the fresh symbolic message *)
  input_vars : Term.var list;
  status : status;
}

let status_string = function
  | Running -> "running"
  | Accepted l -> "accepted:" ^ l
  | Rejected l -> "rejected:" ^ l
  | Finished -> "finished"
  | Dropped -> "dropped"
  | Crashed m -> "crashed:" ^ m

let is_terminal s = s.status <> Running

let constraints s = List.rev s.path

let pp fmt s =
  Format.fprintf fmt "@[<v>state %d (%s), depth %d@," s.id
    (status_string s.status) s.depth;
  List.iter (fun c -> Format.fprintf fmt "  %a@," Term.pp c) (constraints s);
  Format.fprintf fmt "@]"
