(** Client and server path predicates (the paper's [pathCi] and [pathS]).

    A client path predicate captures one execution path of a client that
    sends a message: the message's byte terms (expressions over the client's
    symbolic inputs) plus the path constraints under which it is sent. The
    client predicate [PC] is the disjunction of all client path predicates.

    A server path predicate is the conjunction of path constraints over the
    bytes of the symbolic received message. The server predicate [PS] is the
    disjunction of the accepting server paths. *)

open Achilles_smt
open Achilles_symvm

type client_path = {
  cp_id : int; (* index within the client predicate *)
  source : string; (* which client program produced it *)
  message : Term.t array; (* byte terms, one per message byte *)
  constraints : Term.t list; (* path constraints at the send *)
}

type client_predicate = {
  layout : Layout.t;
  paths : client_path list; (* cp_id = position in this list *)
}

type server_path = {
  sp_state_id : int;
  label : string; (* the accept marker's label *)
  msg_vars : Term.var array; (* the symbolic message bytes *)
  sp_constraints : Term.t list;
}

val client_path_count : client_predicate -> int

val bind_to_server :
  server_vars:Term.var array -> client_path -> Term.t list
(** The paper's message-equality binding: the client path constraints plus
    one equality per byte between the server's symbolic message bytes and
    the client's message byte expressions ([msgS = msgC]). *)

val refuter :
  server_vars:Term.var array -> client_path -> Term.t -> bool
(** [refuter ~server_vars path t]: does [t] fold to false once each server
    message byte is replaced by the client's byte term and the client's path
    constraints are read as facts ({!Achilles_smt.Elim.refuter})? Then
    [t /\ bind_to_server ~server_vars path] is unsatisfiable. [false]
    proves nothing. Partial application builds the substitution once; the
    closure memoises every term it rewrites. *)

val field_vars : Layout.t -> client_path -> string -> int list
(** Ids of the client input variables that feed the given field's bytes. *)

val constraints_mentioning : client_path -> int list -> Term.t list
(** Path constraints that mention at least one of the given variable ids. *)

val independent_fields : ?mask:string list -> client_predicate -> string list
(** Fields whose variables never share a constraint with another field's
    variables, in any client path — the fields for which the differentFrom
    matrix may be computed (§3.3). [mask] restricts to the analyzed
    fields. *)

val analyzed_fields : ?mask:string list -> Layout.t -> Layout.field list
(** The fields under analysis: all layout fields, or the mask subset. *)

val pp_client_path : Layout.t -> Format.formatter -> client_path -> unit
val pp_client_predicate : Format.formatter -> client_predicate -> unit
