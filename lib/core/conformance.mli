(** The dual difference: {e lost} messages, [C \ S].

    Achilles looks for [S \ C] (accepted but not generable). The same
    machinery run the other way finds messages a correct client {e can}
    generate that every accepting server path rejects — interoperability
    gaps where the server's validation is stricter than the client's
    generation. Because accepting server path predicates are plain
    (existential-free) conjunctions over the message bytes, their negation
    needs no quantifier tricks: a lost message for client path [i] is a
    model of [bind(pathCi) /\ AND_j not(pathSj)].

    FSP exhibits the phenomenon out of the box: clients copy uninitialized
    trailing bytes into the payload, and the server rejects any message
    whose trailing bytes are not NUL-or-printable. *)

open Achilles_smt
open Achilles_symvm

type lost = {
  client_path : int; (* cp_id of the generating path *)
  witness : Bv.t array; (* a generable message every accepting path rejects *)
}

type report = {
  lost : lost list;
  accepting_paths : int; (* server accepting paths the check ran against *)
  client_paths : int;
  incomplete_paths : int;
      (* client paths whose enumeration the solver left undecided
         ([Unknown]): their lost messages may be incomplete *)
  wall_time : float;
}

val run :
  ?interp:Interp.config ->
  ?max_per_path:int ->
  client:Predicate.client_predicate ->
  server:Ast.program ->
  unit ->
  report
(** [max_per_path] (default 1) bounds the witnesses enumerated per client
    path (exact-byte blocking between solutions). *)

val pp_report : Layout.t -> Format.formatter -> report -> unit
