(** Classic symbolic execution of the server, the paper's first baseline
    (§6.2, Table 1).

    Vanilla exploration enumerates the server's accepting paths and can then
    enumerate concrete accepted messages per path — but it has no notion of
    what clients can generate, so Trojan messages come out buried among
    valid ones. The experiments count how many of each a developer would
    have to sift through. *)

open Achilles_smt
open Achilles_core
open Achilles_symvm

type result = {
  accepting : Predicate.server_path list;
  rejecting_paths : int;
  explore_time : float;
}

val explore : ?config:Interp.config -> Ast.program -> result

type enumeration = {
  messages : (Bv.t array * float) list; (* message, seconds since start *)
  exhausted : bool;
      (* false when the per-path cap stopped enumeration, or the solver
         gave up ([Unknown]) on a path *)
  enumerate_time : float;
}

val enumerate :
  ?restrict:(Term.var array -> Term.t list) ->
  ?distinct_by:(Bv.t array -> Term.var array -> Term.t) ->
  max_per_path:int ->
  Predicate.server_path list ->
  enumeration
(** Enumerate concrete messages satisfying each accepting path, blocking
    each found message (or class, via [distinct_by]) before re-solving, in
    one {!Solver.enumerate} session per path.
    [restrict] adds constraints over the message bytes, e.g. a reduced
    alphabet that keeps the enumeration finite and comparable. *)
