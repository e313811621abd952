(** The bundled target systems, one entry each. The CLI, the experiment
    harness and the tests all analyse a target through its entry, so every
    harness runs the same FSP, PBFT, ...; a new bundled target is one more
    entry here.

    Everything an entry builds is a thunk, so nothing is built at module
    load. An interpreter configuration may allocate fresh variables
    ({!Achilles_core.Local_state.over_approximate} gives PBFT's [last_rid]
    one), so it is built where a run starts, after that run resets
    {!Achilles_smt.Term.reset_fresh_counter}. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core

type t = {
  name : string;
  description : string;
  layout : Layout.t;
  clients : unit -> Ast.program list;
  server : unit -> Ast.program;
  mask : string list option;  (** the recommended analysis mask *)
  distinct_by : (Bv.t array -> Term.var array -> Term.t) option;
      (** {!Search.config.distinct_by} *)
  interp : unit -> Interp.config;  (** the server analysis' interpreter *)
  client_interp : (unit -> Interp.config) option;
      (** client extraction's interpreter, when it differs from
          {!Interp.default_config} (a concrete local-state scenario for the
          clients) *)
}

val rw : t
val fsp : t
val fsp_glob : t

val fsp_wide : t
(** FSP with 24 utilities ({!Fsp_model.extended_commands}), the §6.4
    stress scale. *)

val pbft : t
val paxos : t
val kv : t
val gossip : t

val all : t list
(** Every entry, in [achilles list] order. *)

val find : string -> t option

val search_config : ?witnesses:int -> t -> Search.config
(** {!Search.default_config} with the entry's mask, [distinct_by] and a
    freshly built [interp] (and [witnesses] per path when given). *)

val client_config : t -> Interp.config
(** A freshly built client interpreter: [client_interp], or
    {!Interp.default_config} when the entry has none. *)

val analyze : ?config:Search.config -> t -> Achilles.analysis
(** {!Achilles.analyze} on the entry's layout, clients and server, with its
    client interpreter; [config] defaults to [search_config t]. *)
