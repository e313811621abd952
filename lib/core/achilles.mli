(** Achilles: end-to-end Trojan-message analysis.

    Ties the phases together: client predicate extraction, preprocessing
    (the differentFrom matrix), and the incremental server search. This is
    the entry point a user of the library calls; the phase modules remain
    available for finer control. *)

open Achilles_symvm

type timing = {
  client_extraction : float; (* seconds *)
  preprocessing : float;
  server_analysis : float;
}

type inputs = {
  client : Predicate.client_predicate;
  client_stats : Client_extract.stats;
  different_from : Different_from.t option;
  different_from_stats : Different_from.stats option;
}
(** Everything the server search consumes besides its config. *)

type analysis = {
  client : Predicate.client_predicate;
  client_stats : Client_extract.stats;
  different_from : Different_from.t option;
  different_from_stats : Different_from.stats option;
  report : Search.report;
  timing : timing;
}

val analyze :
  ?search_config:Search.config ->
  ?client_interp:Interp.config ->
  layout:Layout.t ->
  clients:Ast.program list ->
  server:Ast.program ->
  unit ->
  analysis
(** Run the full pipeline: {!prepare}, {!Search.run}, {!assemble}. *)

val prepare :
  ?search_config:Search.config ->
  ?client_interp:Interp.config ->
  layout:Layout.t ->
  clients:Ast.program list ->
  server:Ast.program ->
  unit ->
  inputs
(** The steps before the server search: client extraction (through the
    slice oracle when [use_slice] is set), then the differentFrom matrix —
    computed only when the search configuration enables its use, and
    informed by the server's static slice when [use_slice] is set. Every
    driver of the search (in-process or distributed) starts here, so they
    all search with the same inputs. *)

val assemble : inputs -> Search.report -> analysis
(** Pair the inputs with the report the search produced from them. *)

val trojans : analysis -> Search.trojan list
val pp_summary : Format.formatter -> analysis -> unit
