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
(** Run the full pipeline: client extraction, the differentFrom matrix —
    computed only when the search configuration enables its use, and
    informed by the server's static slice when [use_slice] is set — then
    {!Search.run}. *)

val trojans : analysis -> Search.trojan list
val pp_summary : Format.formatter -> analysis -> unit
