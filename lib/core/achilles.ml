open Achilles_symvm

type timing = {
  client_extraction : float;
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

let analyze ?(search_config = Search.default_config)
    ?(client_interp = Interp.default_config) ~layout ~clients ~server () =
  let client_interp =
    (* the slice oracle is verdict-preserving, so client extraction can use
       it too — client guard chains are mostly single-variable interval
       atoms the oracle decides without a solver call *)
    if search_config.Search.use_slice then
      {
        client_interp with
        Interp.oracle = Some (Achilles_slice.Slice.make_oracle ());
      }
    else client_interp
  in
  let client, client_stats =
    Client_extract.extract ~config:client_interp ~layout clients
  in
  let different_from, different_from_stats =
    if search_config.Search.use_different_from then begin
      let server_slice =
        if search_config.Search.use_slice then
          Some (Achilles_slice.Slice.analyze ~layout server)
        else None
      in
      let df, stats =
        Different_from.compute ?mask:search_config.Search.mask
          ~use_slice:search_config.Search.use_slice ?server_slice client
      in
      (Some df, Some stats)
    end
    else (None, None)
  in
  let report =
    Search.run ~config:search_config ?different_from ~client ~server ()
  in
  {
    client;
    client_stats;
    different_from;
    different_from_stats;
    report;
    timing =
      {
        client_extraction = client_stats.Client_extract.wall_time;
        preprocessing =
          (match different_from_stats with
          | Some s -> s.Different_from.wall_time
          | None -> 0.);
        server_analysis = report.Search.search_stats.Search.wall_time;
      };
  }

let trojans analysis = analysis.report.Search.trojans

let pp_summary fmt analysis =
  let stats = analysis.report.Search.search_stats in
  let unconfirmed =
    List.length
      (List.filter
         (fun (t : Search.trojan) -> not t.Search.confirmed)
         analysis.report.Search.trojans)
  in
  Format.fprintf fmt
    "@[<v>Achilles analysis summary@,\
     \  client paths:        %d (from %d programs, %.2fs)@,\
     \  preprocessing:       %.2fs%s@,\
     \  server analysis:     %.2fs@,\
     \  accepting paths:     %d@,\
     \  rejecting paths:     %d@,\
     \  states pruned:       %d@,\
     \  alive-set checks:    %d (+%d transitive drops)@,\
     \  Trojan witnesses:    %d%s@,\
     %a@]"
    (Predicate.client_path_count analysis.client)
    analysis.client_stats.Client_extract.programs
    analysis.timing.client_extraction analysis.timing.preprocessing
    (match analysis.different_from_stats with
    | Some s ->
        Printf.sprintf " (%d pair checks, %d static, %d fields)"
          s.Different_from.pairs_checked s.Different_from.pairs_static
          (List.length s.Different_from.fields_covered)
    | None -> " (skipped)")
    analysis.timing.server_analysis stats.Search.accepting_paths
    stats.Search.rejecting_paths stats.Search.pruned_states
    stats.Search.alive_checks stats.Search.transitive_drops
    (List.length analysis.report.Search.trojans)
    (if unconfirmed > 0 then Printf.sprintf " (%d unconfirmed)" unconfirmed
     else "")
    Report.pp_coverage analysis.report.Search.coverage
