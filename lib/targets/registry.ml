open Achilles_smt
open Achilles_symvm
open Achilles_core

type t = {
  name : string;
  description : string;
  layout : Layout.t;
  clients : unit -> Ast.program list;
  server : unit -> Ast.program;
  mask : string list option;
  distinct_by : (Bv.t array -> Term.var array -> Term.t) option;
  interp : unit -> Interp.config;
  client_interp : (unit -> Interp.config) option;
}

let default_interp () = Interp.default_config

let rw =
  {
    name = "rw";
    description = "the paper's working example (Figures 2-3)";
    layout = Rw_example.layout;
    clients = (fun () -> [ Rw_example.client ]);
    server = (fun () -> Rw_example.server);
    mask = Some [ "address" ];
    distinct_by = None;
    interp = default_interp;
    client_interp = None;
  }

let fsp =
  {
    name = "fsp";
    description = "FSP file transfer protocol, 8 client utilities (§6.1)";
    layout = Fsp_model.layout;
    clients = (fun () -> Fsp_model.clients ());
    server = (fun () -> Fsp_model.server);
    mask = Some Fsp_model.analysis_mask;
    distinct_by = Some Fsp_model.block_class;
    interp = default_interp;
    client_interp = None;
  }

let fsp_glob =
  {
    fsp with
    name = "fsp-glob";
    description = "FSP with wildcard-aware clients (the §6.3 glob bug)";
    clients = (fun () -> Fsp_model.clients ~model_globbing:true ());
    distinct_by = None;
  }

let fsp_wide =
  let commands () = Fsp_model.extended_commands 24 in
  {
    fsp with
    name = "fsp-wide";
    description = "FSP with 24 client utilities (the §6.4 stress scale)";
    clients = (fun () -> Fsp_model.clients ~command_set:(commands ()) ());
    server = (fun () -> Fsp_model.server_for (commands ()));
  }

let pbft =
  {
    name = "pbft";
    description = "PBFT replica vs client (the MAC attack, §6.2)";
    layout = Pbft_model.layout;
    clients = (fun () -> [ Pbft_model.client ]);
    server = (fun () -> Pbft_model.replica);
    mask = Some Pbft_model.analysis_mask;
    distinct_by = None;
    interp =
      (fun () ->
        Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
          Interp.default_config);
    client_interp = None;
  }

let paxos =
  {
    name = "paxos";
    description = "Paxos acceptor in phase 2 (local-state demo, §3.4)";
    layout = Paxos_model.layout;
    clients = (fun () -> [ Paxos_model.proposer_concrete ~value:7 ]);
    server = (fun () -> Paxos_model.acceptor);
    mask = Some [ "mtype"; "ballot"; "value" ];
    distinct_by = None;
    interp =
      (fun () ->
        Local_state.concrete ~prefix:(Paxos_model.phase1_prefix ~ballot:5)
          Interp.default_config);
    client_interp = None;
  }

let kv =
  {
    name = "kv";
    description = "key-value store with auto-classified replies (§5)";
    layout = Kv_model.layout;
    clients = (fun () -> [ Kv_model.client ]);
    server = (fun () -> Kv_model.server);
    mask = Some Kv_model.analysis_mask;
    distinct_by = None;
    interp =
      (fun () ->
        {
          Interp.default_config with
          Interp.auto_classify = Some Kv_model.auto_classifier;
        });
    client_interp = None;
  }

let gossip =
  {
    name = "gossip";
    description = "gossip failure-report aggregator (the S3-outage scenario)";
    layout = Gossip_model.layout;
    clients = (fun () -> [ Gossip_model.reporter ]);
    server = (fun () -> Gossip_model.aggregator ~hardened:false ());
    mask = Some Gossip_model.analysis_mask;
    distinct_by = None;
    interp = default_interp;
    client_interp =
      Some
        (fun () ->
          Local_state.concrete
            ~incoming:(List.init 2 (fun _ -> Gossip_model.failure_event))
            ~prefix:Gossip_model.reporter_prefix Interp.default_config);
  }

let all = [ rw; fsp; fsp_glob; fsp_wide; pbft; paxos; kv; gossip ]
let find name = List.find_opt (fun t -> t.name = name) all

let search_config
    ?(witnesses = Search.default_config.Search.witnesses_per_path) t =
  {
    Search.default_config with
    Search.mask = t.mask;
    Search.witnesses_per_path = witnesses;
    Search.distinct_by = t.distinct_by;
    Search.interp = t.interp ();
  }

let client_config t =
  match t.client_interp with Some c -> c () | None -> Interp.default_config

let analyze ?config t =
  let search_config =
    match config with Some c -> c | None -> search_config t
  in
  Achilles.analyze ~search_config ~client_interp:(client_config t)
    ~layout:t.layout ~clients:(t.clients ()) ~server:(t.server ()) ()
