(* Compiled Trojan filters, differentially verified against the solver.

   The headline property: for every bundled target, on random concrete
   messages (uniform bytes, witness mutations, and exact witnesses), the
   compiled filter's verdict equals the solver's decision of the same
   per-state Trojan queries the search reported — i.e. compilation
   (quantifier elimination included) changed nothing. Plus: every
   search-reported witness is flagged, every filter operator agrees with
   [Model.eval_bool] on random terms, serialization round-trips, the
   bundled targets' images are pinned byte for byte, every corruption is
   rejected rather than mis-answered, and the serve daemon
   speaks its protocol end to end (as a forked child running [Daemon.run]
   and as a real [achilles serve] subprocess). *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Filter = Achilles_filter.Filter
module Daemon = Achilles_filter.Daemon

(* --- the bundled targets, mirrored from the CLI ------------------------------ *)

type setup = {
  sname : string;
  layout : Layout.t;
  clients : Ast.program list;
  server : Ast.program;
  mask : string list option;
  interp : Interp.config;
  client_interp : Interp.config option;
}

let setups =
  [
    {
      sname = "fsp";
      layout = Fsp_model.layout;
      clients = Fsp_model.clients ();
      server = Fsp_model.server;
      mask = Some Fsp_model.analysis_mask;
      interp = Interp.default_config;
      client_interp = None;
    };
    {
      sname = "pbft";
      layout = Pbft_model.layout;
      clients = [ Pbft_model.client ];
      server = Pbft_model.replica;
      mask = Some Pbft_model.analysis_mask;
      interp =
        Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
          Interp.default_config;
      client_interp = None;
    };
    {
      sname = "kv";
      layout = Kv_model.layout;
      clients = [ Kv_model.client ];
      server = Kv_model.server;
      mask = Some Kv_model.analysis_mask;
      interp =
        {
          Interp.default_config with
          Interp.auto_classify = Some Kv_model.auto_classifier;
        };
      client_interp = None;
    };
    {
      sname = "gossip";
      layout = Gossip_model.layout;
      clients = [ Gossip_model.reporter ];
      server = Gossip_model.aggregator ~hardened:false ();
      mask = Some Gossip_model.analysis_mask;
      interp = Interp.default_config;
      client_interp =
        Some
          (Local_state.concrete
             ~incoming:(List.init 2 (fun _ -> Gossip_model.failure_event))
             ~prefix:Gossip_model.reporter_prefix Interp.default_config);
    };
    {
      sname = "paxos";
      layout = Paxos_model.layout;
      clients = [ Paxos_model.proposer_concrete ~value:7 ];
      server = Paxos_model.acceptor;
      mask = Some [ "mtype"; "ballot"; "value" ];
      interp =
        Local_state.concrete ~prefix:(Paxos_model.phase1_prefix ~ballot:5)
          Interp.default_config;
      client_interp = None;
    };
  ]

let compiled =
  List.map
    (fun s ->
      ( s.sname,
        lazy
          (let config =
             {
               Search.default_config with
               Search.mask = s.mask;
               Search.witnesses_per_path = 4;
               Search.interp = s.interp;
             }
           in
           let analysis =
             Achilles.analyze ~search_config:config
               ?client_interp:s.client_interp ~layout:s.layout
               ~clients:s.clients ~server:s.server ()
           in
           let filter =
             Filter.compile ~target:s.sname ~layout:s.layout
               ~report:analysis.Achilles.report ()
           in
           (s, analysis.Achilles.report, filter)) ))
    setups

let force name = Lazy.force (List.assoc name compiled)

(* --- the solver-side oracle --------------------------------------------------- *)

(* Decide each state's Trojan query on concrete bytes the way the search
   itself would: conjuncts over message bytes evaluate concretely under a
   model; conjuncts with auxiliary variables get the bytes substituted in
   and the existential residue goes to the solver. First satisfied state
   wins, like the filter. *)
let oracle (report : Search.report) (bytes : int array) =
  let rec scan = function
    | [] -> Filter.Accept
    | ((sp : Predicate.server_path), query) :: rest -> (
        match query with
        | None -> scan rest
        | Some terms ->
            let byte_of = Hashtbl.create 32 in
            Array.iteri
              (fun i (v : Term.var) -> Hashtbl.replace byte_of v.Term.id i)
              sp.Predicate.msg_vars;
            let model =
              Model.of_list
                (Array.to_list
                   (Array.mapi
                      (fun i v ->
                        (v, Model.Vbv (Bv.of_int ~width:8 bytes.(i))))
                      sp.Predicate.msg_vars))
            in
            let pure, auxed =
              List.partition
                (fun t ->
                  List.for_all
                    (fun id -> Hashtbl.mem byte_of id)
                    (Term.var_ids t))
                terms
            in
            if not (List.for_all (Model.eval_bool model) pure) then scan rest
            else if auxed = [] then Filter.Trojan_suspect sp.Predicate.sp_state_id
            else
              let bind (v : Term.var) =
                match Hashtbl.find_opt byte_of v.Term.id with
                | Some i -> Some (Term.const (Bv.of_int ~width:8 bytes.(i)))
                | None -> None
              in
              let residue = List.map (Term.subst bind) auxed in
              (match Solver.check residue with
              | Solver.Sat _ -> Filter.Trojan_suspect sp.Predicate.sp_state_id
              | Solver.Unsat -> scan rest
              | Solver.Unknown ->
                  Alcotest.fail "oracle: solver returned Unknown unbudgeted"))
  in
  scan (Search.trojan_queries report)

let pp_verdict = function
  | Filter.Accept -> "accept"
  | Filter.Trojan_suspect id -> Printf.sprintf "trojan-suspect %d" id
  | Filter.Unknown_state -> "unknown-state"

(* --- differential property ---------------------------------------------------- *)

let witness_bytes (t : Search.trojan) =
  Array.map (fun b -> Bv.to_int b) t.Search.witness

(* Uniform bytes, mutated witnesses (1-3 flipped positions), and the
   witnesses themselves: the mutation cases keep most constraints satisfied,
   which is what drives messages deep into the per-state queries. *)
let message_gen size witnesses =
  let open QCheck2.Gen in
  let uniform = array_size (return size) (int_range 0 255) in
  match witnesses with
  | [] -> uniform
  | ws ->
      let pick_witness = map Array.copy (oneofl ws) in
      let mutated =
        pick_witness >>= fun base ->
        int_range 1 3 >>= fun flips ->
        list_size (return flips) (pair (int_range 0 (size - 1)) (int_range 0 255))
        >>= fun edits ->
        List.iter (fun (i, v) -> base.(i) <- v) edits;
        return base
      in
      frequency [ (2, uniform); (3, mutated); (1, pick_witness) ]

let differential_test name =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s: filter verdict == solver verdict" name)
    ~count:10_000
    (QCheck2.Gen.delay (fun () ->
         let s, report, _ = force name in
         ignore s;
         let witnesses =
           List.filter_map
             (fun (t : Search.trojan) ->
               if t.Search.confirmed then Some (witness_bytes t) else None)
             report.Search.trojans
         in
         message_gen (Layout.total_size (List.find (fun s -> s.sname = name) setups).layout) witnesses))
    (fun bytes ->
      let _, report, filter = force name in
      let ev = Filter.evaluator filter in
      let message = Array.map (fun b -> Bv.of_int ~width:8 b) bytes in
      let got = Filter.verdict ev message in
      let expected = oracle report bytes in
      if got <> expected then
        QCheck2.Test.fail_reportf "filter says %s, solver says %s"
          (pp_verdict got) (pp_verdict expected)
      else true)

let test_witnesses_flagged () =
  List.iter
    (fun (name, _) ->
      let _, report, filter = force name in
      let ev = Filter.evaluator filter in
      List.iter
        (fun (t : Search.trojan) ->
          if t.Search.confirmed then
            match Filter.verdict ev t.Search.witness with
            | Filter.Trojan_suspect _ -> ()
            | v ->
                Alcotest.failf "%s: witness for state %d got %s" name
                  t.Search.server_state_id (pp_verdict v))
        report.Search.trojans)
    compiled

let test_exact_compilation () =
  (* the bundled targets compile without degradation — the differential
     property above is only meaningful because nothing answers unknown *)
  List.iter
    (fun (name, _) ->
      let _, _, filter = force name in
      Alcotest.(check int)
        (Printf.sprintf "%s: unknown leaves" name)
        0
        (Filter.unknown_leaves filter);
      Alcotest.(check bool)
        (Printf.sprintf "%s: has states" name)
        true
        (Filter.state_count filter > 0))
    compiled

let test_wrong_length_is_unknown () =
  let _, _, filter = force "fsp" in
  let ev = Filter.evaluator filter in
  let short = Bytes.make (Filter.message_size filter - 1) '\000' in
  let long = Bytes.make (Filter.message_size filter + 1) '\000' in
  Alcotest.(check string) "short" "unknown-state"
    (pp_verdict (Filter.verdict_bytes ev short));
  Alcotest.(check string) "long" "unknown-state"
    (pp_verdict (Filter.verdict_bytes ev long))

(* --- serialization: round trip and corruption guards -------------------------- *)

let fsp_image = lazy (let _, _, filter = force "fsp" in Filter.to_string filter)

let test_round_trip () =
  List.iter
    (fun (name, _) ->
      let _, report, filter = force name in
      let image = Filter.to_string filter in
      match Filter.of_string image with
      | Error e -> Alcotest.failf "%s: round trip failed: %s" name e
      | Ok filter' ->
          (* canonical encoding: decode then re-encode is the identity *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: image identical" name)
            true
            (String.equal image (Filter.to_string filter'));
          (* and the decoded filter behaves identically on live traffic *)
          let ev = Filter.evaluator filter and ev' = Filter.evaluator filter' in
          List.iter
            (fun (t : Search.trojan) ->
              Alcotest.(check bool) "same verdict" true
                (Filter.verdict ev t.Search.witness
                = Filter.verdict ev' t.Search.witness))
            report.Search.trojans)
    compiled

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s was accepted" what

let test_corruption_guards () =
  let image = Lazy.force fsp_image in
  let len = String.length image in
  (* torn writes: every truncation point is rejected *)
  expect_error "empty file" (Filter.of_string "");
  expect_error "half image" (Filter.of_string (String.sub image 0 (len / 2)));
  expect_error "missing last byte"
    (Filter.of_string (String.sub image 0 (len - 1)));
  expect_error "only the header" (Filter.of_string (String.sub image 0 12));
  (* foreign files *)
  expect_error "garbage" (Filter.of_string "not a filter at all");
  expect_error "trailing garbage" (Filter.of_string (image ^ "x"));
  (* a future format version is refused rather than misparsed *)
  let bumped = Bytes.of_string image in
  Bytes.set bumped 7 '2';
  expect_error "future version" (Filter.of_string (Bytes.to_string bumped));
  (* a well-formed envelope around a nonsense payload fails validation *)
  let payload = String.init 64 (fun i -> Char.chr (i * 7 mod 256)) in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "ACHFLT01";
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_string buf (Digest.string payload);
  expect_error "valid envelope, junk payload"
    (Filter.of_string (Buffer.contents buf))

(* Any single bit flip anywhere in the image — magic, lengths, payload, or
   the digest itself — must produce an error, never a verdict-capable
   filter with different behavior. *)
let qcheck_bit_flips_rejected =
  QCheck2.Test.make ~name:"any single bit flip in the image is rejected"
    ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 7))
    (fun (p, bit) ->
      let image = Lazy.force fsp_image in
      let pos = p mod String.length image in
      let flipped = Bytes.of_string image in
      Bytes.set flipped pos
        (Char.chr (Char.code image.[pos] lxor (1 lsl bit)));
      match Filter.of_string (Bytes.to_string flipped) with
      | Error _ -> true
      | Ok _ ->
          QCheck2.Test.fail_reportf "flip at byte %d bit %d accepted" pos bit)

let test_save_load () =
  let _, _, filter = force "gossip" in
  let file = Filename.temp_file "achilles-filter" ".achfilter" in
  (match Filter.save filter ~file with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  (match Filter.load ~file with
  | Ok filter' ->
      Alcotest.(check string) "round trip through disk"
        (Filter.to_string filter) (Filter.to_string filter')
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove file;
  (match Filter.load ~file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file succeeded");
  let dir = Filename.temp_dir "achilles-filter" ".d" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  Alcotest.(check (result reject string)) "loading a directory"
    (Error (dir ^ ": not a regular file"))
    (Result.map ignore (Filter.load ~file:dir))

(* --- every operator, against [Model.eval_bool] ------------------------------- *)

(* One accepting state whose Trojan query is [term] over [msg_vars], as the
   search would report it. *)
let report_of msg_vars term =
  let sp =
    {
      Predicate.sp_state_id = 1;
      label = "op";
      msg_vars;
      sp_constraints = [ term ];
    }
  in
  let trojan =
    {
      Search.server_state_id = 1;
      accept_label = "op";
      witness = Array.map (fun _ -> Bv.zero 8) msg_vars;
      symbolic = [ term ];
      msg_vars;
      confirmed = true;
      found_at = 0.;
    }
  in
  {
    Search.trojans = [ trojan ];
    accepting = [ sp ];
    drops = [];
    search_stats =
      {
        Search.accepting_paths = 1;
        rejecting_paths = 0;
        other_paths = 0;
        pruned_states = 0;
        forks = 0;
        alive_checks = 0;
        transitive_drops = 0;
        alive_samples = [];
        wall_time = 0.;
      };
    coverage =
      {
        Search.total_shards = 1;
        completed_shards = 1;
        failed_shards = [];
        resumed_shards = 0;
        interrupted = false;
        unknown_alive = 0;
        unknown_prune = 0;
        unknown_witness = 0;
        budget_exhaustions = 0;
        injected_faults = 0;
        abandoned_states = 0;
      };
  }

(* Random terms over the message bytes [m]. Constants lean on the edge
   values (0, 1, the width, the sign bit, all ones), so division by zero
   and shifts at or past the width come up often. *)
type gens = {
  byte : Term.t QCheck2.Gen.t; (* one of [m] *)
  konst : int -> Term.t QCheck2.Gen.t; (* a constant of the given width *)
  bv8 : Term.t QCheck2.Gen.t; (* a byte, a constant or one operator on them *)
  boolean : Term.t QCheck2.Gen.t;
  against : Term.t -> Term.t QCheck2.Gen.t;
      (* a comparison of a term with a random one of its width *)
}

let gens_over (m : Term.t array) =
  let open QCheck2.Gen in
  let konst w =
    map
      (fun k -> Term.int ~width:w k)
      (frequency
         [
           (2, oneofl [ 0; 1; 7; 8; 9; 127; 128; 255 ]);
           (1, int_range 0 ((1 lsl w) - 1));
         ])
  in
  let byte = oneofl (Array.to_list m) in
  let leaf = frequency [ (4, byte); (1, konst 8) ] in
  let binops =
    Term.[ add; sub; mul; udiv; urem; band; bor; bxor; shl; lshr; ashr ]
  in
  let bv8 =
    frequency
      [
        (2, leaf);
        (2, map3 (fun f a b -> f a b) (oneofl binops) leaf leaf);
        (1, map Term.bnot leaf);
      ]
  in
  let against x =
    let other = if Term.width_of x = 8 then bv8 else konst (Term.width_of x) in
    map2 (fun f y -> f x y) (oneofl Term.[ eq; ult; slt; ule; sle ]) other
  in
  { byte; konst; bv8; boolean = bv8 >>= against; against }

(* Each operator of the compiled filter: the prims in wire order, then
   extract and inset, each with a test that a term node applies it and a
   generator of boolean terms that do. The inset case quantifies an
   auxiliary byte [x] the compiler can only eliminate by enumeration, so
   its meaning is "some [x] satisfies it". *)
let op_cases =
  let open QCheck2.Gen in
  let binop f g = map2 f g.bv8 g.bv8 >>= g.against in
  let cmp f g = map2 f g.bv8 g.bv8 in
  Term.
    [
      ( "Not",
        (function Not _ -> true | _ -> false),
        fun g -> map not_ g.boolean );
      ( "And",
        (function And _ -> true | _ -> false),
        fun g -> map2 and_ g.boolean g.boolean );
      ( "Or",
        (function Or _ -> true | _ -> false),
        fun g -> map2 or_ g.boolean g.boolean );
      ( "Ite",
        (function Ite _ -> true | _ -> false),
        fun g ->
          oneof
            [
              map3 ite g.boolean g.boolean g.boolean;
              map3 ite g.boolean g.bv8 g.bv8 >>= g.against;
            ] );
      ( "Eq",
        (function Eq _ -> true | _ -> false),
        fun g -> oneof [ cmp eq g; map2 eq g.boolean g.boolean ] );
      ("Ult", (function Ult _ -> true | _ -> false), cmp ult);
      ("Slt", (function Slt _ -> true | _ -> false), cmp slt);
      ("Ule", (function Ule _ -> true | _ -> false), cmp ule);
      ("Sle", (function Sle _ -> true | _ -> false), cmp sle);
      ("Add", (function Add _ -> true | _ -> false), binop add);
      ("Sub", (function Sub _ -> true | _ -> false), binop sub);
      ("Mul", (function Mul _ -> true | _ -> false), binop mul);
      ("Udiv", (function Udiv _ -> true | _ -> false), binop udiv);
      ("Urem", (function Urem _ -> true | _ -> false), binop urem);
      ( "Bnot",
        (function Bnot _ -> true | _ -> false),
        fun g -> map bnot g.bv8 >>= g.against );
      ("Band", (function Band _ -> true | _ -> false), binop band);
      ("Bor", (function Bor _ -> true | _ -> false), binop bor);
      ("Bxor", (function Bxor _ -> true | _ -> false), binop bxor);
      ("Shl", (function Shl _ -> true | _ -> false), binop shl);
      ("Lshr", (function Lshr _ -> true | _ -> false), binop lshr);
      ("Ashr", (function Ashr _ -> true | _ -> false), binop ashr);
      ("Concat", (function Concat _ -> true | _ -> false), binop concat);
      ( "Extract",
        (function Extract _ -> true | _ -> false),
        fun g ->
          let* x = map2 concat g.bv8 g.bv8 in
          let* lo = int_range 0 15 in
          let* hi = int_range lo 15 in
          g.against (extract ~hi ~lo x) );
      ( "Inset",
        (fun _ -> true),
        fun g ->
          let x = var (fresh_var ~name:"x" (Bitvec 8)) in
          let* f = oneofl [ mul; band; bor; add ] in
          let* k = g.konst 8 in
          let* byte = g.byte in
          let* rel = oneofl [ eq; ult; ule ] in
          let+ rest = g.boolean in
          and_ rest (rel (f x (f x k)) byte) );
    ]

(* Compile [term] as the one accepting state of a report over the message
   bytes [msg_vars], then check the verdict on [messages] against
   [Model.eval_bool] (an auxiliary byte quantified by enumeration), and
   that the image decodes back to itself. *)
let check_op_term msg_vars term messages =
  let fields =
    Array.to_list (Array.mapi (fun i _ -> (string_of_int i, 1)) msg_vars)
  in
  let filter =
    Filter.compile ~target:"ops"
      ~layout:(Layout.make ~name:"ops" fields)
      ~report:(report_of msg_vars term) ()
  in
  let image = Filter.to_string filter in
  (match Filter.of_string image with
  | Ok filter' when String.equal image (Filter.to_string filter') -> ()
  | Ok _ -> QCheck2.Test.fail_report "image does not decode to itself"
  | Error e -> QCheck2.Test.fail_reportf "image rejected: %s" e);
  let byte_value b = Model.Vbv (Bv.of_int ~width:8 b) in
  let aux_bindings =
    match
      List.filter
        (fun (v : Term.var) -> not (Array.exists (( == ) v) msg_vars))
        (Term.vars term)
    with
    | [] -> [ [] ]
    | [ x ] -> List.init 256 (fun k -> [ (x, byte_value k) ])
    | _ -> assert false
  in
  let ev = Filter.evaluator filter in
  List.for_all
    (fun bytes ->
      let base =
        List.combine (Array.to_list msg_vars) (List.map byte_value bytes)
      in
      let holds =
        List.exists
          (fun aux -> Model.eval_bool (Model.of_list (aux @ base)) term)
          aux_bindings
      in
      let expected = if holds then Filter.Trojan_suspect 1 else Filter.Accept in
      let got =
        Filter.verdict ev (Array.of_list (List.map (Bv.of_int ~width:8) bytes))
      in
      got = expected
      || QCheck2.Test.fail_reportf "%s on [%s]: filter says %s, model says %s"
           (Term.to_string term)
           (String.concat " " (List.map string_of_int bytes))
           (pp_verdict got) (pp_verdict expected))
    messages

let op_test (name, applies, gen) =
  let open QCheck2.Gen in
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s: filter verdict == Model.eval_bool" name)
    ~count:40
    (let* n = int_range 2 3 in
     let msg_vars =
       Array.init n (fun i ->
           Term.fresh_var ~name:(Printf.sprintf "m%d" i) (Term.Bitvec 8))
     in
     let* term = gen (gens_over (Array.map Term.var msg_vars)) in
     let byte =
       frequency
         [ (1, oneofl [ 0; 1; 7; 8; 9; 127; 128; 255 ]); (2, int_range 0 255) ]
     in
     let+ messages = list_size (return 24) (list_size (return n) byte) in
     (msg_vars, term, messages))
    (fun (msg_vars, term, messages) ->
      (* the operator is the root or a compared operand, unless the smart
         constructors folded it away *)
      QCheck2.assume
        (applies term.Term.node
        ||
        match term.Term.node with
        | Term.Eq (x, _) | Ult (x, _) | Slt (x, _) | Ule (x, _) | Sle (x, _) ->
            applies x.Term.node
        | _ -> false);
      check_op_term msg_vars term messages)

(* --- the daemon: [Daemon.run] in a forked child ------------------------------- *)

let temp_socket_path () =
  let file = Filename.temp_file "achilles-serve" ".sock" in
  Sys.remove file;
  file

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 250

let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Alcotest.fail "daemon closed the connection mid-reply"
      | k -> go (off + k)
  in
  go 0

let frame_of payload =
  let frame = Bytes.create (4 + Bytes.length payload) in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 frame 4 (Bytes.length payload);
  frame

let send_message fd payload =
  let frame = frame_of payload in
  let n = Unix.write fd frame 0 (Bytes.length frame) in
  Alcotest.(check int) "frame fully written" (Bytes.length frame) n;
  let reply = read_exactly fd 5 in
  let state = Int32.to_int (Bytes.get_int32_be reply 1) land 0xFFFFFFFF in
  (Bytes.get reply 0, state)

let bytes_of_witness w =
  Bytes.init (Array.length w) (fun i -> Char.chr (Bv.to_int w.(i)))

(* Run [Daemon.run] on [sock] in a forked child for the life of [k stop].
   The child serves until SIGTERM and then sends the [Daemon.stats] that
   [run] returned back over a pipe; [stop ()] delivers that SIGTERM, reaps
   the child and returns the stats. A child still running when [k] fails
   is killed. *)
let with_forked_daemon filter sock k =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      (* the child never returns into the test runner *)
      Fun.protect ~finally:(fun () -> Unix._exit 2) @@ fun () ->
      let stopping = ref false in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stopping := true));
      let stats =
        Daemon.run ~filter ~address:(Daemon.Unix_socket sock)
          ~stop:(fun () -> !stopping)
          ()
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (stats : Daemon.stats) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let reaped = ref false in
      let stop () =
        Unix.kill pid Sys.sigterm;
        let stats : Daemon.stats =
          Marshal.from_channel (Unix.in_channel_of_descr rd)
        in
        let _, status = Unix.waitpid [] pid in
        reaped := true;
        Alcotest.(check bool) "daemon child exits cleanly" true
          (status = Unix.WEXITED 0);
        stats
      in
      Fun.protect ~finally:(fun () ->
          if not !reaped then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            try Sys.remove sock with Sys_error _ -> ()
          end;
          Unix.close rd)
      @@ fun () -> k stop

let test_daemon_in_process () =
  let _, report, filter = force "gossip" in
  let ev = Filter.evaluator filter in
  let sock = temp_socket_path () in
  with_forked_daemon filter sock @@ fun stop ->
  let fd = connect_unix sock in
  (* every confirmed witness comes back 'T' with the id the filter gives *)
  let confirmed =
    List.filter (fun (t : Search.trojan) -> t.Search.confirmed)
      report.Search.trojans
  in
  Alcotest.(check bool) "have witnesses to send" true (confirmed <> []);
  List.iter
    (fun (t : Search.trojan) ->
      let expected =
        match Filter.verdict ev t.Search.witness with
        | Filter.Trojan_suspect id -> id
        | v -> Alcotest.failf "witness not flagged in-process: %s" (pp_verdict v)
      in
      let c, state = send_message fd (bytes_of_witness t.Search.witness) in
      Alcotest.(check char) "verdict char" 'T' c;
      Alcotest.(check int) "state id" expected state)
    confirmed;
  (* a benign message answers 'A', a wrong-length one 'U' *)
  let benign = Bytes.make (Filter.message_size filter) '\255' in
  (match Filter.verdict_bytes ev (Bytes.copy benign) with
  | Filter.Accept -> ()
  | v -> Alcotest.failf "expected all-ff gossip message benign, got %s" (pp_verdict v));
  let c, _ = send_message fd benign in
  Alcotest.(check char) "benign verdict" 'A' c;
  let c, _ = send_message fd (Bytes.make 2 '\000') in
  Alcotest.(check char) "wrong length" 'U' c;
  (* pipelining: two frames in one write produce two replies in order *)
  let w = bytes_of_witness (List.hd confirmed).Search.witness in
  let both = Bytes.concat Bytes.empty [ frame_of w; frame_of benign ] in
  let n = Unix.write fd both 0 (Bytes.length both) in
  Alcotest.(check int) "both frames written" (Bytes.length both) n;
  let r1 = read_exactly fd 5 in
  let r2 = read_exactly fd 5 in
  Alcotest.(check char) "pipelined first" 'T' (Bytes.get r1 0);
  Alcotest.(check char) "pipelined second" 'A' (Bytes.get r2 0);
  (* a frame split across writes is reassembled *)
  let frame = frame_of w in
  let half = Bytes.length frame / 2 in
  ignore (Unix.write fd frame 0 half);
  Unix.sleepf 0.05;
  ignore (Unix.write fd frame half (Bytes.length frame - half));
  let r3 = read_exactly fd 5 in
  Alcotest.(check char) "split frame" 'T' (Bytes.get r3 0);
  Unix.close fd;
  let stats = stop () in
  Alcotest.(check int) "daemon counted every message"
    (List.length confirmed + 5)
    stats.Daemon.messages;
  Alcotest.(check int) "one connection" 1 stats.Daemon.connections;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock)

(* --- the daemon's telemetry surface: the STATS wire command ------------------ *)

let stats_over fd =
  let req = Bytes.create 4 in
  Bytes.set_int32_be req 0 0xFFFFFFFFl;
  let n = Unix.write fd req 0 4 in
  Alcotest.(check int) "sentinel fully written" 4 n;
  let len = Int32.to_int (Bytes.get_int32_be (read_exactly fd 4) 0) land 0xFFFFFFFF in
  Bytes.to_string (read_exactly fd len)

let kv_of text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ k; v ] -> Some (k, v)
      | _ -> None)
    (String.split_on_char '\n' text)

let stat_int kv key =
  match List.assoc_opt key kv with
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> Alcotest.failf "stats key %s is not an int: %s" key v)
  | None -> Alcotest.failf "stats reply lacks key %s" key

let stat_float kv key =
  match Option.bind (List.assoc_opt key kv) float_of_string_opt with
  | Some f -> f
  | None -> Alcotest.failf "stats reply lacks float key %s" key

let test_daemon_telemetry () =
  let _, report, filter = force "gossip" in
  let sock = temp_socket_path () in
  with_forked_daemon filter sock @@ fun stop ->
  let witness =
    match
      List.find_opt (fun (t : Search.trojan) -> t.Search.confirmed)
        report.Search.trojans
    with
    | Some t -> bytes_of_witness t.Search.witness
    | None -> Alcotest.fail "gossip analysis reported no confirmed trojan"
  in
  let benign = Bytes.make (Filter.message_size filter) '\255' in
  let fd = connect_unix sock in
  let c, _ = send_message fd witness in
  Alcotest.(check char) "witness flagged" 'T' c;
  let c, _ = send_message fd benign in
  Alcotest.(check char) "benign accepted" 'A' c;
  let c, _ = send_message fd (Bytes.make 2 '\000') in
  Alcotest.(check char) "short is unknown" 'U' c;
  (* STATS sentinel mid-stream: a key/value reply, then normal service *)
  let kv = kv_of (stats_over fd) in
  Alcotest.(check int) "wire stats: messages" 3 (stat_int kv "messages");
  Alcotest.(check int) "wire stats: accepts" 1 (stat_int kv "accepts");
  Alcotest.(check int) "wire stats: trojan_suspects" 1
    (stat_int kv "trojan_suspects");
  Alcotest.(check int) "wire stats: unknowns" 1 (stat_int kv "unknowns");
  Alcotest.(check int) "wire stats: dropped_frames" 0
    (stat_int kv "dropped_frames");
  Alcotest.(check int) "wire stats: refused" 0 (stat_int kv "refused");
  Alcotest.(check int) "wire stats: connections" 1 (stat_int kv "connections");
  Alcotest.(check int) "wire stats: latency_count" 3
    (stat_int kv "latency_count");
  Alcotest.(check bool) "wire stats: uptime non-negative" true
    (stat_float kv "uptime_seconds" >= 0.);
  Alcotest.(check bool) "wire stats: p50 <= p99" true
    (stat_float kv "latency_p50_us" <= stat_float kv "latency_p99_us");
  let c, _ = send_message fd benign in
  Alcotest.(check char) "daemon keeps serving after STATS" 'A' c;
  (* STATS from a second connection while the first is still open: the
     totals cover the other connection's traffic, live latency included *)
  let fd_b = connect_unix sock in
  let kv_b = kv_of (stats_over fd_b) in
  Alcotest.(check int) "second conn: messages" 4 (stat_int kv_b "messages");
  Alcotest.(check int) "second conn: accepts" 2 (stat_int kv_b "accepts");
  Alcotest.(check int) "second conn: trojan suspects" 1
    (stat_int kv_b "trojan_suspects");
  Alcotest.(check int) "second conn: unknowns" 1 (stat_int kv_b "unknowns");
  Alcotest.(check int) "second conn: dropped frames" 0
    (stat_int kv_b "dropped_frames");
  Alcotest.(check int) "second conn: latency count covers live conns" 4
    (stat_int kv_b "latency_count");
  Alcotest.(check int) "second conn: two connections" 2
    (stat_int kv_b "connections");
  (* an oversized frame drops that connection and counts as a drop *)
  let fd2 = connect_unix sock in
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (2 * 1024 * 1024));
  ignore (Unix.write fd2 huge 0 4);
  let eof =
    match Unix.read fd2 (Bytes.create 1) 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  Alcotest.(check bool) "oversized frame drops the connection" true eof;
  Unix.close fd2;
  (* the drop shows up on both live connections, which still serve *)
  let kv = kv_of (stats_over fd) in
  let kv_b = kv_of (stats_over fd_b) in
  Alcotest.(check int) "wire stats: drop counted" 1
    (stat_int kv "dropped_frames");
  Alcotest.(check int) "second conn: drop counted" 1
    (stat_int kv_b "dropped_frames");
  Alcotest.(check int) "wire stats: three connections" 3
    (stat_int kv "connections");
  let counters =
    [
      "connections"; "messages"; "accepts"; "trojan_suspects"; "unknowns";
      "dropped_frames"; "refused"; "latency_count";
    ]
  in
  List.iter
    (fun key ->
      Alcotest.(check int)
        ("both connections agree on " ^ key)
        (stat_int kv key) (stat_int kv_b key))
    counters;
  Unix.close fd;
  Unix.close fd_b;
  let stats = stop () in
  (* the returned record and the STATS replies told the same story *)
  let record =
    [
      ("connections", stats.Daemon.connections);
      ("messages", stats.Daemon.messages);
      ("accepts", stats.Daemon.accepts);
      ("trojan_suspects", stats.Daemon.trojan_suspects);
      ("unknowns", stats.Daemon.unknowns);
      ("dropped_frames", stats.Daemon.dropped_frames);
      ("refused", stats.Daemon.refused);
    ]
  in
  List.iter
    (fun (key, n) ->
      Alcotest.(check int) ("record agrees on " ^ key) (stat_int kv key) n)
    record;
  Alcotest.(check int) "record: messages" 4 stats.Daemon.messages;
  Alcotest.(check int) "record: dropped frames" 1 stats.Daemon.dropped_frames

(* --- the daemon as a real subprocess (achilles serve round trip) -------------- *)

let cli_binary () =
  let candidate =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/achilles_cli.exe"
  in
  if Sys.file_exists candidate then Some candidate else None

let contains s needle =
  let nl = String.length needle and l = String.length s in
  let rec go i = i + nl <= l && (String.sub s i nl = needle || go (i + 1)) in
  go 0

(* Save [filter] to a temporary file for the life of [k file]. *)
let with_filter_file filter k =
  let file = Filename.temp_file "achilles-filter" ".achfilter" in
  (match Filter.save filter ~file with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () -> k file

(* Run [achilles serve FILE] on a fresh Unix socket, stdout to a file, for
   the life of [k pid sock out]; the daemon is killed afterwards if it is
   still there. *)
let with_serve binary file k =
  let sock = temp_socket_path () in
  let out = Filename.temp_file "achilles-serve" ".out" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process binary
      [| binary; "serve"; file; "--socket"; sock |]
      Unix.stdin out_fd Unix.stderr
  in
  Unix.close out_fd;
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; sock ])
  @@ fun () -> k pid sock out

(* SIGTERM drains the daemon: exit 0; returns what it printed. *)
let sigterm_drain pid out =
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "clean exit on SIGTERM" true (status = Unix.WEXITED 0);
  In_channel.with_open_bin out In_channel.input_all

let check_drain_output content =
  Alcotest.(check bool) "announced readiness" true
    (List.exists
       (fun line -> String.trim line = "ready")
       (String.split_on_char '\n' content));
  Alcotest.(check bool) "printed drain statistics" true
    (List.exists
       (fun line ->
         contains line "connections" && contains line "trojan-suspect")
       (String.split_on_char '\n' content))

let test_serve_subprocess () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let _, report, filter = force "gossip" in
      with_filter_file filter @@ fun file ->
      with_serve binary file @@ fun pid sock out ->
      let fd = connect_unix sock in
      let witness =
        match
          List.find_opt (fun (t : Search.trojan) -> t.Search.confirmed)
            report.Search.trojans
        with
        | Some t -> t
        | None -> Alcotest.fail "gossip analysis reported no confirmed trojan"
      in
      let c, _ = send_message fd (bytes_of_witness witness.Search.witness) in
      Alcotest.(check char) "subprocess flags the witness" 'T' c;
      let benign = Bytes.make (Filter.message_size filter) '\255' in
      let c, _ = send_message fd benign in
      Alcotest.(check char) "subprocess accepts benign" 'A' c;
      Unix.close fd;
      (* a client that hangs up without reading its verdicts: shutting its
         read side first makes every reply hit a closed pipe (EPIPE), which
         must cost that connection only, not the daemon (no SIGPIPE death) *)
      let rude = connect_unix sock in
      Unix.shutdown rude Unix.SHUTDOWN_RECEIVE;
      let burst = Buffer.create 4096 in
      for _ = 1 to 200 do
        Buffer.add_bytes burst (frame_of benign)
      done;
      let burst = Buffer.to_bytes burst in
      ignore (Unix.write rude burst 0 (Bytes.length burst));
      Unix.close rude;
      let fd = connect_unix sock in
      let c, _ = send_message fd benign in
      Alcotest.(check char) "later connection still judged" 'A' c;
      Unix.close fd;
      check_drain_output (sigterm_drain pid out)

(* [Unix.select] cannot watch fd 1024 or above, so the daemon caps its live
   connections at 1,000 and closes the excess on accept. The client fds live
   in this process, not the daemon's, so only the cap keeps the daemon's own
   fds low. Blocking reads with a receive timeout, because this process's
   fds pass 1024 and cannot be selected on either. *)
let test_serve_connection_cap () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let _, _, filter = force "gossip" in
      with_filter_file filter @@ fun file ->
      with_serve binary file @@ fun pid sock out ->
      let opened = ref [] in
      let close fd =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        opened := List.filter (fun fd' -> fd' <> fd) !opened
      in
      Fun.protect ~finally:(fun () -> List.iter close !opened) @@ fun () ->
      match
        for _ = 1 to 1050 do
          opened := connect_unix sock :: !opened
        done
      with
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          print_endline
            "too few file descriptors for 1,050 connections here; skipping"
      | () ->
          let conns = Array.of_list (List.rev !opened) in
          let reads_eof fd =
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
            match Unix.read fd (Bytes.create 1) 0 1 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                false
          in
          for i = 1000 to 1049 do
            if not (reads_eof conns.(i)) then
              Alcotest.failf "connection #%d past the cap did not read EOF"
                (i + 1)
          done;
          let kv = kv_of (stats_over conns.(0)) in
          Alcotest.(check int) "STATS: connections" 1000
            (stat_int kv "connections");
          Alcotest.(check int) "STATS: refused" 50 (stat_int kv "refused");
          Alcotest.(check bool) "daemon still running" true
            (fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0);
          (* close 100; the STATS round trip after the closes returns only
             once the daemon has seen their EOFs, so the next accept has
             room *)
          for i = 1 to 100 do
            close conns.(i)
          done;
          ignore (stats_over conns.(0));
          let fresh = connect_unix sock in
          opened := fresh :: !opened;
          let benign = Bytes.make (Filter.message_size filter) '\255' in
          let c, _ = send_message fresh benign in
          Alcotest.(check char) "a connection under the cap is judged" 'A' c;
          List.iter close !opened;
          let content = sigterm_drain pid out in
          Alcotest.(check bool) "drain statistics count the refusals" true
            (contains content "(50 refused)")

(* The CLI path end to end on FSP, as a deployment would drive it: compile
   the filter exactly, judge every printed witness, a benign message and a
   short one in-process ([filter query]) and over the socket ([filter send]),
   and read totals that match the traffic back from [filter stats]. *)
let test_cli_fsp_filter () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let run args =
        let ic =
          Unix.open_process_args_in binary (Array.of_list (binary :: args))
        in
        let out = In_channel.input_all ic in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> out
        | _ ->
            Alcotest.failf "achilles %s failed:\n%s" (String.concat " " args)
              out
      in
      let file = Filename.temp_file "achilles-fsp" ".achfilter" in
      Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      @@ fun () ->
      let compiled =
        run [ "compile-filter"; "fsp"; "-o"; file; "--print-witnesses" ]
      in
      Alcotest.(check bool) "exact compilation: 0 unknown leaves" true
        (contains compiled "0 unknown leaves");
      let witnesses =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "witness"; _; hex ] -> Some hex
            | _ -> None)
          (String.split_on_char '\n' compiled)
      in
      Alcotest.(check bool) "witnesses printed" true (witnesses <> []);
      let benign = String.make 34 '0' in
      let messages = witnesses @ [ benign; "0000" ] in
      let check_verdicts how out =
        let verdict hex =
          let prefix = hex ^ " -> " in
          let pl = String.length prefix in
          match
            List.find_opt
              (fun l -> String.length l >= pl && String.sub l 0 pl = prefix)
              (String.split_on_char '\n' out)
          with
          | Some l ->
              List.hd
                (String.split_on_char ' '
                   (String.sub l pl (String.length l - pl)))
          | None -> Alcotest.failf "%s: no verdict for %s" how hex
        in
        List.iter
          (fun hex ->
            Alcotest.(check string) (how ^ ": witness " ^ hex) "trojan-suspect"
              (verdict hex))
          witnesses;
        Alcotest.(check string) (how ^ ": 17 zero bytes") "accept"
          (verdict benign);
        Alcotest.(check string) (how ^ ": short message") "unknown-state"
          (verdict "0000")
      in
      check_verdicts "filter query"
        (run ([ "filter"; "query"; file ] @ messages));
      with_serve binary file @@ fun pid sock out ->
      (* [connect_unix] waits for the socket to appear *)
      Unix.close (connect_unix sock);
      check_verdicts "filter send"
        (run ([ "filter"; "send"; "--socket"; sock ] @ messages));
      let kv = kv_of (run [ "filter"; "stats"; "--socket"; sock ]) in
      let n = List.length witnesses in
      Alcotest.(check int) "stats: messages" (n + 2) (stat_int kv "messages");
      Alcotest.(check int) "stats: trojan_suspects" n
        (stat_int kv "trojan_suspects");
      Alcotest.(check int) "stats: accepts" 1 (stat_int kv "accepts");
      Alcotest.(check int) "stats: unknowns" 1 (stat_int kv "unknowns");
      check_drain_output (sigterm_drain pid out)

(* The image bytes of every bundled target, through the built CLI: the op
   numbering and the wire format are pinned, not just self-consistent. *)
let test_image_digests () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let file = Filename.temp_file "achilles-golden" ".achfilter" in
      Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      @@ fun () ->
      List.iter
        (fun (target, digest) ->
          let ic =
            Unix.open_process_args_in binary
              [| binary; "compile-filter"; target; "-o"; file |]
          in
          ignore (In_channel.input_all ic);
          if Unix.close_process_in ic <> Unix.WEXITED 0 then
            Alcotest.failf "compile-filter %s failed" target;
          Alcotest.(check string)
            (target ^ ": image digest")
            digest
            (Digest.to_hex (Digest.file file)))
        Goldens.filter_digests

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "filter"
    [
      qsuite "differential"
        (List.map (fun (name, _) -> differential_test name) compiled);
      ( "compilation",
        [
          Alcotest.test_case "witnesses flagged" `Quick test_witnesses_flagged;
          Alcotest.test_case "exact (no unknown leaves)" `Quick
            test_exact_compilation;
          Alcotest.test_case "wrong length is unknown" `Quick
            test_wrong_length_is_unknown;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "corruption guards" `Quick test_corruption_guards;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "image digests" `Quick test_image_digests;
        ] );
      qsuite "serialization-properties" [ qcheck_bit_flips_rejected ];
      qsuite "operators" (List.map op_test op_cases);
      ( "daemon",
        [
          Alcotest.test_case "in-process protocol" `Quick test_daemon_in_process;
          Alcotest.test_case "telemetry surfaces agree" `Quick
            test_daemon_telemetry;
          Alcotest.test_case "serve subprocess round trip" `Quick
            test_serve_subprocess;
          Alcotest.test_case "serve refuses past the connection cap" `Quick
            test_serve_connection_cap;
          Alcotest.test_case "CLI compile, query, serve and stats on fsp"
            `Quick test_cli_fsp_filter;
        ] );
    ]
