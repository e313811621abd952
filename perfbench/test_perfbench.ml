(* Tests of the benchmark's own machinery: its oracles must be able to fail,
   the open-loop generator must charge stalls to the messages behind them
   and never block, and the analysis it times must be the one
   [Achilles.analyze] runs. *)

open Achilles_smt
open Achilles_core
open Achilles_targets
open Perfbench
module Filter = Achilles_filter.Filter

(* --- FSP messages built by hand ------------------------------------------------ *)

let put msg name value =
  let f = Achilles_symvm.Layout.field Fsp_model.layout name in
  for i = 0 to f.Achilles_symvm.Layout.size - 1 do
    msg.(f.Achilles_symvm.Layout.offset + i) <-
      (value lsr (8 * (f.Achilles_symvm.Layout.size - 1 - i))) land 0xff
  done

(* A message the server accepts: [reported] in bb_len, a path of [true_len]
   printable bytes, NUL-padded. A Trojan exactly when true_len < reported. *)
let message ~cmd ~reported ~true_len =
  let msg = Array.make Fsp_model.message_size 0 in
  put msg "cmd" cmd;
  put msg "sum" Fsp_model.sum_const;
  put msg "bb_key" Fsp_model.key_const;
  put msg "bb_seq" Fsp_model.seq_const;
  put msg "bb_pos" Fsp_model.pos_const;
  put msg "bb_len" reported;
  for i = 0 to true_len - 1 do
    msg.(Fsp_model.buf_offset + i) <- Char.code 'a'
  done;
  msg

let witness ?(confirmed = true) bytes = { Oracle.confirmed; bytes }

let class_witnesses () =
  List.map
    (fun (c : Fsp_model.trojan_class) ->
      witness
        (message ~cmd:c.Fsp_model.class_cmd ~reported:c.Fsp_model.reported_len
           ~true_len:c.Fsp_model.true_len))
    Fsp_model.all_trojan_classes

let check_tally name (t : Oracle.tally) ~attempted ~failed =
  Alcotest.(check (pair int int)) name (attempted, failed)
    (t.Oracle.attempted, t.Oracle.failed)

let test_fsp_oracle () =
  let all = class_witnesses () in
  check_tally "80 classes" (Oracle.check_fsp all) ~attempted:80 ~failed:0;
  let valid = witness (message ~cmd:0x10 ~reported:3 ~true_len:3) in
  check_tally "a valid message as witness"
    (Oracle.check_fsp (valid :: all))
    ~attempted:81 ~failed:1;
  let rejected = witness (Array.make Fsp_model.message_size 0) in
  check_tally "a rejected message as witness"
    (Oracle.check_fsp (rejected :: all))
    ~attempted:81 ~failed:1;
  let unconfirmed = witness ~confirmed:false (List.hd all).Oracle.bytes in
  check_tally "an unconfirmed witness"
    (Oracle.check_fsp (unconfirmed :: all))
    ~attempted:81 ~failed:1;
  check_tally "a missing class" (Oracle.check_fsp (List.tl all)) ~attempted:80
    ~failed:1

let test_wide_oracle () =
  let commands = Fsp_model.extended_commands 24 in
  let ws =
    List.map
      (fun c -> witness (message ~cmd:c.Fsp_model.code ~reported:2 ~true_len:1))
      commands
  in
  check_tally "24 commands" (Oracle.check_wide commands ws) ~attempted:24 ~failed:0;
  let valid = witness (message ~cmd:0x20 ~reported:2 ~true_len:2) in
  check_tally "no NUL before bb_len"
    (Oracle.check_wide commands (valid :: ws))
    ~attempted:25 ~failed:1;
  let unknown_cmd = witness (message ~cmd:0x70 ~reported:2 ~true_len:1) in
  check_tally "rejected by the concrete server"
    (Oracle.check_wide commands (unknown_cmd :: ws))
    ~attempted:25 ~failed:1;
  check_tally "a command without witness"
    (Oracle.check_wide commands (List.tl ws))
    ~attempted:24 ~failed:1

(* --- the analysis and its filter ------------------------------------------------- *)

let fresh () =
  Solver.reset_all_for_tests ();
  Achilles_obs.Obs.reset_all ();
  Term.reset_fresh_counter ()

let fsp = Option.get (Analysis.model "fsp")

let fsp_run =
  lazy
    (fresh ();
     Analysis.pin_globals ();
     Analysis.analyze fsp)

let fsp_filter =
  lazy
    (Filter.compile ~target:"fsp" ~layout:Fsp_model.layout
       ~report:(Lazy.force fsp_run).Analysis.report ())

let fsp_witnesses () =
  List.map
    (fun t -> Analysis.witness_bytes t)
    (Lazy.force fsp_run).Analysis.report.Search.trojans
  |> Array.of_list

let test_same_analysis () =
  let ours = Report.report_digest (Lazy.force fsp_run).Analysis.report in
  fresh ();
  let reference =
    Achilles.analyze ~search_config:fsp.Analysis.config ~layout:Fsp_model.layout
      ~clients:fsp.Analysis.clients ~server:fsp.Analysis.server ()
  in
  Alcotest.(check string)
    "the timed composition is Achilles.analyze"
    (Report.report_digest reference.Achilles.report)
    ours;
  let r = Lazy.force fsp_run in
  let first = Analysis.discovery r 0. and p50 = Analysis.discovery r 0.5 in
  let p90 = Analysis.discovery r 0.9 in
  Alcotest.(check bool) "the discovery curve lies within the analysis" true
    (0. < first && first <= p50 && p50 <= p90 && p90 <= r.Analysis.analyze_s);
  Alcotest.(check (float 0.)) "the 90% point is the 72nd of 80 witnesses"
    r.Analysis.witness_times.(71) p90;
  let ws = List.map (fun t -> witness (Analysis.witness_bytes t)) r.Analysis.report.Search.trojans in
  check_tally "the real witnesses" (Oracle.check_fsp ws) ~attempted:80 ~failed:0

let reply c id =
  let b = Bytes.create 5 in
  Bytes.set b 0 c;
  Bytes.set_int32_be b 1 (Int32.of_int id);
  b

let verdict_reply = function
  | Filter.Accept -> reply 'A' 0xFFFF
  | Filter.Trojan_suspect id -> reply 'T' id
  | Filter.Unknown_state -> reply 'U' 0xFFFF

let test_reply_oracle () =
  let filter = Lazy.force fsp_filter in
  let ws = fsp_witnesses () in
  let trojan = ws.(0) in
  let expected = Oracle.expect trojan in
  let ev = Filter.evaluator filter in
  let right = verdict_reply (Filter.verdict ev (Oracle.to_bv trojan)) in
  Alcotest.(check bool) "the filter's own verdict" true
    (Oracle.reply_ok filter expected right 0);
  Alcotest.(check bool) "accept for a Trojan" false
    (Oracle.reply_ok filter expected (reply 'A' 0) 0);
  Alcotest.(check bool) "unknown for a Trojan" false
    (Oracle.reply_ok filter expected (reply 'U' 0) 0);
  (* a Trojan suspect naming another command's state *)
  let other =
    List.find
      (fun id -> Filter.state_label filter id <> Filter.state_label filter (Oracle.be32 right 1))
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "the wrong state" false
    (Oracle.reply_ok filter expected (reply 'T' other) 0);
  let valid = message ~cmd:0x10 ~reported:3 ~true_len:3 in
  Alcotest.(check bool) "suspect for a valid message" false
    (Oracle.reply_ok filter (Oracle.expect valid) right 0)

(* On two seeds: the mix keeps its thirds, and every verdict of the compiled
   filter agrees with Fsp_model.classify. *)
let test_mix_agreement () =
  let filter = Lazy.force fsp_filter in
  let ev = Filter.evaluator filter in
  let ws = fsp_witnesses () in
  let size = Fsp_model.message_size in
  let n = 30_000 in
  List.iter
    (fun seed ->
      let mix = Oracle.mix ~seed ~witnesses:ws ~size n in
      let share k =
        float_of_int (Array.fold_left (fun acc (k', _) -> if k' = k then acc + 1 else acc) 0 mix)
        /. float_of_int n
      in
      List.iter
        (fun (name, k) ->
          let s = share k in
          if Float.abs (s -. (1. /. 3.)) > 0.02 then
            Alcotest.failf "seed %d: %s share %.3f" seed name s)
        [ ("witness", Oracle.Witness); ("mutant", Oracle.Mutant); ("noise", Oracle.Noise) ];
      let disagree =
        Array.fold_left
          (fun acc (_, m) ->
            let r = verdict_reply (Filter.verdict ev (Oracle.to_bv m)) in
            if Oracle.reply_ok filter (Oracle.expect m) r 0 then acc else acc + 1)
          0 mix
      in
      Alcotest.(check int) (Printf.sprintf "seed %d disagreements" seed) 0 disagree;
      let trojans =
        Array.fold_left
          (fun acc (_, m) -> if Oracle.expect m <> Oracle.Pass then acc + 1 else acc)
          0 mix
      in
      (* witnesses are all Trojans; some mutants stay Trojans *)
      Alcotest.(check bool) "a third or more are Trojans" true (trojans * 3 >= n))
    [ 1; 2 ];
  let a = Oracle.mix ~seed:7 ~witnesses:ws ~size 100 in
  let b = Oracle.mix ~seed:7 ~witnesses:ws ~size 100 in
  let c = Oracle.mix ~seed:8 ~witnesses:ws ~size 100 in
  Alcotest.(check bool) "same seed, same messages" true (a = b);
  Alcotest.(check bool) "another seed, other messages" true (a <> c)

(* --- the open-loop generator on a virtual clock -------------------------------- *)

(* A scripted daemon: frames are 4-byte length + 4-byte message index; the
   reply to message [i] ([answer i], or none) is readable [service] seconds
   after its frame arrived. Every call costs a microsecond of virtual
   time. *)
type sim = {
  mutable vt : float;
  inbuf : Buffer.t;
  replies : (float * Bytes.t) Queue.t;
  service : float;
  refuse : float -> bool; (* the kernel takes nothing at this time *)
  answer : int -> char option;
  pause_after : int option; (* the generator loses 10 ms after this frame *)
  closed_after : int option; (* the peer is gone after this frame *)
}

let sim ?(refuse = fun _ -> false) ?(answer = fun _ -> Some 'A') ?pause_after
    ?closed_after () =
  {
    vt = 0.;
    inbuf = Buffer.create 64;
    replies = Queue.create ();
    service = 20e-6;
    refuse;
    answer;
    pause_after;
    closed_after;
  }

let pause = 0.010

let io s =
  let tick () = s.vt <- s.vt +. 1e-6 in
  let send b off len =
    tick ();
    if s.refuse s.vt then 0
    else begin
      Buffer.add_subbytes s.inbuf b off len;
      while Buffer.length s.inbuf >= 8 do
        let i = Int32.to_int (String.get_int32_be (Buffer.sub s.inbuf 4 4) 0) in
        let rest = Buffer.sub s.inbuf 8 (Buffer.length s.inbuf - 8) in
        Buffer.clear s.inbuf;
        Buffer.add_string s.inbuf rest;
        if s.closed_after = Some (i - 1) then raise Loadgen.Closed;
        Option.iter (fun c -> Queue.push (s.vt +. s.service, reply c i) s.replies) (s.answer i);
        if s.pause_after = Some i then s.vt <- s.vt +. pause
      done;
      len
    end
  in
  let recv b off len =
    tick ();
    let n = ref 0 in
    while
      (not (Queue.is_empty s.replies))
      && fst (Queue.peek s.replies) <= s.vt
      && !n + 5 <= len
    do
      let _, r = Queue.pop s.replies in
      Bytes.blit r 0 b (off + !n) 5;
      n := !n + 5
    done;
    !n
  in
  let wait dt =
    let wake = s.vt +. dt in
    s.vt <-
      (match Queue.peek_opt s.replies with
      | Some (t, _) when t < wake -> Float.max s.vt t
      | _ -> wake)
  in
  { Loadgen.now = (fun () -> s.vt); send; recv; wait }

let frame i =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 4l;
  Bytes.set_int32_be b 4 (Int32.of_int i);
  b

let rate = 10_000.
let duration = 0.1 (* 1000 messages, one every 100 us *)

let drive ?(check = fun _ b off -> Bytes.get b off = 'A') s =
  Loadgen.run (io s) ~rate ~duration ~reply_size:5 ~frame ~check

let count p a = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a

let test_due_time () =
  let r = drive (sim ~pause_after:200 ()) in
  Alcotest.(check int) "no failure" 0 (Loadgen.failed r);
  Alcotest.(check int) "every message answered" 1000 (Array.length r.Loadgen.latencies);
  Alcotest.(check bool) "the generator reports its own lateness" true
    (r.Loadgen.late_max >= pause *. 0.99);
  (* the ~100 messages due during the pause were sent late; timed from the
     send they would all look like the 20 us service time *)
  let behind = count (fun l -> l > 0.001) r.Loadgen.latencies in
  Alcotest.(check bool)
    (Printf.sprintf "pause charged to the messages behind it (%d)" behind)
    true
    (behind >= 85 && behind <= 100);
  Alcotest.(check bool) "the first one behind waited the whole pause" true
    (Array.fold_left Float.max 0. r.Loadgen.latencies >= pause *. 0.99);
  let undisturbed = drive (sim ()) in
  Alcotest.(check int) "without the pause, none waits" 0
    (count (fun l -> l > 0.001) undisturbed.Loadgen.latencies)

let test_never_blocks () =
  (* the kernel takes nothing from 20 ms to 50 ms: the frames wait in the
     backlog and their wait counts as latency *)
  let short = sim ~refuse:(fun t -> t >= 0.020 && t < 0.050) () in
  let r = drive short in
  Alcotest.(check int) "a short refusal fails nothing" 0 (Loadgen.failed r);
  Alcotest.(check bool) "but is charged as latency" true
    (Array.fold_left Float.max 0. r.Loadgen.latencies >= 0.029);
  (* refused for longer than the 1 s timeout: the frames due from 20 ms on
     are given up as unsent, and the run still ends on time *)
  let long = sim ~refuse:(fun t -> t >= 0.020 && t < 1.5) () in
  let r = drive long in
  Alcotest.(check int) "unsent" 800 r.Loadgen.unsent;
  Alcotest.(check int) "all failed" 800 (Loadgen.failed r);
  Alcotest.(check bool) "bounded run" true (long.vt < duration +. 1.0 +. 0.01)

let test_timeouts () =
  let s = sim ~answer:(fun i -> if i < 300 then Some 'A' else None) () in
  let r = drive s in
  Alcotest.(check int) "unanswered messages time out" 700 r.Loadgen.timeouts;
  Alcotest.(check int) "failed" 700 (Loadgen.failed r);
  Alcotest.(check bool) "waits no longer than the timeout" true
    (s.vt < duration +. 1.0 +. 0.01);
  let dead = drive (sim ~closed_after:499 ()) in
  Alcotest.(check bool) "a dead peer fails the rest" true
    (dead.Loadgen.unsent >= 500 && Loadgen.failed dead >= 500)

let test_wrong_verdict () =
  let s = sim ~answer:(fun i -> Some (if i = 123 then 'T' else 'A')) () in
  let r = drive s in
  Alcotest.(check int) "one wrong verdict, one failure" 1 (Loadgen.failed r);
  Alcotest.(check int) "counted as wrong" 1 r.Loadgen.wrong

(* --- the closed-loop caller on the same virtual clock ----------------------------- *)

let closed ?(check = fun _ b off -> Bytes.get b off = 'A') s =
  Loadgen.closed (io s) ~duration:0.01 ~reply_size:5 ~frame ~check

let test_closed_loop () =
  let r = closed (sim ()) in
  let n = Array.length r.Loadgen.latencies in
  Alcotest.(check int) "no failure" 0 (Loadgen.failed r);
  Alcotest.(check int) "every message answered" r.Loadgen.scheduled n;
  (* one message in flight at a time: 20 us service plus the calls *)
  Alcotest.(check bool) (Printf.sprintf "back to back (%d)" n) true (n >= 300 && n <= 500);
  Alcotest.(check bool) "latency is the round trip" true
    (Array.for_all (fun l -> l >= 20e-6 && l < 30e-6) r.Loadgen.latencies);
  let paused = closed (sim ~pause_after:50 ()) in
  Alcotest.(check int) "a pause delays only the message in flight" 1
    (count (fun l -> l > 0.001) paused.Loadgen.latencies);
  Alcotest.(check bool) "and the run still ends on time" true
    (paused.Loadgen.scheduled < n)

let test_closed_failures () =
  let s = sim ~answer:(fun i -> if i < 100 then Some 'A' else None) () in
  let r = closed s in
  Alcotest.(check int) "an unanswered message times out" 1 r.Loadgen.timeouts;
  Alcotest.(check int) "and ends the run" 100 (Array.length r.Loadgen.latencies);
  Alcotest.(check bool) "after no more than the timeout" true (s.vt < 0.01 +. 1.0 +. 0.01);
  let dead = closed (sim ~closed_after:99 ()) in
  Alcotest.(check bool) "a dead peer fails" true (Loadgen.failed dead = 1);
  let wrong = closed (sim ~answer:(fun i -> Some (if i = 123 then 'T' else 'A')) ()) in
  Alcotest.(check int) "a wrong verdict fails" 1 (Loadgen.failed wrong);
  Alcotest.(check int) "counted as wrong" 1 wrong.Loadgen.wrong

let () =
  Alcotest.run "perfbench"
    [
      ( "oracle",
        [
          Alcotest.test_case "fsp witnesses" `Quick test_fsp_oracle;
          Alcotest.test_case "wide witnesses" `Quick test_wide_oracle;
          Alcotest.test_case "timed analysis is Achilles.analyze" `Quick test_same_analysis;
          Alcotest.test_case "daemon replies" `Quick test_reply_oracle;
          Alcotest.test_case "mix on two seeds" `Quick test_mix_agreement;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "latency from due time" `Quick test_due_time;
          Alcotest.test_case "never blocks" `Quick test_never_blocks;
          Alcotest.test_case "timeouts are bounded" `Quick test_timeouts;
          Alcotest.test_case "wrong verdicts fail" `Quick test_wrong_verdict;
          Alcotest.test_case "closed loop" `Quick test_closed_loop;
          Alcotest.test_case "closed-loop failures" `Quick test_closed_failures;
        ] );
    ]
