(* The serve workloads: FSP's compiled filter behind a real [achilles serve]
   daemon process on a Unix socket, driven by one closed-loop caller
   (serve-fsp) or open-loop beside a peer that never reads (serve-fsp-stalled). *)

module Filter = Achilles_filter.Filter

let rate = 50_000. (* messages per second on the open-loop connection *)
let stall_rate = 1_000. (* frames per second on the never-reading one *)
let pool_size = 1 lsl 17 (* distinct seeded messages, cycled *)
let now = Clock.now

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error e

(* Blocking exchange with a deadline, for the set-up probe and STATS. *)
let exchange fd request ~reply_len ~deadline =
  let write_ok =
    try
      ignore (Unix.write fd request 0 (Bytes.length request));
      true
    with Unix.Unix_error _ -> false
  in
  let buf = Bytes.create (max 1 reply_len) in
  let rec fill off =
    if off >= reply_len then Some buf
    else
      let left = deadline -. now () in
      if left <= 0. then None
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> None
        | _ -> (
            match Unix.read fd buf off (reply_len - off) with
            | 0 -> None
            | k -> fill (off + k)
            | exception Unix.Unix_error _ -> None)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
  in
  if write_ok then fill 0 else None

type daemon = { pid : int; socket : string }

(* The generator and the server under load on a CPU each: left to the
   scheduler they sometimes shared one, which moved CPU per message by a
   quarter and p90 by a third between runs. Read at start-up, before this
   process is pinned. *)
let two_cpus = Domain.recommended_domain_count () >= 2
let pin_self () = if two_cpus then ignore (Procs.pin 0 0)
let pin_server pid = if two_cpus then ignore (Procs.pin pid 1)

(* Spawn [prog args], a server that listens on [socket], and connect to
   it. *)
let spawn_server ?stdout prog args ~socket ~deadline =
  let pid = Procs.spawn ?stdout prog args in
  Procs.register_file socket;
  let d = { pid; socket } in
  let rec attach () =
    match connect socket with
    | Ok fd -> fd
    | Error _ when Procs.wait_nohang pid <> None ->
        Procs.forget pid;
        failwith (prog ^ " exited during start-up")
    | Error _ when now () > deadline ->
        ignore (Procs.reap pid);
        failwith (prog ^ " never listened")
    | Error _ ->
        Unix.sleepf 0.0005;
        attach ()
  in
  (d, attach ())

(* Start [achilles serve] on [filter_file] and wait for its answer to
   [probe]: returns the daemon and the time from spawn to that first
   reply. *)
let start ~cli ~filter_file ~socket ~probe =
  let t0 = now () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let d, fd =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        spawn_server ~stdout:devnull cli
          [ "serve"; filter_file; "--socket"; socket ]
          ~socket ~deadline:(t0 +. 30.))
  in
  let reply =
    exchange fd (Oracle.frame probe) ~reply_len:Oracle.reply_size ~deadline:(t0 +. 30.)
  in
  Unix.close fd;
  if reply = None then failwith "the daemon did not answer the probe";
  (d, now () -. t0)

let stop d =
  ignore (Procs.reap d.pid);
  Procs.remove_file d.socket

(* The daemon's STATS frame ([key value] lines), on a fresh connection. *)
let stats d =
  match connect d.socket with
  | Error _ -> None
  | Ok fd ->
      let deadline = now () +. 1.0 in
      let sentinel = Bytes.make 4 '\xff' in
      let text =
        match exchange fd sentinel ~reply_len:4 ~deadline with
        | None -> None
        | Some len -> (
            let n = Oracle.be32 len 0 in
            match exchange fd Bytes.empty ~reply_len:n ~deadline with
            | Some b -> Some (Bytes.sub_string b 0 n)
            | None -> None)
      in
      Unix.close fd;
      Option.map
        (fun text ->
          List.filter_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt v)
              | _ -> None)
            (String.split_on_char '\n' text))
        text

type traffic = {
  frames : Bytes.t array; (* wire frames, [pool_size] of them *)
  expected : Oracle.expect array;
}

let traffic ~seed ~witnesses =
  let size = Array.length witnesses.(0) in
  let mix = Oracle.mix ~seed ~witnesses ~size pool_size in
  {
    frames = Array.map (fun (_, m) -> Oracle.frame m) mix;
    expected = Array.map (fun (_, m) -> Oracle.expect m) mix;
  }

(* --- the round-trip reference ------------------------------------------------------- *)

(* The echo server ([bench.exe echo SOCKET]): on one connection, answers
   each frame with [Oracle.reply_size] fixed bytes and does nothing else.
   Driven like the daemon, it times what a round trip costs this machine
   now, apart from anything the daemon does. *)
let echo_serve socket =
  let l = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX socket);
  Unix.listen l 1;
  let fd, _ = Unix.accept ~cloexec:true l in
  let buf = Bytes.create 65536 and len = ref 0 in
  let reply = Bytes.make Oracle.reply_size 'A' in
  let rec loop () =
    match Unix.read fd buf !len (Bytes.length buf - !len) with
    | 0 -> ()
    | k ->
        len := !len + k;
        let off = ref 0 in
        while !len - !off >= 4 && !len - !off >= 4 + Oracle.be32 buf !off do
          off := !off + 4 + Oracle.be32 buf !off;
          ignore (Unix.write fd reply 0 Oracle.reply_size)
        done;
        Bytes.blit buf !off buf 0 (!len - !off);
        len := !len - !off;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ()

type echo = { server : daemon; conn : Unix.file_descr }

let stop_echo e =
  Unix.close e.conn;
  stop e.server

(* Start the echo server and wait for its answer to [probe]: returns it and
   the time from spawn to that first reply, the start-up of a process that
   does nothing, to compare with the daemon's. *)
let start_echo ~self ~socket ~probe =
  let t0 = now () in
  let server, conn = spawn_server self [ "echo"; socket ] ~socket ~deadline:(t0 +. 30.) in
  let e = { server; conn } in
  if exchange conn (Oracle.frame probe) ~reply_len:Oracle.reply_size ~deadline:(t0 +. 30.) = None
  then begin
    stop_echo e;
    failwith "the echo server did not answer the probe"
  end;
  (e, now () -. t0)

(* One stretch of the load, with the daemon's CPU time over it, the echo
   server's turns within it, and what [between] returned just before and
   just after it. *)
type 'r segment = {
  seg_load : Loadgen.result;
  seg_cpu_s : float;
  seg_echo : Loadgen.result;
  before : 'r;
  after : 'r;
}

type 'r outcome = {
  segments : 'r segment list;
  load : Loadgen.result; (* the segments together *)
  daemon_cpu_s : float;
  alive : bool;
  daemon_stats : (string * float) list option;
  daemon_rss_mb : float;
  stall_frames : int; (* frames the stalled peer got into the kernel *)
}

(* Drive [d] for about [seconds] in segments of [segment_seconds], with
   [between] run before the first and after each, taking [between_seconds]
   of the time. Within a segment, one closed-loop caller takes turns of
   [turn_seconds] between the daemon and [echo], so that both see the
   machine in the same state. With [stalled], one segment instead drives
   the daemon open-loop at [rate] beside a second connection that sends
   at [stall_rate] and never reads a reply. *)
let segment_seconds = 5.
let turn_seconds = 0.1

let drive d ~echo ~filter ~traffic ~seconds ~stalled ~between ~between_seconds =
  pin_self ();
  pin_server d.pid;
  pin_server echo.server.pid;
  let mask = pool_size - 1 in
  let fd =
    match connect d.socket with
    | Ok fd -> fd
    | Error e -> failwith ("connect: " ^ Unix.error_message e)
  in
  let stall_fd =
    if stalled then
      match connect d.socket with
      | Ok fd ->
          Unix.set_nonblock fd;
          Some fd
      | Error e -> failwith ("connect: " ^ Unix.error_message e)
    else None
  in
  let stall_frames = ref 0 in
  let tick =
    match stall_fd with
    | None -> ignore
    | Some sfd ->
        let o = Loadgen.out (Loadgen.socket_send sfd) in
        let t0 = now () in
        let next = ref 0 in
        fun t ->
          while t0 +. (float_of_int !next /. stall_rate) <= t do
            (match Loadgen.offer o traffic.frames.(!next land mask) with
            | true -> incr stall_frames
            | false | (exception Loadgen.Closed) -> ());
            incr next
          done
  in
  let cpu () = Option.value ~default:Float.nan (Procs.cpu_seconds d.pid) in
  let frame i = traffic.frames.(i land mask) in
  let check i b off = Oracle.reply_ok filter traffic.expected.(i land mask) b off in
  let io = Loadgen.socket_io fd in
  let reply_size = Oracle.reply_size in
  let n = if stalled then 1 else max 1 (Float.to_int (Float.round (seconds /. segment_seconds))) in
  let duration = Float.max 1. ((seconds /. float_of_int n) -. between_seconds) in
  (* a message given up on may still be answered later, so a segment that
     gave up on one ends the load *)
  (* each turn goes on through the pool where the last one stopped *)
  let turn io next ~check =
    let base = !next in
    let r =
      Loadgen.closed io ~duration:turn_seconds ~reply_size
        ~frame:(fun i -> frame (base + i))
        ~check:(fun i -> check (base + i))
    in
    next := base + r.Loadgen.scheduled;
    r
  in
  let sent = ref 0 and echoed = ref 0 in
  let echo_io = Loadgen.socket_io echo.conn in
  let turns = max 1 (Float.to_int (Float.round (duration /. (2. *. turn_seconds)))) in
  let rec closed k loads echoes =
    let l = turn io sent ~check in
    if l.Loadgen.unsent + l.Loadgen.timeouts > 0 then (l :: loads, echoes)
    else
      let e = turn echo_io echoed ~check:(fun _ _ _ -> true) in
      if Loadgen.failed e > 0 then failwith "the echo server stopped answering";
      if k + 1 = turns then (l :: loads, e :: echoes) else closed (k + 1) (l :: loads) (e :: echoes)
  in
  let rec segments k before acc =
    if k = n then List.rev acc
    else
      let cpu0 = cpu () in
      let seg_load, seg_echo =
        if stalled then
          (Loadgen.run ~tick io ~rate ~duration ~reply_size ~frame ~check, Loadgen.merge [])
        else
          let loads, echoes = closed 0 [] [] in
          (Loadgen.merge (List.rev loads), Loadgen.merge (List.rev echoes))
      in
      let seg_cpu_s = cpu () -. cpu0 in
      let after = between () in
      let g = { seg_load; seg_cpu_s; seg_echo; before; after } in
      if seg_load.Loadgen.unsent + seg_load.Loadgen.timeouts > 0 then List.rev (g :: acc)
      else segments (k + 1) after (g :: acc)
  in
  let segments = segments 0 (between ()) [] in
  let daemon_rss_mb =
    Option.value ~default:0. (Procs.peak_rss_mb ~pid:(string_of_int d.pid) ())
  in
  let alive =
    match Procs.wait_nohang d.pid with
    | None -> true
    | Some _ ->
        Procs.forget d.pid;
        false
  in
  let daemon_stats = if alive then stats d else None in
  Unix.close fd;
  (* the stalled connection stays open until the daemon is stopped *)
  stop d;
  Option.iter Unix.close stall_fd;
  {
    segments;
    load = Loadgen.merge (List.map (fun g -> g.seg_load) segments);
    daemon_cpu_s = List.fold_left (fun acc g -> acc +. g.seg_cpu_s) 0. segments;
    alive;
    daemon_stats;
    daemon_rss_mb;
    stall_frames = !stall_frames;
  }

(* In-process cost of one verdict over the workload's messages, in ns:
   the median of three timed passes over the pool. *)
let eval_ns filter traffic =
  let ev = Filter.evaluator filter in
  let msgs = Array.map (fun f -> Bytes.sub f 4 (Bytes.length f - 4)) traffic.frames in
  let pass () =
    let t = now () in
    Array.iter (fun m -> ignore (Filter.verdict_bytes ev m)) msgs;
    (now () -. t) /. float_of_int (Array.length msgs) *. 1e9
  in
  Qstats.median (Array.init 3 (fun _ -> pass ()))

let witness_messages (ws : Oracle.witness list) =
  List.filter_map (fun (w : Oracle.witness) -> if w.Oracle.confirmed then Some w.Oracle.bytes else None) ws
  |> Array.of_list
