module Obs = Achilles_obs.Obs

type address = Unix_socket of string | Tcp of string * int

type stats = {
  connections : int;
  messages : int;
  accepts : int;
  trojan_suspects : int;
  unknowns : int;
  dropped_frames : int;
  refused : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d connections (%d refused), %d messages: %d accept, %d trojan-suspect, \
     %d unknown, %d dropped"
    s.connections s.refused s.messages s.accepts s.trojan_suspects s.unknowns
    s.dropped_frames

(* [Unix.select] cannot watch an fd at or above FD_SETSIZE (1024). Besides its
   client connections the daemon holds fewer than 24 fds (stdio, the
   listener, a trace file, runtime internals), so capping live connections at
   1,000 keeps every watched fd below that limit. A connection past the cap is
   accepted and closed at once, and counted in [refused]. *)
let max_connections = 1000

(* Frame length sentinel: a client sending 0xFFFFFFFF as the length word asks
   for a stats reply instead of a verdict. Historically any frame over
   [max_frame] dropped the connection, so no well-behaved client ever sent
   this — reserving it is backward-compatible. *)
let stats_sentinel = 0xFFFFFFFF

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t; (* bytes received, not yet consumed as frames *)
  lat_hist : int array; (* per-connection verdict latency, log2-µs buckets *)
  mutable lat_sum : float;
}

let be32_of buf off =
  let b i = Char.code (Buffer.nth buf (off + i)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let response verdict =
  let out = Bytes.create 5 in
  let c, state =
    match verdict with
    | Filter.Accept -> ('A', 0xFFFFFFFF)
    | Filter.Trojan_suspect id -> ('T', id)
    | Filter.Unknown_state -> ('U', 0xFFFFFFFF)
  in
  Bytes.set out 0 c;
  Bytes.set out 1 (Char.chr ((state lsr 24) land 0xff));
  Bytes.set out 2 (Char.chr ((state lsr 16) land 0xff));
  Bytes.set out 3 (Char.chr ((state lsr 8) land 0xff));
  Bytes.set out 4 (Char.chr (state land 0xff));
  out

let write_all fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

exception Drop_connection

let bind_listener = function
  | Unix_socket path ->
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> () (* refuse to clobber a non-socket; bind will fail honestly *)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      fd

let unlink_if_unix = function
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let run ?(max_frame = 1 lsl 20) ~filter ~address ~stop () =
  let ev = Filter.evaluator filter in
  let t_start = Unix.gettimeofday () in
  let listener = bind_listener address in
  Unix.listen listener 16;
  let conns = ref [] in
  let st =
    ref
      {
        connections = 0;
        messages = 0;
        accepts = 0;
        trojan_suspects = 0;
        unknowns = 0;
        dropped_frames = 0;
        refused = 0;
      }
  in
  (* Latency of connections already closed; STATS folds live ones in. *)
  let drained_hist = Array.make Obs.histogram_buckets 0 in
  let drained_sum = ref 0. in
  let latency_totals () =
    let hist = Array.copy drained_hist in
    let sum = ref !drained_sum in
    List.iter
      (fun c ->
        Array.iteri (fun k v -> hist.(k) <- hist.(k) + v) c.lat_hist;
        sum := !sum +. c.lat_sum)
      !conns;
    (hist, !sum)
  in
  let record verdict =
    let s = !st in
    st :=
      (match verdict with
      | Filter.Accept ->
          Obs.count "filter.accept";
          { s with messages = s.messages + 1; accepts = s.accepts + 1 }
      | Filter.Trojan_suspect _ ->
          Obs.count "filter.trojan_suspect";
          {
            s with
            messages = s.messages + 1;
            trojan_suspects = s.trojan_suspects + 1;
          }
      | Filter.Unknown_state ->
          Obs.count "filter.unknown";
          { s with messages = s.messages + 1; unknowns = s.unknowns + 1 })
  in
  (* The STATS reply: one [key value] line per counter. *)
  let stats_text () =
    let s = !st in
    let hist, sum = latency_totals () in
    let count = Array.fold_left ( + ) 0 hist in
    let q p = Obs.estimate_quantile hist p *. 1e6 in
    Printf.sprintf
      "uptime_seconds %.3f\n\
       connections %d\n\
       messages %d\n\
       accepts %d\n\
       trojan_suspects %d\n\
       unknowns %d\n\
       dropped_frames %d\n\
       refused %d\n\
       latency_count %d\n\
       latency_sum_seconds %.6f\n\
       latency_p50_us %.2f\n\
       latency_p95_us %.2f\n\
       latency_p99_us %.2f\n"
      (Unix.gettimeofday () -. t_start)
      s.connections s.messages s.accepts s.trojan_suspects s.unknowns
      s.dropped_frames s.refused count sum (q 0.5) (q 0.95) (q 0.99)
  in
  let stats_reply () =
    let text = stats_text () in
    let n = String.length text in
    let out = Bytes.create (4 + n) in
    Bytes.set out 0 (Char.chr ((n lsr 24) land 0xff));
    Bytes.set out 1 (Char.chr ((n lsr 16) land 0xff));
    Bytes.set out 2 (Char.chr ((n lsr 8) land 0xff));
    Bytes.set out 3 (Char.chr (n land 0xff));
    Bytes.blit_string text 0 out 4 n;
    out
  in
  let scratch = Bytes.create 4096 in
  (* Consume every complete frame in [c.buf]; raises [Drop_connection] on an
     oversized frame. *)
  let drain_frames c =
    let consumed = ref 0 in
    let continue = ref true in
    while !continue do
      let available = Buffer.length c.buf - !consumed in
      if available < 4 then continue := false
      else
        let frame_len = be32_of c.buf !consumed in
        if frame_len = stats_sentinel then begin
          consumed := !consumed + 4;
          write_all c.fd (stats_reply ())
        end
        else if frame_len > max_frame then raise Drop_connection
        else if available < 4 + frame_len then continue := false
        else begin
          let payload = Bytes.create frame_len in
          Buffer.blit c.buf (!consumed + 4) payload 0 frame_len;
          consumed := !consumed + 4 + frame_len;
          (* Manual timing instead of [Obs.span]: one pair of clock reads
             feeds the phase slice and the per-connection histogram. *)
          let t0 = Unix.gettimeofday () in
          let verdict = Filter.verdict_bytes ev payload in
          let dt = Unix.gettimeofday () -. t0 in
          Obs.record_span Obs.Filter_eval dt;
          let b = Obs.bucket_of_seconds dt in
          c.lat_hist.(b) <- c.lat_hist.(b) + 1;
          c.lat_sum <- c.lat_sum +. dt;
          record verdict;
          write_all c.fd (response verdict)
        end
    done;
    if !consumed > 0 then begin
      let rest = Buffer.sub c.buf !consumed (Buffer.length c.buf - !consumed) in
      Buffer.clear c.buf;
      Buffer.add_string c.buf rest
    end
  in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Array.iteri (fun k v -> drained_hist.(k) <- drained_hist.(k) + v) c.lat_hist;
    drained_sum := !drained_sum +. c.lat_sum;
    conns := List.filter (fun c' -> c' != c) !conns
  in
  let service c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> close_conn c
    | n ->
        Buffer.add_subbytes c.buf scratch 0 n;
        (try drain_frames c with
        | Drop_connection ->
            st := { !st with dropped_frames = !st.dropped_frames + 1 };
            Obs.count "filter.dropped_frame";
            close_conn c
        | Unix.Unix_error _ -> close_conn c)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn c
  in
  while not (stop ()) do
    let fds = listener :: List.map (fun c -> c.fd) !conns in
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listener then begin
              match Unix.accept listener with
              | conn_fd, _ when List.length !conns >= max_connections ->
                  (try Unix.close conn_fd with Unix.Unix_error _ -> ());
                  st := { !st with refused = !st.refused + 1 }
              | conn_fd, _ ->
                  conns :=
                    {
                      fd = conn_fd;
                      buf = Buffer.create 256;
                      lat_hist = Array.make Obs.histogram_buckets 0;
                      lat_sum = 0.;
                    }
                    :: !conns;
                  st := { !st with connections = !st.connections + 1 }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> c.fd = fd) !conns with
              | Some c -> service c
              | None -> ())
          readable
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  unlink_if_unix address;
  !st
