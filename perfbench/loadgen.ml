(* Open-loop load generator.

   Message [i] is due at [t0 + i / rate], whatever happened to earlier
   messages, and its latency runs from that due time to the arrival of its
   reply — so a stall in the daemon or in the generator itself is charged to
   every message queued behind it. The generator never blocks: sockets are
   non-blocking, frames the kernel will not take wait in a bounded backlog,
   and the schedule moves on regardless. Replies arrive in request order on a
   connection, so they are matched to messages first in, first out. *)

exception Closed

(* The connection as the generator sees it. [send] returns the bytes the
   kernel took (0 when it would block); [recv] returns the bytes read (0
   when none are waiting); both raise [Closed] once the peer is gone.
   [wait dt] idles for at most [dt] seconds, returning early when a reply
   can be read. Tests substitute a virtual clock and a scripted peer. *)
type io = {
  now : unit -> float;
  send : Bytes.t -> int -> int -> int;
  recv : Bytes.t -> int -> int -> int;
  wait : float -> unit;
}

(* A write stream that keeps frame boundaries: the unsent tail of a frame
   the kernel took only part of is finished before any later frame. *)
type out = { o_send : Bytes.t -> int -> int -> int; mutable tail : (Bytes.t * int) option }

let out send = { o_send = send; tail = None }

let flush o =
  match o.tail with
  | None -> true
  | Some (b, off) ->
      let k = o.o_send b off (Bytes.length b - off) in
      if off + k = Bytes.length b then (o.tail <- None; true)
      else (o.tail <- Some (b, off + k); false)

(* Hand one frame to the kernel; [false] when it took none of it. *)
let offer o b =
  flush o
  &&
  let k = o.o_send b 0 (Bytes.length b) in
  if k > 0 && k < Bytes.length b then o.tail <- Some (b, k);
  k > 0

type result = {
  scheduled : int;
  unsent : int; (* not handed to the kernel within [timeout] of the due time *)
  timeouts : int; (* sent, but no reply within [timeout] of the due time *)
  wrong : int; (* the reply failed [check] *)
  latencies : float array; (* seconds from due time to reply, in time *)
  late_max : float; (* seconds: how late the generator noticed a due time *)
}

let failed r = r.unsent + r.timeouts + r.wrong

(* Consecutive runs on one connection, as one. *)
let merge rs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  {
    scheduled = sum (fun r -> r.scheduled);
    unsent = sum (fun r -> r.unsent);
    timeouts = sum (fun r -> r.timeouts);
    wrong = sum (fun r -> r.wrong);
    latencies = Array.concat (List.map (fun r -> r.latencies) rs);
    late_max = List.fold_left (fun acc r -> Float.max acc r.late_max) 0. rs;
  }

(* Offer [rate * duration] frames on the schedule, then wait at most
   [timeout] past the last due time for outstanding replies. Frames the
   kernel will not take yet wait, in order, in a backlog: they are sent as
   soon as it takes them (their latency still runs from the due time), or
   counted as unsent once [timeout] has passed. [tick now] runs once per
   loop iteration (the stalled peer sends from it). *)
let run ?(timeout = 1.0) ?(tick = ignore) io ~rate ~duration ~reply_size
    ~frame ~check =
  let n = max 1 (int_of_float (rate *. duration)) in
  let t0 = io.now () in
  let due i = t0 +. (float_of_int i /. rate) in
  let conn = out io.send in
  let alive = ref true in
  (* messages [next_sent, next_due) are due but not yet sent *)
  let next_due = ref 0 and next_sent = ref 0 in
  (* sent messages, oldest unanswered at [head] *)
  let fifo = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let latencies = Array.make n 0. and answered = ref 0 in
  let unsent = ref 0 and timeouts = ref 0 and wrong = ref 0 in
  let late_max = ref 0. in
  let batch = Bytes.create 65536 in
  let rbuf = Bytes.create 65536 and rlen = ref 0 in
  let send_due now =
    while !next_due < n && due !next_due <= now do
      late_max := Float.max !late_max (now -. due !next_due);
      incr next_due
    done;
    while !next_sent < !next_due && due !next_sent +. timeout < now do
      incr unsent;
      incr next_sent
    done;
    if !next_sent < !next_due && flush conn then begin
      (* every due frame that fits, in one write *)
      let len = ref 0 and last = ref !next_sent in
      while
        !last < !next_due && !len + Bytes.length (frame !last) <= Bytes.length batch
      do
        let f = frame !last in
        Bytes.blit f 0 batch !len (Bytes.length f);
        len := !len + Bytes.length f;
        incr last
      done;
      let k = conn.o_send batch 0 !len in
      (* the frames the kernel took, the last one possibly in part *)
      let off = ref 0 in
      while !off < k do
        let f = frame !next_sent in
        if !off + Bytes.length f > k then conn.tail <- Some (f, k - !off);
        off := !off + Bytes.length f;
        fifo.(!tail) <- !next_sent;
        incr tail;
        incr next_sent
      done
    end
  in
  let consume t =
    let off = ref 0 in
    while !rlen - !off >= reply_size do
      (if !head < !tail then begin
         let i = fifo.(!head) in
         incr head;
         let lat = t -. due i in
         if lat > timeout then incr timeouts
         else begin
           latencies.(!answered) <- lat;
           incr answered;
           if not (check i rbuf !off) then incr wrong
         end
       end
       else incr wrong (* a reply nobody asked for *));
      off := !off + reply_size
    done;
    Bytes.blit rbuf !off rbuf 0 (!rlen - !off);
    rlen := !rlen - !off
  in
  let receive () =
    let more = ref true in
    while !more && !alive do
      match io.recv rbuf !rlen (Bytes.length rbuf - !rlen) with
      | 0 -> more := false
      | k ->
          rlen := !rlen + k;
          consume (io.now ())
      | exception Closed -> alive := false
    done
  in
  while !next_sent < n && !alive do
    (try send_due (io.now ()) with Closed -> alive := false);
    if !alive then begin
      tick (io.now ());
      receive ();
      if !next_due < n then begin
        let dt = due !next_due -. io.now () in
        if dt > 0. then io.wait dt
      end
      else if !next_sent < n then io.wait 0.001
    end
  done;
  (* a dead peer: nothing still waiting can ever be sent *)
  unsent := !unsent + (n - !next_sent);
  let deadline = (if !tail > 0 then due fifo.(!tail - 1) else t0) +. timeout in
  while !head < !tail && !alive && io.now () < deadline do
    receive ();
    if !head < !tail then io.wait (Float.max 0. (Float.min 0.001 (deadline -. io.now ())))
  done;
  timeouts := !timeouts + (!tail - !head);
  {
    scheduled = n;
    unsent = !unsent;
    timeouts = !timeouts;
    wrong = !wrong;
    latencies = Array.sub latencies 0 !answered;
    late_max = !late_max;
  }

(* Closed loop: one caller, such as a proxy that asks for a verdict before
   forwarding each message, sends message [i + 1] only once the reply to
   message [i] has arrived, for [duration] seconds. A message's latency runs
   from its send to its reply, so a stall of either side delays the one
   message in flight rather than every message due during it. A message the
   kernel would not take, or whose reply did not come, within [timeout] of
   its send fails and ends the run. [late_max] is 0: nothing is due. *)
let closed ?(timeout = 1.0) io ~duration ~reply_size ~frame ~check =
  let t0 = io.now () in
  let latencies = ref (Array.make 65536 0.) and answered = ref 0 in
  let sent = ref 0 and unsent = ref 0 and timeouts = ref 0 and wrong = ref 0 in
  let rbuf = Bytes.create reply_size in
  let record lat =
    if !answered = Array.length !latencies then
      latencies := Array.append !latencies (Array.make !answered 0.);
    !latencies.(!answered) <- lat;
    incr answered
  in
  (* move [len] bytes with [op], waiting while it moves none; false once
     [deadline] has passed or the peer is gone *)
  let transfer op b len deadline =
    let rec go off =
      off = len
      ||
      match op b off (len - off) with
      | exception Closed -> false
      | 0 ->
          (* never a negative wait: select reads it as no timeout at all *)
          let left = deadline -. io.now () in
          left > 0.
          && begin
               io.wait (Float.min 0.001 left);
               go off
             end
      | k -> go (off + k)
    in
    go 0
  in
  let stop = ref false in
  while (not !stop) && io.now () -. t0 < duration do
    let i = !sent in
    let f = frame i in
    let start = io.now () in
    let deadline = start +. timeout in
    if not (transfer io.send f (Bytes.length f) deadline) then begin
      incr unsent;
      stop := true
    end
    else begin
      incr sent;
      if not (transfer io.recv rbuf reply_size deadline) then begin
        incr timeouts;
        stop := true
      end
      else begin
        record (io.now () -. start);
        if not (check i rbuf 0) then incr wrong
      end
    end
  done;
  {
    scheduled = !sent + !unsent;
    unsent = !unsent;
    timeouts = !timeouts;
    wrong = !wrong;
    latencies = Array.sub !latencies 0 !answered;
    late_max = 0.;
  }

(* --- a real non-blocking socket ------------------------------------------------ *)

let is_would_block = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

let socket_send fd b off len =
  match Unix.single_write fd b off len with
  | k -> k
  | exception Unix.Unix_error (e, _, _) when is_would_block e -> 0
  | exception Unix.Unix_error _ -> raise Closed

let socket_recv fd b off len =
  match Unix.read fd b off len with
  | 0 -> raise Closed
  | k -> k
  | exception Unix.Unix_error (e, _, _) when is_would_block e -> 0
  | exception Unix.Unix_error _ -> raise Closed

(* The generator sleeps in select until the next due time or a readable
   reply. Kernel timer slack (50 us by default) makes it wake a little late,
   which [late_max] reports; spinning instead measured far worse tails on a
   2-vCPU virtual machine, as the spinning vCPU starved the daemon's. *)
let socket_io fd =
  Unix.set_nonblock fd;
  {
    now = Clock.now;
    send = socket_send fd;
    recv = socket_recv fd;
    wait =
      (fun dt ->
        try ignore (Unix.select [ fd ] [] [] dt)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  }
