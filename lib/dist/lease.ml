(* The substrate of the multi-process search protocol: atomic file
   primitives, directory mailboxes, the wire messages, lease files, and the
   coordinator's lease table with fencing tokens.

   Everything on disk is written via temp-file + rename, so a reader never
   observes a torn file, and a writer killed at any instruction leaves
   either the old state or the new — the same discipline as the shard
   checkpoints. Fencing: every grant of a shard carries a token strictly
   greater than any earlier grant of that shard; the coordinator accepts a
   completion only from the current token, so two workers racing one shard
   (a presumed-dead worker and its replacement) can never both merge. *)

module Obs = Achilles_obs.Obs

(* --- directory layout ------------------------------------------------------ *)

let inbox_dir workdir = Filename.concat workdir "inbox"
let outbox_dir workdir wid = Filename.concat workdir (Printf.sprintf "outbox-%03d" wid)
let shards_dir workdir = Filename.concat workdir "shards"
let leases_dir workdir = Filename.concat workdir "leases"
let manifest_file workdir = Filename.concat workdir "manifest"

let checkpoint_file ~workdir ~shard ~token =
  Filename.concat (shards_dir workdir)
    (Printf.sprintf "shard-%04d.t%d.ckpt" shard token)

let lease_file ~workdir ~shard =
  Filename.concat (leases_dir workdir) (Printf.sprintf "shard-%04d.lease" shard)

let ensure_dir dir =
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Dist: %S is not a directory" dir)

(* --- atomic file write ----------------------------------------------------- *)

let write_counter = Atomic.make 0

let atomic_write ~path content =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add write_counter 1)
  in
  let oc = open_out_bin tmp in
  output_string oc content;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* --- mailboxes -------------------------------------------------------------

   One message per file, atomically renamed into the mailbox directory.
   Names embed (sender pid, per-process sequence number) so per-sender
   order is preserved by the lexicographic directory sort and two senders
   can never collide. Receiving drains: read, delete, return in order.
   Unparseable files are deleted and ignored — a half-written or foreign
   file must never wedge the protocol. *)

module Mailbox = struct
  type t = { dir : string }

  (* One counter for the whole process, not one per handle: worker domains
     share the pid, and with per-handle counters two of them could pick the
     same name in the same microsecond, the later rename silently replacing
     the earlier message. *)
  let seq = Atomic.make 0

  let attach dir =
    ensure_dir dir;
    { dir }

  let send t line =
    let name =
      Printf.sprintf "m-%017.6f-%06d-%06d.msg" (Unix.gettimeofday ())
        (Unix.getpid ())
        (Atomic.fetch_and_add seq 1)
    in
    (try atomic_write ~path:(Filename.concat t.dir name) line
     with Sys_error _ | Unix.Unix_error _ -> ())
  (* a vanished mailbox means the peer is gone; the caller's liveness
     checks handle that, a send must not crash the sender *)

  let recv t =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort compare names;
        Array.to_list names
        |> List.filter_map (fun name ->
               if Filename.check_suffix name ".msg" then begin
                 let path = Filename.concat t.dir name in
                 let content = read_file path in
                 (try Sys.remove path with Sys_error _ -> ());
                 content
               end
               else None)
end

(* Mailbox contents are ephemeral protocol state — a restarting
   coordinator must not replay the previous incarnation's traffic (a
   leftover Drain in an outbox would make every fresh worker quit on
   arrival). Only checkpoints and lease files are durable. *)
let purge_mailboxes workdir =
  let purge dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun name ->
            if Filename.check_suffix name ".msg" then
              try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          names
  in
  purge (inbox_dir workdir);
  match Sys.readdir workdir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if String.length name >= 7 && String.sub name 0 7 = "outbox-" then
            purge (Filename.concat workdir name))
        names

(* --- wire messages ---------------------------------------------------------

   Space-separated text lines: debuggable with cat, no unmarshal surface.
   A malformed message parses to [None] and is dropped by the receiver. *)

type to_coordinator =
  | Hello of { wid : int; pid : int }
  | Request of { wid : int }
  | Heartbeat of { wid : int; shard : int; token : int }
  | Snapshot of { wid : int; shard : int; snap : Obs.snapshot }
  | Completed of { wid : int; shard : int; token : int }
  | Failed of { wid : int; shard : int; token : int; abandoned : int }
  | Bye of { wid : int }

type to_worker = Grant of { shard : int; token : int } | Wait | Drain

let encode_to_coordinator = function
  | Hello { wid; pid } -> Printf.sprintf "hello %d %d" wid pid
  | Request { wid } -> Printf.sprintf "request %d" wid
  | Heartbeat { wid; shard; token } ->
      Printf.sprintf "heartbeat %d %d %d" wid shard token
  | Snapshot { wid; shard; snap } ->
      (* multi-line: the header line, then the snapshot codec text — the
         mailbox transport carries whole files, not lines *)
      Printf.sprintf "snap %d %d\n%s" wid shard (Obs.Snapshot.encode snap)
  | Completed { wid; shard; token } ->
      Printf.sprintf "done %d %d %d" wid shard token
  | Failed { wid; shard; token; abandoned } ->
      Printf.sprintf "failed %d %d %d %d" wid shard token abandoned
  | Bye { wid } -> Printf.sprintf "bye %d" wid

let parse_to_coordinator content =
  (* Only the first line routes; a multi-line body (Snapshot) rides below
     it. Single-line messages see [rest = ""] exactly as before. *)
  let line, rest =
    match String.index_opt content '\n' with
    | Some i ->
        ( String.sub content 0 i,
          String.sub content (i + 1) (String.length content - i - 1) )
    | None -> (content, "")
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ "hello"; w; p ] -> (
      match (int_of_string_opt w, int_of_string_opt p) with
      | Some wid, Some pid -> Some (Hello { wid; pid })
      | _ -> None)
  | [ "request"; w ] ->
      Option.map (fun wid -> Request { wid }) (int_of_string_opt w)
  | [ "heartbeat"; w; s; t ] -> (
      match (int_of_string_opt w, int_of_string_opt s, int_of_string_opt t) with
      | Some wid, Some shard, Some token -> Some (Heartbeat { wid; shard; token })
      | _ -> None)
  | [ "snap"; w; s ] -> (
      match (int_of_string_opt w, int_of_string_opt s) with
      | Some wid, Some shard -> (
          match Obs.Snapshot.decode rest with
          | Ok snap -> Some (Snapshot { wid; shard; snap })
          | Error _ -> None)
      | _ -> None)
  | [ "done"; w; s; t ] -> (
      match (int_of_string_opt w, int_of_string_opt s, int_of_string_opt t) with
      | Some wid, Some shard, Some token -> Some (Completed { wid; shard; token })
      | _ -> None)
  | [ "failed"; w; s; t; a ] -> (
      match
        ( int_of_string_opt w,
          int_of_string_opt s,
          int_of_string_opt t,
          int_of_string_opt a )
      with
      | Some wid, Some shard, Some token, Some abandoned ->
          Some (Failed { wid; shard; token; abandoned })
      | _ -> None)
  | [ "bye"; w ] -> Option.map (fun wid -> Bye { wid }) (int_of_string_opt w)
  | _ -> None

let encode_to_worker = function
  | Grant { shard; token } -> Printf.sprintf "grant %d %d" shard token
  | Wait -> "wait"
  | Drain -> "drain"

let parse_to_worker line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "grant"; s; t ] -> (
      match (int_of_string_opt s, int_of_string_opt t) with
      | Some shard, Some token -> Some (Grant { shard; token })
      | _ -> None)
  | [ "wait" ] -> Some Wait
  | [ "drain" ] -> Some Drain
  | _ -> None

(* --- lease files ------------------------------------------------------------

   The coordinator mirrors every live lease to
   [leases/shard-NNNN.lease] = "token worker deadline". The in-memory table
   stays authoritative; the file exists so a restarted coordinator (and a
   debugging human) can recover the fencing floor — tokens must keep
   growing across coordinator incarnations or an orphan of the previous
   incarnation could win a race against a fresh grant. *)

let write_lease ~workdir ~shard ~token ~worker ~deadline =
  atomic_write
    ~path:(lease_file ~workdir ~shard)
    (Printf.sprintf "%d %d %.6f" token worker deadline)

let remove_lease ~workdir ~shard =
  try Sys.remove (lease_file ~workdir ~shard) with Sys_error _ -> ()

let read_lease ~workdir ~shard =
  match read_file (lease_file ~workdir ~shard) with
  | None -> None
  | Some content -> (
      match String.split_on_char ' ' (String.trim content) with
      | [ t; w; d ] -> (
          match (int_of_string_opt t, int_of_string_opt w, float_of_string_opt d)
          with
          | Some token, Some worker, Some deadline ->
              Some (token, worker, deadline)
          | _ -> None)
      | _ -> None)

(* --- the coordinator's lease table ----------------------------------------- *)

module Table = struct
  type shard_state =
    | Pending
    | Leased of { worker : int; token : int; deadline : float }
    | Done of { token : int; resumed : bool }
    | Uncovered

  type t = {
    states : shard_state array;
    next_token : int array; (* per-shard fencing floor: next token to grant *)
    grants : int array; (* assignments spent per shard *)
    budget : int; (* max assignments per shard before Uncovered *)
  }

  let create ~shards ~budget =
    if shards < 1 then invalid_arg "Lease.Table.create: need at least 1 shard";
    if budget < 1 then invalid_arg "Lease.Table.create: need budget >= 1";
    {
      states = Array.make shards Pending;
      next_token = Array.make shards 1;
      grants = Array.make shards 0;
      budget;
    }

  let n_shards t = Array.length t.states
  let state t shard = t.states.(shard)

  (* Raise the fencing floor (resume/recovery: tokens seen on disk from an
     earlier coordinator incarnation must never be re-granted). *)
  let observe_token t ~shard ~token =
    if token >= t.next_token.(shard) then t.next_token.(shard) <- token + 1

  let mark_done_resumed t ~shard ~token =
    observe_token t ~shard ~token;
    t.states.(shard) <- Done { token; resumed = true }

  (* Grant the lowest pending shard. Budget is charged per grant: a shard
     that has already burned [budget] assignments is out of reassignment
     budget and degrades to Uncovered instead of being granted again. *)
  let grant t ~now ~ttl ~worker =
    let rec find shard =
      if shard >= Array.length t.states then None
      else
        match t.states.(shard) with
        | Pending when t.grants.(shard) < t.budget ->
            let token = t.next_token.(shard) in
            t.next_token.(shard) <- token + 1;
            t.grants.(shard) <- t.grants.(shard) + 1;
            t.states.(shard) <-
              Leased { worker; token; deadline = now +. ttl };
            Some (shard, token)
        | Pending ->
            t.states.(shard) <- Uncovered;
            find (shard + 1)
        | _ -> find (shard + 1)
    in
    find 0

  (* A heartbeat renews the lease only if it carries the current token; a
     stale heartbeat (the shard was reassigned from under the sender) tells
     the sender to abandon the shard. *)
  let renew t ~now ~ttl ~worker ~shard ~token =
    if shard < 0 || shard >= Array.length t.states then `Stale
    else
      match t.states.(shard) with
      | Leased l when l.token = token && l.worker = worker ->
          t.states.(shard) <- Leased { l with deadline = now +. ttl };
          `Renewed
      | _ -> `Stale

  (* Completion is fenced: only the current leaseholder's token is
     accepted, exactly once. Everything else — an expired lease's late
     finish, a duplicate message, a completion for an already-done shard —
     is [`Stale] and must not be merged. *)
  let complete t ~shard ~token =
    if shard < 0 || shard >= Array.length t.states then `Stale
    else
      match t.states.(shard) with
      | Leased l when l.token = token ->
          t.states.(shard) <- Done { token; resumed = false };
          `Accepted
      | _ -> `Stale

  (* The leaseholder reported failure (or its completed checkpoint failed
     validation): back to Pending if reassignment budget remains, else
     Uncovered. *)
  let fail t ~shard ~token =
    if shard < 0 || shard >= Array.length t.states then `Stale
    else
      match t.states.(shard) with
      | Leased l when l.token = token ->
          if t.grants.(shard) < t.budget then begin
            t.states.(shard) <- Pending;
            `Reassignable
          end
          else begin
            t.states.(shard) <- Uncovered;
            `Exhausted
          end
      | _ -> `Stale

  (* Expiry-driven reassignment: every lease whose deadline passed goes
     back to Pending (or Uncovered when the budget is spent). Returns the
     expired (shard, token, worker) triples so the caller can log and
     remove lease files. *)
  let expire t ~now =
    let expired = ref [] in
    Array.iteri
      (fun shard state ->
        match state with
        | Leased { worker; token; deadline } when deadline < now ->
            expired := (shard, token, worker) :: !expired;
            t.states.(shard) <-
              (if t.grants.(shard) < t.budget then Pending else Uncovered)
        | _ -> ())
      t.states;
    List.rev !expired

  (* A worker died: its leases expire immediately. *)
  let release_worker t ~worker =
    let released = ref [] in
    Array.iteri
      (fun shard state ->
        match state with
        | Leased l when l.worker = worker ->
            released := (shard, l.token) :: !released;
            t.states.(shard) <-
              (if t.grants.(shard) < t.budget then Pending else Uncovered)
        | _ -> ())
      t.states;
    List.rev !released

  (* No worker will ever come back (spawner gave up everywhere): whatever
     is still Pending can no longer be covered. *)
  let give_up_pending t =
    let given_up = ref [] in
    Array.iteri
      (fun shard state ->
        match state with
        | Pending ->
            given_up := shard :: !given_up;
            t.states.(shard) <- Uncovered
        | _ -> ())
      t.states;
    List.rev !given_up

  let settled t =
    Array.for_all
      (function Done _ | Uncovered -> true | Pending | Leased _ -> false)
      t.states

  let pending_count t =
    Array.fold_left
      (fun acc s -> match s with Pending -> acc + 1 | _ -> acc)
      0 t.states

  let leased_count t =
    Array.fold_left
      (fun acc s -> match s with Leased _ -> acc + 1 | _ -> acc)
      0 t.states

  let uncovered t =
    List.filter_map Fun.id
      (List.init (Array.length t.states) (fun shard ->
           match t.states.(shard) with
           | Uncovered -> Some shard
           | _ -> None))

  let done_tokens t =
    List.filter_map Fun.id
      (List.init (Array.length t.states) (fun shard ->
           match t.states.(shard) with
           | Done { token; resumed } -> Some (shard, token, resumed)
           | _ -> None))

  (* Extra assignments spent beyond the first grant of each shard — the
     distributed analogue of the in-process shard retry count. *)
  let reassignments t =
    Array.fold_left (fun acc g -> acc + max 0 (g - 1)) 0 t.grants
end

(* Shared by both sides: one trace event per protocol transition. *)
let emit_lease_event ~name ~args =
  Obs.count (Printf.sprintf "dist.lease.%s" name);
  if Obs.live () then Obs.emit ~kind:"lease" ~name ~args ()

let emit_worker_event ~name ~args =
  Obs.count (Printf.sprintf "dist.worker.%s" name);
  if Obs.live () then Obs.emit ~kind:"worker" ~name ~args ()
