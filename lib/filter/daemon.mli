(** Serve a compiled filter over a socket.

    A single-process [select] loop speaking a length-prefixed framing:

    - request: a 4-byte big-endian unsigned length, then that many message
      bytes;
    - response: 5 bytes — one verdict character ([{'A'|'T'|'U'}] for
      accept / trojan-suspect / unknown-state) followed by a 4-byte
      big-endian state id ([0xFFFFFFFF] when there is none).

    The [STATS] wire command is the daemon's counter surface: a frame whose
    length word is the reserved sentinel [0xFFFFFFFF] (no payload) gets back
    a length-prefixed [key value] text block — uptime, connection/message/
    verdict counts, dropped frames, refused connections, and latency
    count/sum/p50/p95/p99 — instead of a verdict (historically any frame
    over [max_frame] dropped the connection, so no existing client ever sent
    the sentinel).

    At most 1,000 connections are open at once, so every fd the loop
    watches stays below [select]'s FD_SETSIZE. A connection past the cap is
    accepted and closed at once (the client reads EOF), and counts in
    [refused].

    A frame whose length does not match the filter's message size gets an
    honest ['U']; a frame longer than [max_frame] drops the connection and
    counts in [dropped_frames]. Every verdict is timed once and charged to
    the {!Achilles_obs.Obs.Filter_eval} phase and to a per-connection
    latency histogram (folded into the STATS reply), and bumps a
    [filter.accept] / [filter.trojan_suspect] / [filter.unknown] counter. *)

type address =
  | Unix_socket of string  (** path; an existing socket file is replaced *)
  | Tcp of string * int  (** bind address and port, [SO_REUSEADDR] set *)

type stats = {
  connections : int;
  messages : int;
  accepts : int;
  trojan_suspects : int;
  unknowns : int;
  dropped_frames : int;
  refused : int;  (** connections closed on accept at the connection cap *)
}

val run :
  ?max_frame:int ->
  filter:Filter.t ->
  address:address ->
  stop:(unit -> bool) ->
  unit ->
  stats
(** Serve until [stop ()] turns true (polled a few times a second and
    between frames; [EINTR] from a signal wakes the poll immediately).
    Returns after every connection is closed and, for a Unix socket, the
    socket file is unlinked. [max_frame] defaults to 1 MiB. *)

val pp_stats : Format.formatter -> stats -> unit
