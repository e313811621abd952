(** A parallel map over domains, for the route shards of the Trojan search.

    Determinism: results are placed by task index, so the output never
    depends on which domain ran which task or in what order tasks
    finished. *)

val max_domains : int
(** 128, OCaml's limit on live domains: [Domain.spawn] fails past it. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** [map ~domains f arr] applies [f] to every element; slot [i] is
    [Ok (f arr.(i))], or [Error e] if that call raised [e] — a raising task
    never stops its siblings. The caller works as one of the [domains]
    workers and [min domains (Array.length arr) - 1] more domains are
    spawned for the call and joined before it returns, so [domains = 1]
    runs every task inline on the caller. Workers claim tasks highest index
    first. Raises [Invalid_argument] for [domains] outside
    [\[1, max_domains\]] before spawning anything; if a spawn fails
    anyway, the domains already started are joined and the spawn's
    exception is re-raised. *)
