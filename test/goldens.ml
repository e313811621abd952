(* Every pinned report digest of the test suites, in one place, so a change
   that moves witness bytes, verdicts or drop records re-pins each value
   with one edit (and states why in CHANGES.md). The digests cover no
   wall-clock fields — see {!Achilles_core.Report.report_digest}. Witness
   bytes are canonical: each is the least message its Trojan query (and
   the blocks before it) admits under fixed preferred bit values
   ([Solver.witnesses]), on whichever solver instance finds it, so only a
   change to the queries or to those preferences moves them. *)

(* The FSP headline workload (16 class-blocked witnesses per path, all 80
   classes): Figure 10's discovery series and Figure 11's alive samples,
   from a run that starts with a reset solver and fresh-variable counter.
   [test_integration] and [test_obs] (traced) both check them. *)
let fig10_digest = "3e8d219036f0f270b12d72b1187c21a9"
let fig11_digest = "0f7bc3f897fc2fdb28e2d2e7bf624c9c"

(* The behaviour contract, end to end through the CLI: the report digest of
   `achilles analyze T --digest` for every bundled target, plus the
   benchmark's FSP configuration (16 witnesses per path). *)
let cli_digests =
  [
    ([ "rw" ], "a98f81c10bfd01f75ff29604f6f307d6");
    ([ "fsp" ], "ca1ecf36111ff80a5bb0ddde4b9eb865");
    ([ "pbft" ], "b0090364453b69870c7bbb4e3c551ded");
    ([ "kv" ], "93168eeba05eeb13b0d540d80617bc34");
    ([ "gossip" ], "7f05c8de00114bcabfec9780c0a03e6b");
    ([ "paxos" ], "60e720380aecd9d6ebcd680ab1281167");
    ([ "fsp"; "-w"; "16" ], "8d26ebb559a571bf55207e25426dcf30");
  ]

(* The same runs' verdicts: [achilles analyze T --digest]'s verdict digest,
   the report digest with every witness zeroed. A change that only moves
   the SAT models (a different CNF for the same terms) re-pins
   [cli_digests] and [fig10_digest] but must leave these, and
   [fig11_digest], as they are. *)
let verdict_digests =
  [
    ([ "rw" ], "8fe9f4d40906f05b8109f5dea6b61267");
    ([ "fsp" ], "416ca3c272583b687a8b14d46a0ab159");
    ([ "pbft" ], "9fe8f7d2c4b49f58d903cd9ff90c9078");
    ([ "kv" ], "23a31f9ae74aed7dd1040d260910184d");
    ([ "gossip" ], "2c5fb8b0eac191f19cdd3ea748dd1b50");
    ([ "paxos" ], "c98a3d1f649236463c7b159267d1a6d3");
    ([ "fsp"; "-w"; "16" ], "82c17cc27e593b39923a87e802ba8f2a");
  ]

(* The compiled filter images: the MD5 of the file
   `achilles compile-filter T -o F` writes, for every bundled target.
   Round trips only check that an image decodes to itself; these pin the
   op numbering and the wire format byte for byte. *)
let filter_digests =
  [
    ("rw", "fd9a07a8329a50eaf3ab3fc1addd4e88");
    ("fsp", "b6aa5cc6324b7141bf97bca3352e07aa");
    ("fsp-glob", "ebe148d20b4127e4f21229bed6adb744");
    ("pbft", "e210182f498b537b0336b1a8bbdf8df3");
    ("kv", "af72630df463592088cd4c52eed4fb5c");
    ("gossip", "8bed2699cbcca7836021e68408f4e819");
    ("paxos", "f0b7d05d234b541c1bfa170116ab92dd");
  ]

(* The whole run's SAT trajectory: [Solver.stats]' conflicts, decisions and
   propagations after `achilles analyze T -w 16`, summed over every solve on
   the scratch and frame instances, with differentFrom's slice shortcuts
   on and no injected faults (ACHILLES_SLICE=1, ACHILLES_SOLVER_FAULT_RATE=0;
   either switch changes which solves run). A solver change that claims to keep
   every decision keeps these; one that moves them moves models too. *)
let sat_counters =
  [
    ([ "fsp"; "-w"; "16" ], (936, 26313, 210085));
    ([ "pbft"; "-w"; "16" ], (10, 8419, 33484));
  ]
