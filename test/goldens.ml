(* Every pinned report digest of the test suites, in one place, so a change
   that moves witness bytes, verdicts or drop records re-pins each value
   with one edit (and states why in CHANGES.md). The digests cover no
   wall-clock fields — see {!Achilles_core.Report.report_digest}. *)

(* The FSP headline workload (16 class-blocked witnesses per path, all 80
   classes): Figure 10's discovery series and Figure 11's alive samples,
   from a run that starts with a reset solver and fresh-variable counter.
   [test_integration] and [test_obs] (traced) both check them. *)
let fig10_digest = "ca66691484e342c4906bc89d92dabef1"
let fig11_digest = "0f7bc3f897fc2fdb28e2d2e7bf624c9c"

(* The behaviour contract, end to end through the CLI: the report digest of
   `achilles analyze T --digest` for every bundled target, plus the
   benchmark's FSP configuration (16 witnesses per path). *)
let cli_digests =
  [
    ([ "rw" ], "a2e15d4d5b98985e2414fb141ab775bf");
    ([ "fsp" ], "683f6a58092c0ba8dae9ec44380d474c");
    ([ "pbft" ], "e1576b9502971afdc1871e36c1c3e8d7");
    ([ "kv" ], "366b0a72f7493b182c48cbc187a3b40a");
    ([ "gossip" ], "98ef325f9fb9c9387482a182493066e3");
    ([ "paxos" ], "3ba694eeaf458630c445ebdb086a8438");
    ([ "fsp"; "-w"; "16" ], "7a56240f72974b71f6ee89b187b5e5c7");
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
   the scratch and frame instances, with the slice oracle on and no
   injected faults (ACHILLES_SLICE=1, ACHILLES_SOLVER_FAULT_RATE=0; either
   switch changes which solves run). A solver change that claims to keep
   every decision keeps these; one that moves them moves models too. *)
let sat_counters =
  [
    ([ "fsp"; "-w"; "16" ], (1348, 32323, 273448));
    ([ "pbft"; "-w"; "16" ], (38, 8202, 32023));
  ]
