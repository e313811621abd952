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
let fig10_digest = "9dd99893fd3957160261026462b47b93"
let fig11_digest = "0f7bc3f897fc2fdb28e2d2e7bf624c9c"

(* The behaviour contract, end to end through the CLI: the report digest of
   `achilles analyze T --digest` for every bundled target, plus the
   benchmark's FSP configuration (16 witnesses per path). *)
let cli_digests =
  [
    ([ "rw" ], "9a8fe925b7051feaf02928147ebff8fb");
    ([ "fsp" ], "7096d74ac113c463dee3c4dd29284f6b");
    ([ "pbft" ], "9d7700827a678cc4926127c3227e5b92");
    ([ "kv" ], "30ba99c27ab74f8817a238c6f6da2df8");
    ([ "gossip" ], "d368d5c424a2a5f00e93b8c5fad3e14d");
    ([ "paxos" ], "60e720380aecd9d6ebcd680ab1281167");
    ([ "fsp"; "-w"; "16" ], "39c4fd16d1894c8652518b5fc42f7dea");
  ]

(* The same runs' verdicts: [achilles analyze T --digest]'s verdict digest,
   the report digest with every witness zeroed. A change that only moves
   the SAT models (a different CNF for the same terms) re-pins
   [cli_digests] and [fig10_digest] but must leave these, and
   [fig11_digest], as they are. *)
let verdict_digests =
  [
    ([ "rw" ], "dbdf4574a76c9e4193efee2638c42424");
    ([ "fsp" ], "38c5e006a8e6b32af2781ebfa36d4cf8");
    ([ "pbft" ], "0a0ddeddcc2e35a8614c412453b1dfab");
    ([ "kv" ], "c5f37753999ecf5f723f4b69a9feaedb");
    ([ "gossip" ], "c1db2f1b0fa1aab88de1b666fc75e1a0");
    ([ "paxos" ], "c98a3d1f649236463c7b159267d1a6d3");
    ([ "fsp"; "-w"; "16" ], "3b5a0e9cdaa78fbd8dba58e263f98f3b");
  ]

(* The compiled filter images: the MD5 of the file
   `achilles compile-filter T -o F` writes, for every bundled target.
   Round trips only check that an image decodes to itself; these pin the
   op numbering and the wire format byte for byte. *)
let filter_digests =
  [
    ("rw", "8c1ce053e56566e715445de9d239aed9");
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
    ([ "fsp"; "-w"; "16" ], (139, 8225, 84321));
    ([ "pbft"; "-w"; "16" ], (1, 7523, 29556));
  ]
