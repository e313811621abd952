(* Every pinned report digest of the test suites, in one place, so a change
   that moves witness bytes, verdicts or drop records re-pins each value
   with one edit (and states why in CHANGES.md). The digests cover no
   wall-clock fields — see {!Achilles_core.Report.report_digest}. *)

(* The FSP headline workload (16 class-blocked witnesses per path, all 80
   classes): Figure 10's discovery series and Figure 11's alive samples,
   from a run that starts with a reset solver and fresh-variable counter.
   [test_integration] and [test_obs] (traced) both check them. *)
let fig10_digest = "b1065bd84bbc003cbaf7375a8e17526e"
let fig11_digest = "0f7bc3f897fc2fdb28e2d2e7bf624c9c"

(* The behaviour contract, end to end through the CLI: the report digest of
   `achilles analyze T --digest` for every bundled target, plus the
   benchmark's FSP configuration (16 witnesses per path). *)
let cli_digests =
  [
    ([ "rw" ], "bc011355fbc4ee232c661415aded191e");
    ([ "fsp" ], "6f5ead9b8f9a3737156be7b9c8ea22d9");
    ([ "pbft" ], "8570169d20b711bad3a0c7d4cc358ba7");
    ([ "kv" ], "6056422eb29e573d6155fa423d21618e");
    ([ "gossip" ], "9c8a08deb81e2d59f3a2db407f03047b");
    ([ "paxos" ], "2fb75f026cd9a9387a731cbef82e969a");
    ([ "fsp"; "-w"; "16" ], "07917e211cd6221b1d0b6e4242662b6e");
  ]
