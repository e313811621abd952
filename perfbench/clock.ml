(* Seconds on CLOCK_MONOTONIC: nanosecond resolution, never stepped, and
   comparable between processes on one machine. *)
external now : unit -> (float[@unboxed])
  = "perfbench_monotonic" "perfbench_monotonic_unboxed"
[@@noalloc]
