(* The machine-speed reference for the analyze workloads.

   This machine's speed drifts by tens of percent over seconds to minutes,
   and the analysis's wall and CPU time drift with it. [seconds ()] times a
   fixed, allocation-heavy kernel that uses only the standard library, so
   no change to the program can move it: building a balanced map of
   [entries] pseudo-random keys with freshly allocated string values, then
   folding over it. The parent runs it in its own process between cold
   analyses, and scales each analysis's times by [reference] over the mean
   of the two kernel times around it (README.md has the measurements). *)

module M = Map.Make (Int)

let entries = 150_000

(* Seconds the kernel takes at the reference speed; scaled times read as
   the times the analysis would take at that speed. *)
let reference = 0.3

let kernel () =
  let x = ref 0x2545F491 in
  let m = ref M.empty in
  for i = 1 to entries do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := M.add (!x lsr 6) (string_of_int i) !m
  done;
  M.fold (fun k v acc -> acc + k + String.length v) !m 0

let seconds () =
  let t = Clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.now () -. t
