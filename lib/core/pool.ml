(* One parallel map per call: spawn the domains, share the work through one
   atomic claim counter, join. Tasks are coarse (a whole route shard of the
   server search), so a claim per task costs nothing next to the solver
   work inside it. *)

(* OCaml 5.1's [Max_domains] *)
let max_domains = 128

let map ~domains f arr =
  if domains < 1 || domains > max_domains then
    invalid_arg "Pool.map: domains outside [1, max_domains]";
  let n = Array.length arr in
  (* every slot is overwritten before the last join returns *)
  let results = Array.make n (Error Exit) in
  let next = Atomic.make 0 in
  let rec work () =
    let k = Atomic.fetch_and_add next 1 in
    if k < n then begin
      (* highest index first: FSP's heaviest shard is its last *)
      let i = n - 1 - k in
      results.(i) <- (try Ok (f arr.(i)) with exn -> Error exn);
      work ()
    end
  in
  let spawned = ref [] in
  (try
     for _ = 2 to min domains n do
       spawned := Domain.spawn work :: !spawned
     done
   with exn ->
     (* claim nothing more, let the started domains finish their task *)
     Atomic.set next n;
     List.iter Domain.join !spawned;
     raise exn);
  work ();
  List.iter Domain.join !spawned;
  results
