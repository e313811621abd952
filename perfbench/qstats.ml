(* Order statistics over a run's samples. *)

(* [quantiles samples qs]: linear interpolation between closest ranks (the
   rule numpy and R call type 7), one sort for all requested quantiles.
   [nan] for an empty sample. *)
let quantiles samples qs =
  let n = Array.length samples in
  if n = 0 then List.map (fun _ -> Float.nan) qs
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    List.map
      (fun q ->
        let h = float_of_int (n - 1) *. q in
        let lo = int_of_float (Float.floor h) in
        let hi = min (n - 1) (lo + 1) in
        s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo))))
      qs
  end

let quantile samples q = List.hd (quantiles samples [ q ])
let median samples = quantile samples 0.5
