type bounds = { lo : int64; hi : int64 }

let ucmp = Int64.unsigned_compare
let umin a b = if ucmp a b <= 0 then a else b
let umax a b = if ucmp a b >= 0 then a else b

module Imap = Map.Make (Int)

(* Persistent, so a frame stack keeps one per frame and a query extends its
   innermost frame's without copying or undoing anything. *)
type carry = {
  ivals : (Term.var * bounds * int) Imap.t;
  (* var id -> the var, its bounds, and when they were last refined: the
     stamp only orders [analyze]'s output, newest first, the order the
     compiled filter writes its byte gates in, and so keeps filter images
     byte-identical (test_filter "image digests") *)
  refinements : int;
  neqs : int64 list Imap.t; (* var id -> excluded values *)
  empty : bool;
}

let top =
  { ivals = Imap.empty; refinements = 0; neqs = Imap.empty; empty = false }

let full_bounds (v : Term.var) =
  match v.sort with
  | Term.Bitvec w -> { lo = 0L; hi = Bv.value (Bv.ones w) }
  | Term.Bool -> { lo = 0L; hi = 1L }

let emptied acc = if acc.empty then acc else { acc with empty = true }

let refine acc (v : Term.var) ~lo ~hi =
  if acc.empty then acc
  else begin
    let current =
      match Imap.find_opt v.id acc.ivals with
      | Some (_, b, _) -> b
      | None -> full_bounds v
    in
    let lo = umax current.lo lo and hi = umin current.hi hi in
    if ucmp lo hi > 0 then emptied acc
    else
      let refinements = acc.refinements + 1 in
      {
        acc with
        refinements;
        ivals = Imap.add v.id (v, { lo; hi }, refinements) acc.ivals;
      }
  end

let exclude acc (v : Term.var) value =
  let values = Option.value ~default:[] (Imap.find_opt v.id acc.neqs) in
  { acc with neqs = Imap.add v.id (value :: values) acc.neqs }

(* Recognize [atom] (positively or negatively) as a bound on a single
   variable. Anything unrecognized is ignored, which is sound. *)
let rec scan acc ~positive (atom : Term.t) =
  let max_of (v : Term.var) = (full_bounds v).hi in
  match atom.Term.node, positive with
  | Term.Not t, _ -> scan acc ~positive:(not positive) t
  | Term.And (a, b), true ->
      scan (scan acc ~positive:true a) ~positive:true b
  | Term.Eq ({ node = Var v; _ }, { node = Const c; _ }), true
  | Term.Eq ({ node = Const c; _ }, { node = Var v; _ }), true ->
      refine acc v ~lo:(Bv.value c) ~hi:(Bv.value c)
  | Term.Eq ({ node = Var v; _ }, { node = Const c; _ }), false
  | Term.Eq ({ node = Const c; _ }, { node = Var v; _ }), false ->
      exclude acc v (Bv.value c)
  | Term.Ult ({ node = Var v; _ }, { node = Const c; _ }), true ->
      (* x < c; c = 0 cannot be produced by the smart constructors *)
      if Bv.value c = 0L then emptied acc
      else refine acc v ~lo:0L ~hi:(Int64.sub (Bv.value c) 1L)
  | Term.Ult ({ node = Var v; _ }, { node = Const c; _ }), false ->
      refine acc v ~lo:(Bv.value c) ~hi:(max_of v)
  | Term.Ult ({ node = Const c; _ }, { node = Var v; _ }), true ->
      if ucmp (Bv.value c) (max_of v) >= 0 then emptied acc
      else refine acc v ~lo:(Int64.add (Bv.value c) 1L) ~hi:(max_of v)
  | Term.Ult ({ node = Const c; _ }, { node = Var v; _ }), false ->
      refine acc v ~lo:0L ~hi:(Bv.value c)
  | Term.Ule ({ node = Var v; _ }, { node = Const c; _ }), true ->
      refine acc v ~lo:0L ~hi:(Bv.value c)
  | Term.Ule ({ node = Var v; _ }, { node = Const c; _ }), false ->
      if ucmp (Bv.value c) (max_of v) >= 0 then emptied acc
      else refine acc v ~lo:(Int64.add (Bv.value c) 1L) ~hi:(max_of v)
  | Term.Ule ({ node = Const c; _ }, { node = Var v; _ }), true ->
      refine acc v ~lo:(Bv.value c) ~hi:(max_of v)
  | Term.Ule ({ node = Const c; _ }, { node = Var v; _ }), false ->
      if Bv.value c = 0L then emptied acc
      else refine acc v ~lo:0L ~hi:(Int64.sub (Bv.value c) 1L)
  | Term.False, true | Term.True, false -> emptied acc
  | _ -> acc

let extend acc term = scan acc ~positive:true term

(* Narrow [b] past the [excluded] values at its edges; [None] once empty. *)
let rec tighten excluded b =
  if ucmp b.lo b.hi > 0 then None
  else if List.exists (Int64.equal b.lo) excluded then
    if Int64.equal b.lo b.hi then None
    else tighten excluded { b with lo = Int64.add b.lo 1L }
  else if List.exists (Int64.equal b.hi) excluded then
    if Int64.equal b.lo b.hi then None
    else tighten excluded { b with hi = Int64.sub b.hi 1L }
  else Some b

(* [refine] keeps every interval non-empty, so only exclusions can empty
   one here, and only a variable with both bounds and exclusions needs
   tightening. *)
let unsat acc =
  acc.empty
  || Imap.exists
       (fun id excluded ->
         match Imap.find_opt id acc.ivals with
         | Some (_, b, _) -> Option.is_none (tighten excluded b)
         | None -> false)
       acc.neqs

let analyze terms =
  let acc = List.fold_left extend top terms in
  if unsat acc then None
  else
    Some
      (Imap.fold
         (fun id (v, b, k) l ->
           match Imap.find_opt id acc.neqs with
           | Some excluded -> (v, Option.get (tighten excluded b), k) :: l
           | None -> (v, b, k) :: l)
         acc.ivals []
      |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare b a)
      |> List.map (fun (v, b, _) -> (v, b)))

let definitely_unsat terms = unsat (List.fold_left extend top terms)
