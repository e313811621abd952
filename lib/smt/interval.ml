type bounds = { lo : int64; hi : int64 }

let ucmp = Int64.unsigned_compare
let umin a b = if ucmp a b <= 0 then a else b
let umax a b = if ucmp a b >= 0 then a else b

type acc = {
  ivals : (int, Term.var * bounds * int) Hashtbl.t;
  (* var id -> the var, its bounds, and when they were last refined: the
     stamp only orders [analyze]'s output, newest first, the order the
     compiled filter writes its byte gates in, and so keeps filter images
     byte-identical (test_filter "image digests") *)
  mutable refinements : int;
  mutable neqs : (int * int64) list; (* var id, excluded value *)
  mutable empty : bool;
}

let full_bounds (v : Term.var) =
  match v.sort with
  | Term.Bitvec w -> { lo = 0L; hi = Bv.value (Bv.ones w) }
  | Term.Bool -> { lo = 0L; hi = 1L }

let refine acc (v : Term.var) ~lo ~hi =
  if not acc.empty then begin
    let current =
      match Hashtbl.find_opt acc.ivals v.id with
      | Some (_, b, _) -> b
      | None -> full_bounds v
    in
    let lo = umax current.lo lo and hi = umin current.hi hi in
    if ucmp lo hi > 0 then acc.empty <- true
    else begin
      acc.refinements <- acc.refinements + 1;
      Hashtbl.replace acc.ivals v.id (v, { lo; hi }, acc.refinements)
    end
  end

let exclude acc (v : Term.var) value = acc.neqs <- (v.id, value) :: acc.neqs

(* Recognize [atom] (positively or negatively) as a bound on a single
   variable. Anything unrecognized is ignored, which is sound. *)
let rec scan acc ~positive (atom : Term.t) =
  let max_of (v : Term.var) = (full_bounds v).hi in
  match atom.Term.node, positive with
  | Term.Not t, _ -> scan acc ~positive:(not positive) t
  | Term.And (a, b), true ->
      scan acc ~positive:true a;
      scan acc ~positive:true b
  | Term.Eq ({ node = Var v; _ }, { node = Const c; _ }), true
  | Term.Eq ({ node = Const c; _ }, { node = Var v; _ }), true ->
      refine acc v ~lo:(Bv.value c) ~hi:(Bv.value c)
  | Term.Eq ({ node = Var v; _ }, { node = Const c; _ }), false
  | Term.Eq ({ node = Const c; _ }, { node = Var v; _ }), false ->
      exclude acc v (Bv.value c)
  | Term.Ult ({ node = Var v; _ }, { node = Const c; _ }), true ->
      (* x < c; c = 0 cannot be produced by the smart constructors *)
      if Bv.value c = 0L then acc.empty <- true
      else refine acc v ~lo:0L ~hi:(Int64.sub (Bv.value c) 1L)
  | Term.Ult ({ node = Var v; _ }, { node = Const c; _ }), false ->
      refine acc v ~lo:(Bv.value c) ~hi:(max_of v)
  | Term.Ult ({ node = Const c; _ }, { node = Var v; _ }), true ->
      if ucmp (Bv.value c) (max_of v) >= 0 then acc.empty <- true
      else refine acc v ~lo:(Int64.add (Bv.value c) 1L) ~hi:(max_of v)
  | Term.Ult ({ node = Const c; _ }, { node = Var v; _ }), false ->
      refine acc v ~lo:0L ~hi:(Bv.value c)
  | Term.Ule ({ node = Var v; _ }, { node = Const c; _ }), true ->
      refine acc v ~lo:0L ~hi:(Bv.value c)
  | Term.Ule ({ node = Var v; _ }, { node = Const c; _ }), false ->
      if ucmp (Bv.value c) (max_of v) >= 0 then acc.empty <- true
      else refine acc v ~lo:(Int64.add (Bv.value c) 1L) ~hi:(max_of v)
  | Term.Ule ({ node = Const c; _ }, { node = Var v; _ }), true ->
      refine acc v ~lo:(Bv.value c) ~hi:(max_of v)
  | Term.Ule ({ node = Const c; _ }, { node = Var v; _ }), false ->
      if Bv.value c = 0L then acc.empty <- true
      else refine acc v ~lo:0L ~hi:(Int64.sub (Bv.value c) 1L)
  | Term.False, true | Term.True, false -> acc.empty <- true
  | _ -> ()

(* Narrow [b] past the excluded values at its edges; [None] once empty. *)
let rec tighten acc (v : Term.var) b =
  let excluded x =
    List.exists (fun (id, y) -> id = v.id && Int64.equal y x) acc.neqs
  in
  if ucmp b.lo b.hi > 0 then None
  else if excluded b.lo then
    if Int64.equal b.lo b.hi then None
    else tighten acc v { b with lo = Int64.add b.lo 1L }
  else if excluded b.hi then
    if Int64.equal b.lo b.hi then None
    else tighten acc v { b with hi = Int64.sub b.hi 1L }
  else Some b

(* Scan [terms], then tighten every refined variable's bounds past its
   excluded values; [empty] is set once some interval is empty. *)
let scan_all terms =
  let acc =
    { ivals = Hashtbl.create 8; refinements = 0; neqs = []; empty = false }
  in
  List.iter (scan acc ~positive:true) terms;
  (* [refine] keeps every interval non-empty, so only exclusions can empty
     one here *)
  if (not acc.empty) && acc.neqs <> [] then
    Hashtbl.filter_map_inplace
      (fun _ (v, b, k) ->
        match tighten acc v b with
        | Some b -> Some (v, b, k)
        | None ->
            acc.empty <- true;
            None)
      acc.ivals;
  acc

let analyze terms =
  let acc = scan_all terms in
  if acc.empty then None
  else
    Some
      (Hashtbl.fold (fun _ e l -> e :: l) acc.ivals []
      |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare b a)
      |> List.map (fun (v, b, _) -> (v, b)))

let definitely_unsat terms = (scan_all terms).empty
