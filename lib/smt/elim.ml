(* Word-level equation solving and substitution, before anything is
   bitblasted. STP (Ganesh & Dill, CAV 2007) solves and substitutes
   equalities at the word level before bitblasting; this module holds the
   two pieces of that the analysis uses.

   - Existential elimination of auxiliary variables (those [is_aux] names)
     from a conjunction: equations between concatenations whose segment
     widths align split segment-wise, and the one-point rule
     [∃x. x = e ∧ P(x) ≡ P(e)] (x auxiliary, not in e) substitutes them
     away. The filter compiler runs it on every Trojan query; the negate
     operator runs it on each field's disjunct, after cutting the
     equation between the server's field and a client value made of
     constants and fresh variables into one equation per slice.

   - Refutation by substitution: replace variables by terms, fold through
     the smart constructors, and read every subterm equal to a known fact
     as true. A term that folds to [False] is unsatisfiable together with
     the substitution's equations and the facts. A refutation can only
     ever answer "unsat"; a term that does not fold says nothing. *)

let has_aux ~is_aux t = List.exists is_aux (Term.var_ids t)

let rec flatten_and (t : Term.t) =
  match t.node with
  | And (a, b) -> flatten_and a @ flatten_and b
  | _ -> [ t ]

(* A term's concatenation segments, high bits first. *)
let rec segments (t : Term.t) =
  match t.node with
  | Concat (a, b) -> segments a @ segments b
  | _ -> [ t ]

let bare_aux ~is_aux (t : Term.t) =
  match t.node with Var v when is_aux v.id -> Some v | _ -> None

(* [a = b] between concatenations whose segment widths align pairwise:
   one equation per segment. [None] when the boundaries don't line up. *)
let split_eq a b =
  let sa = segments a and sb = segments b in
  if List.length sa <= 1 || List.length sa <> List.length sb then None
  else
    let rec go sa sb acc =
      match (sa, sb) with
      | [], [] -> Some (List.rev acc)
      | x :: xs, y :: ys when Term.width_of x = Term.width_of y ->
          go xs ys (Term.eq x y :: acc)
      | _ -> None
    in
    go sa sb []

(* Bits [hi..lo] of [t]: the run of [t]'s segments that covers exactly
   those bits when there is one, else an extract. *)
let slice t ~hi ~lo =
  let w = Term.width_of t in
  if hi = w - 1 && lo = 0 then t
  else
    let rec covering top = function
      | [] -> None
      | s :: rest ->
          let bottom = top - Term.width_of s + 1 in
          if top > hi then if bottom > hi then covering (bottom - 1) rest else None
          else if bottom = lo then Some [ s ]
          else if bottom < lo then None
          else Option.map (List.cons s) (covering (bottom - 1) rest)
    in
    match covering (w - 1) (segments t) with
    | Some run -> Term.concat_l run
    | None -> Term.extract ~hi ~lo t

let slice_eqs ~is_aux ~target value =
  let pieces = segments value in
  let solvable (p : Term.t) =
    match p.node with Const _ -> true | Var v -> is_aux v.id | _ -> false
  in
  if not (List.for_all solvable pieces) then None
  else
    let _, eqs =
      List.fold_left
        (fun (top, eqs) p ->
          let lo = top - Term.width_of p + 1 in
          (lo - 1, Term.eq (slice target ~hi:top ~lo) p :: eqs))
        (Term.width_of target - 1, [])
        pieces
    in
    Some (List.rev eqs)

(* Aligned concatenation equations over auxiliary variables, split. *)
let split_aligned ~is_aux conjs =
  List.concat_map
    (fun (c : Term.t) ->
      match c.node with
      | Eq (a, b)
        when has_aux ~is_aux c
             && bare_aux ~is_aux a = None
             && bare_aux ~is_aux b = None -> (
          match split_eq a b with Some eqs -> eqs | None -> [ c ])
      | _ -> [ c ])
    conjs

(* The first [x = e] conjunct with [x] auxiliary and not in [e]. *)
let find_one_point ~is_aux conjs =
  let solved x e =
    match bare_aux ~is_aux x with
    | Some v when not (List.mem v.Term.id (Term.var_ids e)) -> Some (v, e)
    | _ -> None
  in
  List.find_map
    (fun (c : Term.t) ->
      match c.node with
      | Eq (a, b) -> (
          match solved a b with
          | Some (v, e) -> Some (c, v, e)
          | None -> Option.map (fun (v, e) -> (c, v, e)) (solved b a))
      | _ -> None)
    conjs

let rec one_point ~is_aux conjs =
  let conjs = split_aligned ~is_aux conjs in
  match find_one_point ~is_aux conjs with
  | None -> conjs
  | Some (eq_conjunct, v, e) ->
      let subst_var (u : Term.var) = if u.id = v.id then Some e else None in
      one_point ~is_aux
        (List.filter_map
           (fun c ->
             if c == eq_conjunct then None else Some (Term.subst subst_var c))
           conjs)

let simplifier ?(facts = []) f =
  let known = Term.Tbl.create 16 in
  List.iter
    (fun fact ->
      List.iter
        (fun c ->
          Term.Tbl.replace known c true;
          Term.Tbl.replace known (Term.not_ c) false)
        (flatten_and fact))
    facts;
  let memo = Term.Tbl.create 64 in
  let rec go (t : Term.t) =
    match Term.Tbl.find_opt memo t with
    | Some u -> u
    | None ->
        let u =
          match t.node with
          | Var v -> Option.value (f v) ~default:t
          | _ -> Term.map_children go t
        in
        let u =
          match Term.Tbl.find_opt known u with
          | Some b -> Term.bool b
          | None -> u
        in
        Term.Tbl.replace memo t u;
        u
  in
  go

let refuter ?facts f =
  let simplify = simplifier ?facts f in
  fun t -> Term.equal (simplify t) Term.fls
