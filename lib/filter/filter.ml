(* Compile per-state Trojan queries into a decision DAG over message bytes.

   The compiler's job is existential-variable elimination: a Trojan query
   mentions the server's symbolic message bytes plus auxiliary variables
   (fresh-renamed client inputs the negate operator could not solve away,
   over-approximated server local state), and the solver decides it
   existentially. The filter must answer the same question from concrete
   bytes alone, so every auxiliary variable is resolved at compile time:

   - the one-point rule ([Elim.one_point], shared with the negate
     operator): equations between concatenations split segment-wise when
     the segment widths align, then an [x = e] conjunct with [x] auxiliary
     and [x] not in [e] substitutes [e] for [x];
   - atom-level QE: when an auxiliary variable's occurrences are confined
     to one atom (or negated atom), [∃x. atom] rewrites to an aux-free
     residual (e.g. [∃l. rid <> l] over a w-bit [l] is simply true);
   - leftovers are projected onto their message bytes by solver model
     enumeration (bounded), collapsed to unsigned ranges;
   - closed leftovers (no message bytes) are decided by one solver call.

   What survives all of that becomes a three-valued Unknown leaf: the
   filter reports Unknown_state rather than guessing. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
module T = Term
module Obs = Achilles_obs.Obs

(* --- IR -------------------------------------------------------------------- *)

(* The operators applied to op operands, in wire order: an [Oapp] is
   written as the tag [5 + position in prims], then its [arity] operands. *)
type prim =
  | Not
  | And
  | Or
  | Ite
  | Eq
  | Ult
  | Slt
  | Ule
  | Sle
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | Bnot
  | Band
  | Bor
  | Bxor
  | Shl
  | Lshr
  | Ashr
  | Concat (* first operand holds the high bits *)

let prims =
  [| Not; And; Or; Ite; Eq; Ult; Slt; Ule; Sle; Add; Sub; Mul; Udiv; Urem;
     Bnot; Band; Bor; Bxor; Shl; Lshr; Ashr; Concat |]

let arity = function Not | Bnot -> 1 | Ite -> 3 | _ -> 2

type op =
  | Obyte of int (* message byte, 8-bit value *)
  | Oconst of Bv.t
  | Obool of bool
  | Ounknown (* three-valued bottom: verdict depends on untracked state *)
  | Oapp of prim * int array (* [arity prim] operand op indices *)
  | Oextract of int * int * int (* hi, lo, operand *)
  | Oinset of int * (int64 * int64) array
      (* unsigned membership of the operand in a union of inclusive ranges *)

type gate = { g_byte : int; g_lo : int; g_hi : int } (* inclusive bounds *)

type state_filter = {
  st_id : int;
  st_label : string;
  st_gates : gate array;
  st_root : int; (* boolean op index: the state's Trojan query *)
  st_ops : int array; (* ops reachable from the root, ascending *)
}

type t = {
  f_target : string;
  f_layout : string;
  f_message_size : int;
  f_unknowns : int;
  f_ops : op array;
  f_states : state_filter array;
}

type verdict = Accept | Trojan_suspect of int | Unknown_state

let target t = t.f_target
let layout_name t = t.f_layout
let message_size t = t.f_message_size
let state_count t = Array.length t.f_states
let op_count t = Array.length t.f_ops
let unknown_leaves t = t.f_unknowns

let state_label t id =
  Array.fold_left
    (fun acc st -> if st.st_id = id then Some st.st_label else acc)
    None t.f_states

(* --- static sorts (shared by the compiler's checks and decode validation) -- *)

type osort = SBool | SBv of int

exception Invalid_program of string

let op_sort ops sorts i =
  let s j =
    if j < 0 || j >= i then raise (Invalid_program "dangling op reference")
    else sorts.(j)
  in
  let bv j = match s j with SBv w -> w | SBool -> raise (Invalid_program "expected bitvector operand") in
  let boolean j = match s j with SBool -> () | SBv _ -> raise (Invalid_program "expected boolean operand") in
  let same_bv a b =
    let wa = bv a and wb = bv b in
    if wa <> wb then raise (Invalid_program "operand width mismatch");
    wa
  in
  match ops.(i) with
  | Obyte _ -> SBv 8
  | Oconst c -> SBv (Bv.width c)
  | Obool _ | Ounknown -> SBool
  | Oapp (p, a) -> (
      match p with
      | Not ->
          boolean a.(0);
          SBool
      | And | Or ->
          boolean a.(0);
          boolean a.(1);
          SBool
      | Ite ->
          boolean a.(0);
          if s a.(1) <> s a.(2) then
            raise (Invalid_program "ite branch sort mismatch");
          s a.(1)
      | Eq ->
          if s a.(0) <> s a.(1) then raise (Invalid_program "eq sort mismatch");
          SBool
      | Ult | Slt | Ule | Sle ->
          ignore (same_bv a.(0) a.(1));
          SBool
      | Add | Sub | Mul | Udiv | Urem | Band | Bor | Bxor | Shl | Lshr | Ashr ->
          SBv (same_bv a.(0) a.(1))
      | Bnot -> SBv (bv a.(0))
      | Concat ->
          let w = bv a.(0) + bv a.(1) in
          if w > 64 then raise (Invalid_program "concat wider than 64 bits");
          SBv w)
  | Oextract (hi, lo, a) ->
      let w = bv a in
      if not (0 <= lo && lo <= hi && hi < w) then
        raise (Invalid_program "extract out of range");
      SBv (hi - lo + 1)
  | Oinset (a, ranges) ->
      ignore (bv a);
      Array.iter
        (fun (lo, hi) ->
          if Int64.unsigned_compare lo hi > 0 then
            raise (Invalid_program "inset range inverted"))
        ranges;
      SBool

(* Sorts of every op, validating structure along the way. *)
let sorts_of ops =
  let sorts = Array.make (Array.length ops) SBool in
  Array.iteri (fun i _ -> sorts.(i) <- op_sort ops sorts i) ops;
  sorts

let validate ft =
  let n = Array.length ft.f_ops in
  if ft.f_message_size < 1 || ft.f_message_size > 0x10000 then
    raise (Invalid_program "implausible message size");
  Array.iter
    (function
      | Obyte b ->
          if b < 0 || b >= ft.f_message_size then
            raise (Invalid_program "byte index out of range")
      | Oconst c ->
          if Bv.width c < 1 || Bv.width c > 64 then
            raise (Invalid_program "constant width out of range")
      | _ -> ())
    ft.f_ops;
  let sorts = sorts_of ft.f_ops in
  Array.iter
    (fun st ->
      if st.st_root < 0 || st.st_root >= n then
        raise (Invalid_program "state root out of range");
      if sorts.(st.st_root) <> SBool then
        raise (Invalid_program "state root is not boolean");
      Array.iter
        (fun g ->
          if g.g_byte < 0 || g.g_byte >= ft.f_message_size then
            raise (Invalid_program "gate byte out of range");
          if g.g_lo < 0 || g.g_hi > 255 || g.g_lo > g.g_hi then
            raise (Invalid_program "gate bounds out of range"))
        st.st_gates)
    ft.f_states;
  ft

(* Ops reachable from a root, ascending. Operands always precede their op,
   so an ascending scan evaluates dependencies first. *)
let reachable ops root =
  let seen = Array.make (Array.length ops) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      match ops.(i) with
      | Obyte _ | Oconst _ | Obool _ | Ounknown -> ()
      | Oapp (_, args) -> Array.iter visit args
      | Oextract (_, _, a) | Oinset (a, _) -> visit a
    end
  in
  visit root;
  let acc = ref [] in
  for i = Array.length ops - 1 downto 0 do
    if seen.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

(* --- existential elimination ----------------------------------------------- *)

let has_aux is_aux t = Elim.has_aux ~is_aux t
let aux_ids is_aux t = List.filter is_aux (T.var_ids t)
let flatten_and = Elim.flatten_and
let bare_aux is_aux t = Elim.bare_aux ~is_aux t

let smin w = Bv.make ~width:w (Int64.shift_left 1L (w - 1))
let smax w = Bv.lognot (smin w)

(* [∃x. atom] (or [∃x. ¬atom] with [neg]) where [x] is auxiliary, appears
   on exactly one side, and the other side [e] is aux-free: rewrite to an
   aux-free residual over [e]. *)
let qe_atom is_aux ~neg t =
  let free e = not (has_aux is_aux e) in
  let residual_bv mk e = Some (mk e) in
  match t.T.node with
  | T.Var v when is_aux v.T.id -> Some T.tru (* ∃x. x and ∃x. ¬x alike *)
  | T.Eq (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b -> Some T.tru
        (* positive: x := e; negated: every sort here has >= 2 values
           (booleans, or bitvectors of width >= 1) *)
      | _, Some _ when free a -> Some T.tru
      | _ -> None)
  | T.Ult (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then Some T.tru (* x >= e: x = ones *)
          else residual_bv (fun e -> T.neq e (T.const (Bv.zero (T.width_of e)))) b
      | _, Some _ when free a ->
          if neg then Some T.tru (* x <= e: x = 0 *)
          else residual_bv (fun e -> T.neq e (T.const (Bv.ones (T.width_of e)))) a
      | _ -> None)
  | T.Ule (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (Bv.ones (T.width_of e)))) b
          else Some T.tru (* x = 0 *)
      | _, Some _ when free a ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (Bv.zero (T.width_of e)))) a
          else Some T.tru (* x = ones *)
      | _ -> None)
  | T.Slt (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then Some T.tru (* x >=s e: x = smax *)
          else residual_bv (fun e -> T.neq e (T.const (smin (T.width_of e)))) b
      | _, Some _ when free a ->
          if neg then Some T.tru (* x <=s e: x = smin *)
          else residual_bv (fun e -> T.neq e (T.const (smax (T.width_of e)))) a
      | _ -> None)
  | T.Sle (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (smax (T.width_of e)))) b
          else Some T.tru (* x = smin *)
      | _, Some _ when free a ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (smin (T.width_of e)))) a
          else Some T.tru (* x = smax *)
      | _ -> None)
  | _ -> None

(* Group conjuncts into components connected by shared auxiliary ids. *)
let components is_aux conjs =
  let tagged = List.map (fun c -> (aux_ids is_aux c, [ c ])) conjs in
  let overlap a b = List.exists (fun id -> List.mem id b) a in
  let rec insert (ids, cs) = function
    | [] -> [ (ids, cs) ]
    | (ids', cs') :: rest ->
        if overlap ids ids' then
          insert (List.sort_uniq compare (ids @ ids'), cs @ cs') rest
        else (ids', cs') :: insert (ids, cs) rest
  in
  List.fold_left (fun acc grp -> insert grp acc) [] tagged
  |> List.map snd |> List.rev

let rec elim_term is_aux t =
  if not (has_aux is_aux t) then t
  else
    match t.T.node with
    | T.Or (a, b) ->
        (* ∃ always distributes over disjunction *)
        T.or_ (elim_term is_aux a) (elim_term is_aux b)
    | T.And _ -> elim_conj is_aux (flatten_and t)
    | T.Not a -> (
        match qe_atom is_aux ~neg:true a with
        | Some r -> r
        | None -> (
            (* ¬¬a, ¬(a ∨ b), ¬(a ∧ b) open up; anything else is stuck *)
            match a.T.node with
            | T.Not b -> elim_term is_aux b
            | T.Or (x, y) ->
                elim_conj is_aux (flatten_and (T.and_ (T.not_ x) (T.not_ y)))
            | T.And (x, y) ->
                elim_term is_aux (T.or_ (T.not_ x) (T.not_ y))
            | _ -> t))
    | T.Ite (c, x, y) when T.sort_of t = T.Bool ->
        elim_term is_aux (T.or_ (T.and_ c x) (T.and_ (T.not_ c) y))
    | _ -> ( match qe_atom is_aux ~neg:false t with Some r -> r | None -> t)

(* [∃(aux vars). AND conjs]. *)
and elim_conj is_aux conjs =
  (* the one-point rule, after splitting aligned concat equations *)
  let conjs = Elim.one_point ~is_aux conjs in
  let plain, auxed = List.partition (fun c -> not (has_aux is_aux c)) conjs in
  let resolved =
    List.concat_map
      (fun comp ->
        match comp with
        | [ single ] ->
            (* all of its aux vars are private to it: descend *)
            let r = elim_term_descend is_aux single in
            flatten_and r
        | several -> (
            (* shared aux vars: eliminate the vars private to each
               conjunct, then retry the component as a whole *)
            let count id =
              List.length
                (List.filter (fun c -> List.mem id (aux_ids is_aux c)) several)
            in
            let progressed = ref false in
            let several' =
              List.map
                (fun c ->
                  let private_ids =
                    List.filter (fun id -> count id = 1) (aux_ids is_aux c)
                  in
                  if private_ids = [] then c
                  else
                    let is_private id =
                      is_aux id && List.mem id private_ids
                    in
                    let c' = elim_term is_private c in
                    if not (T.equal c' c) then progressed := true;
                    c')
                several
            in
            if !progressed then flatten_and (elim_conj is_aux several')
            else several))
      (components is_aux auxed)
  in
  T.and_l (plain @ resolved)

(* elim_term, but never bounce straight back into elim_conj on an
   unchanged conjunction (the single-conjunct component case): descend
   into the conjunct's own structure. *)
and elim_term_descend is_aux t =
  match t.T.node with
  | T.And _ ->
      let parts = flatten_and t in
      if List.length parts > 1 then elim_conj is_aux parts else t
  | _ -> elim_term is_aux t

(* --- compilation ----------------------------------------------------------- *)

exception Unlowerable of string

type builder = {
  mutable ops_rev : op list;
  mutable n_ops : int;
  memo : int T.Tbl.t; (* term -> op index (hash-consed CSE) *)
  byte_of : (int, int) Hashtbl.t; (* message var id -> byte index *)
  mutable mapping : (int * int) list; (* the mapping the memo was built under *)
  mutable unknowns : int;
}

let push b o =
  let idx = b.n_ops in
  b.ops_rev <- o :: b.ops_rev;
  b.n_ops <- idx + 1;
  idx

let push_unknown b =
  b.unknowns <- b.unknowns + 1;
  push b Ounknown

(* Operands are lowered last first, so the last operand's ops get the
   lowest indices: the op numbering, so the image bytes, depend on it. *)
let rec app b p args =
  push b (Oapp (p, Array.of_list (List.rev_map (lower b) (List.rev args))))

and lower b t =
  match T.Tbl.find_opt b.memo t with
  | Some idx -> idx
  | None ->
      let idx =
        match t.T.node with
        | T.True -> push b (Obool true)
        | T.False -> push b (Obool false)
        | T.Const c -> push b (Oconst c)
        | T.Var v -> (
            match Hashtbl.find_opt b.byte_of v.T.id with
            | Some i -> push b (Obyte i)
            | None -> raise (Unlowerable "auxiliary variable survived"))
        | T.Not a -> app b Not [ a ]
        | T.And (x, y) -> app b And [ x; y ]
        | T.Or (x, y) -> app b Or [ x; y ]
        | T.Ite (c, x, y) -> app b Ite [ c; x; y ]
        | T.Eq (x, y) -> app b Eq [ x; y ]
        | T.Ult (x, y) -> app b Ult [ x; y ]
        | T.Slt (x, y) -> app b Slt [ x; y ]
        | T.Ule (x, y) -> app b Ule [ x; y ]
        | T.Sle (x, y) -> app b Sle [ x; y ]
        | T.Add (x, y) -> app b Add [ x; y ]
        | T.Sub (x, y) -> app b Sub [ x; y ]
        | T.Mul (x, y) -> app b Mul [ x; y ]
        | T.Udiv (x, y) -> app b Udiv [ x; y ]
        | T.Urem (x, y) -> app b Urem [ x; y ]
        | T.Bnot a -> app b Bnot [ a ]
        | T.Band (x, y) -> app b Band [ x; y ]
        | T.Bor (x, y) -> app b Bor [ x; y ]
        | T.Bxor (x, y) -> app b Bxor [ x; y ]
        | T.Shl (x, y) -> app b Shl [ x; y ]
        | T.Lshr (x, y) -> app b Lshr [ x; y ]
        | T.Ashr (x, y) -> app b Ashr [ x; y ]
        | T.Concat (x, y) ->
            if T.width_of t > 64 then
              raise (Unlowerable "concatenation wider than 64 bits")
            else app b Concat [ x; y ]
        | T.Extract (hi, lo, a) -> push b (Oextract (hi, lo, lower b a))
      in
      T.Tbl.replace b.memo t idx;
      idx

(* Project an irreducible residue onto its message bytes by bounded model
   enumeration; the solutions, collapsed to unsigned ranges over the bytes'
   big-endian concatenation, become an [Oinset]. [None] past the budget. *)
let enumerate_residue ~budget b msg_vars t =
  let byte_idxs =
    T.var_ids t
    |> List.filter_map (fun id -> Hashtbl.find_opt b.byte_of id)
    |> List.sort_uniq compare
  in
  let nbytes = List.length byte_idxs in
  if nbytes = 0 || nbytes > 8 then None
  else
    let vars = List.map (fun i -> msg_vars.(i)) byte_idxs in
    let byte_value model v =
      match Model.find model v with
      | Some (Model.Vbv bv) -> bv
      | Some (Model.Vbool _) -> Bv.zero 8
      | None -> Bv.zero 8 (* unconstrained: zero is a valid completion *)
    in
    let values = ref [] in
    match
      Solver.enumerate ~site:"filter_compile" ~model_vars:(Array.of_list vars)
        ~limit:(budget + 1) [ t ]
        (fun model ->
          let bytes = List.map (byte_value model) vars in
          values :=
            List.fold_left
              (fun acc bv -> Int64.logor (Int64.shift_left acc 8) (Bv.value bv))
              0L bytes
            :: !values;
          T.not_
            (T.and_l
               (List.map2 (fun v bv -> T.eq (T.var v) (T.const bv)) vars bytes)))
    with
    | `Limit | `Unknown -> None
    | `Exhausted ->
        let sorted = List.sort_uniq Int64.unsigned_compare !values in
        (* collapse adjacent values into inclusive ranges *)
        let ranges =
          List.fold_left
            (fun acc v ->
              match acc with
              | (lo, hi) :: rest when Int64.sub v hi = 1L -> (lo, v) :: rest
              | _ -> (v, v) :: acc)
            [] sorted
          |> List.rev |> Array.of_list
        in
        let value_op =
          match byte_idxs with
          | [] -> assert false
          | first :: rest ->
              List.fold_left
                (fun acc i ->
                  push b (Oapp (Concat, [| acc; push b (Obyte i) |])))
                (push b (Obyte first))
                rest
        in
        Some (push b (Oinset (value_op, ranges)))

(* One conjunct of a state's query -> a boolean op index, or [None] when
   the conjunct is constantly true. Raises [Exit] via the caller's check
   when constantly false (the state compiles away). *)
exception State_is_false

let compile_conjunct ~budget b msg_vars is_aux t =
  let t = if has_aux is_aux t then elim_conj is_aux (flatten_and t) else t in
  if T.equal t T.tru then None
  else if T.equal t T.fls then raise State_is_false
  else if not (has_aux is_aux t) then
    match lower b t with
    | idx -> Some idx
    | exception Unlowerable _ -> Some (push_unknown b)
  else
    (* aux vars survived elimination *)
    let msg_free =
      List.for_all (fun id -> not (Hashtbl.mem b.byte_of id)) (T.var_ids t)
    in
    if msg_free then
      (* closed existential: one solver call decides it for good *)
      match Solver.check ~site:"filter_compile" [ t ] with
      | Solver.Sat _ -> None
      | Solver.Unsat -> raise State_is_false
      | Solver.Unknown -> Some (push_unknown b)
    else
      match enumerate_residue ~budget b msg_vars t with
      | Some idx -> Some idx
      | None -> Some (push_unknown b)

(* Byte-bound gates from the pure-message conjuncts: necessary conditions
   for the whole query, checked with two compares per gate before the DAG
   runs. *)
let gates_of direct byte_of =
  match Interval.analyze direct with
  | None -> None (* the pure-message part alone is unsatisfiable *)
  | Some bounds ->
      Some
        (List.filter_map
           (fun ((v : T.var), (b : Interval.bounds)) ->
             match Hashtbl.find_opt byte_of v.T.id with
             | Some byte when b.Interval.lo > 0L || b.Interval.hi < 255L ->
                 Some
                   {
                     g_byte = byte;
                     g_lo = Int64.to_int b.Interval.lo;
                     g_hi = Int64.to_int b.Interval.hi;
                   }
             | _ -> None)
           bounds
        |> Array.of_list)

let compile ?(enum_values = 512) ~target ~layout ~report () =
  let b =
    {
      ops_rev = [];
      n_ops = 0;
      memo = T.Tbl.create 1024;
      byte_of = Hashtbl.create 64;
      mapping = [];
      unknowns = 0;
    }
  in
  let states =
    List.filter_map
      (fun ((sp : Predicate.server_path), query) ->
        match query with
        | None -> None (* provably no Trojan reaches this state *)
        | Some terms -> (
            (* every bundled target uses one symbolic message for all
               states, so the memo (keyed by terms mentioning those vars)
               carries over; reset it if the var->byte mapping ever shifts *)
            let mapping =
              Array.to_list
                (Array.mapi (fun i (v : T.var) -> (v.T.id, i))
                   sp.Predicate.msg_vars)
            in
            if mapping <> b.mapping then begin
              T.Tbl.reset b.memo;
              Hashtbl.reset b.byte_of;
              List.iter (fun (id, i) -> Hashtbl.replace b.byte_of id i) mapping;
              b.mapping <- mapping
            end;
            let is_aux id = not (Hashtbl.mem b.byte_of id) in
            let conjuncts = T.dedup (List.concat_map flatten_and terms) in
            let direct =
              List.filter (fun c -> not (has_aux is_aux c)) conjuncts
            in
            match gates_of direct b.byte_of with
            | None -> None
            | Some gates -> (
                match
                  List.filter_map
                    (compile_conjunct ~budget:enum_values b
                       sp.Predicate.msg_vars is_aux)
                    conjuncts
                with
                | exception State_is_false -> None
                | [] ->
                    Some
                      {
                        st_id = sp.Predicate.sp_state_id;
                        st_label = sp.Predicate.label;
                        st_gates = gates;
                        st_root = push b (Obool true);
                        st_ops = [||];
                      }
                | roots ->
                    let root =
                      List.fold_left
                        (fun acc r -> push b (Oapp (And, [| acc; r |])))
                        (List.hd roots) (List.tl roots)
                    in
                    Some
                      {
                        st_id = sp.Predicate.sp_state_id;
                        st_label = sp.Predicate.label;
                        st_gates = gates;
                        st_root = root;
                        st_ops = [||];
                      })))
      (Search.trojan_queries report)
  in
  let ops = Array.of_list (List.rev b.ops_rev) in
  let states =
    List.map (fun st -> { st with st_ops = reachable ops st.st_root }) states
  in
  Obs.count ~n:b.unknowns "filter.compile.unknown_leaves";
  Obs.count ~n:(List.length states) "filter.compile.states";
  validate
    {
      f_target = target;
      f_layout = Layout.name layout;
      f_message_size = Layout.total_size layout;
      f_unknowns = b.unknowns;
      f_ops = ops;
      f_states = Array.of_list states;
    }

(* --- evaluation ------------------------------------------------------------ *)

type v = Vb of bool | Vv of Bv.t | Vu

type evaluator = {
  ft : t;
  msg : int array; (* current message bytes *)
  vals : v array;
  stamp : int array;
  mutable tick : int;
}

let evaluator ft =
  {
    ft;
    msg = Array.make ft.f_message_size 0;
    vals = Array.make (max 1 (Array.length ft.f_ops)) (Vb false);
    stamp = Array.make (max 1 (Array.length ft.f_ops)) 0;
    tick = 0;
  }

let eval_op ev i =
  let ops = ev.ft.f_ops in
  let v j = ev.vals.(j) in
  let bv j = match v j with Vv x -> Some x | _ -> None in
  let bin f a =
    match (bv a.(0), bv a.(1)) with Some x, Some y -> Vv (f x y) | _ -> Vu
  in
  let cmp f a =
    match (bv a.(0), bv a.(1)) with Some x, Some y -> Vb (f x y) | _ -> Vu
  in
  match ops.(i) with
  | Obyte k -> Vv (Bv.of_int ~width:8 ev.msg.(k))
  | Oconst c -> Vv c
  | Obool x -> Vb x
  | Ounknown -> Vu
  | Oapp (p, a) -> (
      match p with
      | Not -> ( match v a.(0) with Vb x -> Vb (not x) | _ -> Vu)
      | And -> (
          match (v a.(0), v a.(1)) with
          | Vb false, _ | _, Vb false -> Vb false
          | Vb true, Vb true -> Vb true
          | _ -> Vu)
      | Or -> (
          match (v a.(0), v a.(1)) with
          | Vb true, _ | _, Vb true -> Vb true
          | Vb false, Vb false -> Vb false
          | _ -> Vu)
      | Ite -> (
          match v a.(0) with Vb true -> v a.(1) | Vb false -> v a.(2) | _ -> Vu)
      | Eq -> (
          match (v a.(0), v a.(1)) with
          | Vv x, Vv y -> Vb (Bv.equal x y)
          | Vb x, Vb y -> Vb (x = y)
          | _ -> Vu)
      | Ult -> cmp Bv.ult a
      | Slt -> cmp Bv.slt a
      | Ule -> cmp Bv.ule a
      | Sle -> cmp Bv.sle a
      | Add -> bin Bv.add a
      | Sub -> bin Bv.sub a
      | Mul -> bin Bv.mul a
      | Udiv -> bin Bv.udiv a
      | Urem -> bin Bv.urem a
      | Bnot -> ( match bv a.(0) with Some x -> Vv (Bv.lognot x) | None -> Vu)
      | Band -> bin Bv.logand a
      | Bor -> bin Bv.logor a
      | Bxor -> bin Bv.logxor a
      | Shl -> bin Bv.shl a
      | Lshr -> bin Bv.lshr a
      | Ashr -> bin Bv.ashr a
      | Concat -> bin Bv.concat a)
  | Oextract (hi, lo, a) -> (
      match bv a with Some x -> Vv (Bv.extract ~hi ~lo x) | None -> Vu)
  | Oinset (a, ranges) -> (
      match bv a with
      | None -> Vu
      | Some x ->
          let value = Bv.value x in
          let n = Array.length ranges in
          let rec member k =
            if k >= n then false
            else
              let lo, hi = ranges.(k) in
              (Int64.unsigned_compare lo value <= 0
              && Int64.unsigned_compare value hi <= 0)
              || member (k + 1)
          in
          Vb (member 0))

let eval_state ev st =
  let gates = st.st_gates in
  let n_gates = Array.length gates in
  let rec gate_ok i =
    i >= n_gates
    ||
    let g = gates.(i) in
    let byte = ev.msg.(g.g_byte) in
    byte >= g.g_lo && byte <= g.g_hi && gate_ok (i + 1)
  in
  if not (gate_ok 0) then Vb false
  else begin
    let ops = st.st_ops in
    for k = 0 to Array.length ops - 1 do
      let i = ops.(k) in
      if ev.stamp.(i) <> ev.tick then begin
        ev.vals.(i) <- eval_op ev i;
        ev.stamp.(i) <- ev.tick
      end
    done;
    ev.vals.(st.st_root)
  end

let verdict_core ev =
  ev.tick <- ev.tick + 1;
  let states = ev.ft.f_states in
  let n = Array.length states in
  let rec scan i unknown =
    if i >= n then if unknown then Unknown_state else Accept
    else
      match eval_state ev states.(i) with
      | Vb true -> Trojan_suspect states.(i).st_id
      | Vb false -> scan (i + 1) unknown
      | Vu -> scan (i + 1) true
      | Vv _ -> assert false (* roots are validated boolean *)
  in
  scan 0 false

let verdict_bytes ev bytes =
  if Stdlib.Bytes.length bytes <> ev.ft.f_message_size then Unknown_state
  else begin
    for i = 0 to ev.ft.f_message_size - 1 do
      ev.msg.(i) <- Char.code (Stdlib.Bytes.get bytes i)
    done;
    verdict_core ev
  end

let verdict ev message =
  if Array.length message <> ev.ft.f_message_size then Unknown_state
  else begin
    Array.iteri
      (fun i bv ->
        if Bv.width bv <> 8 then
          invalid_arg "Filter.verdict: message bytes must be 8 bits wide";
        ev.msg.(i) <- Bv.to_int bv)
      message;
    verdict_core ev
  end

(* --- serialization --------------------------------------------------------- *)

let magic = "ACHFLT01"

let encode_payload ft =
  let buf = Buffer.create 4096 in
  let u8 n = Buffer.add_char buf (Char.chr (n land 0xff)) in
  let u32 n =
    u8 (n lsr 24);
    u8 (n lsr 16);
    u8 (n lsr 8);
    u8 n
  in
  let i64 n = Buffer.add_int64_be buf n in
  let str s =
    if String.length s > 0xffff then invalid_arg "Filter: string too long";
    u8 (String.length s lsr 8);
    u8 (String.length s);
    Buffer.add_string buf s
  in
  str ft.f_target;
  str ft.f_layout;
  u32 ft.f_message_size;
  u32 ft.f_unknowns;
  u32 (Array.length ft.f_ops);
  Array.iter
    (fun o ->
      match o with
      | Obyte i ->
          u8 0;
          u32 i
      | Oconst c ->
          u8 1;
          u8 (Bv.width c);
          i64 (Bv.value c)
      | Obool false -> u8 2
      | Obool true -> u8 3
      | Ounknown -> u8 4
      | Oapp (p, args) ->
          let rec tag i = if prims.(i) = p then 5 + i else tag (i + 1) in
          u8 (tag 0);
          Array.iter u32 args
      | Oextract (hi, lo, a) ->
          u8 27;
          u8 hi;
          u8 lo;
          u32 a
      | Oinset (a, ranges) ->
          u8 28;
          u32 a;
          u32 (Array.length ranges);
          Array.iter
            (fun (lo, hi) ->
              i64 lo;
              i64 hi)
            ranges)
    ft.f_ops;
  u32 (Array.length ft.f_states);
  Array.iter
    (fun st ->
      u32 st.st_id;
      str st.st_label;
      u32 (Array.length st.st_gates);
      Array.iter
        (fun g ->
          u32 g.g_byte;
          u8 g.g_lo;
          u8 g.g_hi)
        st.st_gates;
      u32 st.st_root)
    ft.f_states;
  Buffer.contents buf

let to_string ft =
  let payload = encode_payload ft in
  let buf = Buffer.create (String.length payload + 32) in
  Buffer.add_string buf magic;
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_string buf (Digest.string payload);
  Buffer.contents buf

exception Decode_error of string

let of_string s =
  let fail msg = raise (Decode_error msg) in
  try
    if String.length s < 8 + 4 + 16 then fail "truncated image";
    if String.sub s 0 8 <> magic then
      if String.sub s 0 6 = String.sub magic 0 6 then
        fail "unsupported filter format version"
      else fail "not a compiled filter (bad magic)";
    let payload_len =
      Int32.to_int (String.get_int32_be s 8)
    in
    if payload_len < 0 || String.length s <> 8 + 4 + payload_len + 16 then
      fail "truncated or oversized image";
    let payload = String.sub s 12 payload_len in
    let digest = String.sub s (12 + payload_len) 16 in
    if Digest.string payload <> digest then
      fail "payload digest mismatch (corrupt image)";
    let pos = ref 0 in
    let u8 () =
      if !pos >= payload_len then fail "truncated payload";
      let c = Char.code payload.[!pos] in
      incr pos;
      c
    in
    let u32 () =
      let a = u8 () in
      let b = u8 () in
      let c = u8 () in
      let d = u8 () in
      (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
    in
    let i64 () =
      if !pos + 8 > payload_len then fail "truncated payload";
      let v = String.get_int64_be payload !pos in
      pos := !pos + 8;
      v
    in
    let str () =
      let hi = u8 () in
      let lo = u8 () in
      let len = (hi lsl 8) lor lo in
      if !pos + len > payload_len then fail "truncated payload";
      let s = String.sub payload !pos len in
      pos := !pos + len;
      s
    in
    let f_target = str () in
    let f_layout = str () in
    let f_message_size = u32 () in
    let f_unknowns = u32 () in
    let n_ops = u32 () in
    if n_ops > payload_len then fail "implausible op count";
    let decode_op () =
      match u8 () with
      | 0 -> Obyte (u32 ())
      | 1 ->
          let w = u8 () in
          if w < 1 || w > 64 then fail "constant width out of range";
          Oconst (Bv.make ~width:w (i64 ()))
      | 2 -> Obool false
      | 3 -> Obool true
      | 4 -> Ounknown
      | tag when tag - 5 < Array.length prims ->
          let p = prims.(tag - 5) in
          Oapp (p, Array.init (arity p) (fun _ -> u32 ()))
      | 27 ->
          let hi = u8 () in
          let lo = u8 () in
          Oextract (hi, lo, u32 ())
      | 28 ->
          let a = u32 () in
          let n = u32 () in
          if n > payload_len then fail "implausible range count";
          let ranges =
            Array.init n (fun _ ->
                let lo = i64 () in
                let hi = i64 () in
                (lo, hi))
          in
          Oinset (a, ranges)
      | _ -> fail "unknown op tag"
    in
    let f_ops = Array.init n_ops (fun _ -> decode_op ()) in
    let n_states = u32 () in
    if n_states > payload_len then fail "implausible state count";
    let decode_state () =
      let st_id = u32 () in
      let st_label = str () in
      let n_gates = u32 () in
      if n_gates > payload_len then fail "implausible gate count";
      let st_gates =
        Array.init n_gates (fun _ ->
            let g_byte = u32 () in
            let g_lo = u8 () in
            let g_hi = u8 () in
            { g_byte; g_lo; g_hi })
      in
      let st_root = u32 () in
      { st_id; st_label; st_gates; st_root; st_ops = [||] }
    in
    let states = Array.init n_states (fun _ -> decode_state ()) in
    if !pos <> payload_len then fail "trailing garbage in payload";
    let ft =
      validate
        {
          f_target;
          f_layout;
          f_message_size;
          f_unknowns;
          f_ops;
          f_states = states;
        }
    in
    Ok
      {
        ft with
        f_states =
          Array.map
            (fun st -> { st with st_ops = reachable ft.f_ops st.st_root })
            ft.f_states;
      }
  with
  | Decode_error msg -> Error msg
  | Invalid_program msg -> Error (Printf.sprintf "invalid filter program: %s" msg)
  | Invalid_argument msg -> Error (Printf.sprintf "malformed image: %s" msg)

let save ft ~file =
  let dir = Filename.dirname file in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename file) (Unix.getpid ()))
  in
  match
    let oc = open_out_bin tmp in
    output_string oc (to_string ft);
    close_out oc;
    Sys.rename tmp file
  with
  | () -> Ok ()
  | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error msg

let load ~file =
  let read ic =
    match (Unix.fstat (Unix.descr_of_in_channel ic)).Unix.st_kind with
    | Unix.S_REG -> Ok (In_channel.input_all ic)
    | _ -> Error "not a regular file"
  in
  match Result.bind (In_channel.with_open_bin file read) of_string with
  | Ok ft -> Ok ft
  | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
  | exception Sys_error msg -> Error msg

let pp_summary ppf ft =
  Format.fprintf ppf
    "filter for %s (layout %s, %d-byte messages): %d states, %d ops, %d \
     gates, %d unknown leaves"
    ft.f_target ft.f_layout ft.f_message_size
    (Array.length ft.f_states)
    (Array.length ft.f_ops)
    (Array.fold_left (fun n st -> n + Array.length st.st_gates) 0 ft.f_states)
    ft.f_unknowns
