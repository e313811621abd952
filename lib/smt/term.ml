type sort = Bool | Bitvec of int

type var = { id : int; name : string; sort : sort }

type t = { tid : int; node : node; hkey : int }

and node =
  | True
  | False
  | Const of Bv.t
  | Var of var
  | Not of t
  | And of t * t
  | Or of t * t
  | Ite of t * t * t
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | Ule of t * t
  | Sle of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Udiv of t * t
  | Urem of t * t
  | Bnot of t
  | Band of t * t
  | Bor of t * t
  | Bxor of t * t
  | Shl of t * t
  | Lshr of t * t
  | Ashr of t * t
  | Concat of t * t
  | Extract of int * int * t

exception Sort_error of string

let sort_error fmt = Format.kasprintf (fun s -> raise (Sort_error s)) fmt

let sort_equal a b =
  match a, b with
  | Bool, Bool -> true
  | Bitvec w1, Bitvec w2 -> w1 = w2
  | Bool, Bitvec _ | Bitvec _, Bool -> false

let pp_sort fmt = function
  | Bool -> Format.pp_print_string fmt "Bool"
  | Bitvec w -> Format.fprintf fmt "Bv%d" w

(* Every variable id comes from this counter. Search resets it to the
   pre-search base at each shard, so ids never depend on how the tree was
   split. *)
let fresh_counter = ref 0

let fresh_var ?(name = "v") sort =
  incr fresh_counter;
  { id = !fresh_counter; name; sort }

let reset_fresh_counter () = fresh_counter := 0
let set_fresh_counter n = fresh_counter := n
let fresh_counter_value () = !fresh_counter

(* --- interning ------------------------------------------------------------

   Node ids ([tid]) come from one process-wide counter that is never reset,
   so terms revived from a checkpoint ([rebuild]) or built before a
   [clear_interning] never share a tid with a live node. *)

let sharing = ref true
let set_sharing b = sharing := b
let sharing_enabled () = !sharing

let tid_counter = ref 0

let next_tid () =
  let t = !tid_counter in
  incr tid_counter;
  t

type intern_state = {
  buckets : (int, t list ref) Hashtbl.t; (* hkey -> interned nodes *)
  var_ids_memo : (int, int list) Hashtbl.t; (* tid -> sorted var ids *)
  mutable s_hits : int; (* constructions answered from the table *)
  mutable s_created : int; (* nodes physically allocated *)
  mutable s_work : int;
      (* nodes visited by structural equal/compare and by the var-id
         traversal — the walks sharing short-circuits or memoizes away *)
}

let interning =
  {
    buckets = Hashtbl.create 4096;
    var_ids_memo = Hashtbl.create 1024;
    s_hits = 0;
    s_created = 0;
    s_work = 0;
  }

let aggregate_intern_stats () = (interning.s_hits, interning.s_created)
let structural_work () = interning.s_work

let clear_interning () =
  Hashtbl.reset interning.buckets;
  Hashtbl.reset interning.var_ids_memo;
  interning.s_hits <- 0;
  interning.s_created <- 0;
  interning.s_work <- 0

(* --- structural hash ------------------------------------------------------ *)

(* [hkey] is a deterministic function of the structure alone (no ids, no
   addresses), computed in O(1) at construction from the children's stored
   keys. It doubles as {!hash} and as the first-stage filter of the
   structural {!equal}. *)

let mix h k = (((h lsl 5) + h) lxor k) land 0x3FFFFFFF

let sort_hash = function Bool -> 0 | Bitvec w -> w + 1

let var_hash v = mix (mix v.id (Hashtbl.hash v.name)) (sort_hash v.sort)

let hash_node = function
  | True -> 0x1a2b
  | False -> 0x3c4d
  | Const bv ->
      mix (mix 3 (Bv.width bv)) (Int64.to_int (Bv.value bv) land 0x3FFFFFFF)
  | Var v -> mix 4 (var_hash v)
  | Not a -> mix 5 a.hkey
  | And (a, b) -> mix (mix 6 a.hkey) b.hkey
  | Or (a, b) -> mix (mix 7 a.hkey) b.hkey
  | Ite (c, a, b) -> mix (mix (mix 8 c.hkey) a.hkey) b.hkey
  | Eq (a, b) -> mix (mix 9 a.hkey) b.hkey
  | Ult (a, b) -> mix (mix 10 a.hkey) b.hkey
  | Slt (a, b) -> mix (mix 11 a.hkey) b.hkey
  | Ule (a, b) -> mix (mix 12 a.hkey) b.hkey
  | Sle (a, b) -> mix (mix 13 a.hkey) b.hkey
  | Add (a, b) -> mix (mix 14 a.hkey) b.hkey
  | Sub (a, b) -> mix (mix 15 a.hkey) b.hkey
  | Mul (a, b) -> mix (mix 16 a.hkey) b.hkey
  | Udiv (a, b) -> mix (mix 17 a.hkey) b.hkey
  | Urem (a, b) -> mix (mix 18 a.hkey) b.hkey
  | Bnot a -> mix 19 a.hkey
  | Band (a, b) -> mix (mix 20 a.hkey) b.hkey
  | Bor (a, b) -> mix (mix 21 a.hkey) b.hkey
  | Bxor (a, b) -> mix (mix 22 a.hkey) b.hkey
  | Shl (a, b) -> mix (mix 23 a.hkey) b.hkey
  | Lshr (a, b) -> mix (mix 24 a.hkey) b.hkey
  | Ashr (a, b) -> mix (mix 25 a.hkey) b.hkey
  | Concat (a, b) -> mix (mix 26 a.hkey) b.hkey
  | Extract (hi, lo, a) -> mix (mix (mix 27 hi) lo) a.hkey

(* --- equality and ordering ------------------------------------------------

   Both ignore [tid] and [hkey] (beyond the hkey fast-reject), so their
   answers match what [Stdlib.compare]/[(=)] gave on the old plain ADT:
   canonical orders, cache keys and digests are byte-identical whether
   sharing is on or off. *)

let var_equal v w =
  v == w || (v.id = w.id && String.equal v.name w.name && sort_equal v.sort w.sort)

let rec equal_rec st a b =
  a == b
  ||
  (st.s_work <- st.s_work + 1;
   a.hkey = b.hkey && node_equal st a.node b.node)

and node_equal st n1 n2 =
  match n1, n2 with
  | True, True | False, False -> true
  | Const x, Const y -> Bv.equal x y
  | Var v, Var w -> var_equal v w
  | Not a, Not b | Bnot a, Bnot b -> equal_rec st a b
  | And (a1, b1), And (a2, b2)
  | Or (a1, b1), Or (a2, b2)
  | Eq (a1, b1), Eq (a2, b2)
  | Ult (a1, b1), Ult (a2, b2)
  | Slt (a1, b1), Slt (a2, b2)
  | Ule (a1, b1), Ule (a2, b2)
  | Sle (a1, b1), Sle (a2, b2)
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Mul (a1, b1), Mul (a2, b2)
  | Udiv (a1, b1), Udiv (a2, b2)
  | Urem (a1, b1), Urem (a2, b2)
  | Band (a1, b1), Band (a2, b2)
  | Bor (a1, b1), Bor (a2, b2)
  | Bxor (a1, b1), Bxor (a2, b2)
  | Shl (a1, b1), Shl (a2, b2)
  | Lshr (a1, b1), Lshr (a2, b2)
  | Ashr (a1, b1), Ashr (a2, b2)
  | Concat (a1, b1), Concat (a2, b2) ->
      equal_rec st a1 a2 && equal_rec st b1 b2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      equal_rec st c1 c2 && equal_rec st a1 a2 && equal_rec st b1 b2
  | Extract (h1, l1, a), Extract (h2, l2, b) ->
      h1 = h2 && l1 = l2 && equal_rec st a b
  | _ -> false

let equal a b = a == b || equal_rec interning a b

(* Constructor rank replicating [Stdlib.compare] on the old ADT: the
   constant constructors ([True], [False]) sort below every block, blocks
   by declaration order. *)
let rank = function
  | True -> 0
  | False -> 1
  | Const _ -> 2
  | Var _ -> 3
  | Not _ -> 4
  | And _ -> 5
  | Or _ -> 6
  | Ite _ -> 7
  | Eq _ -> 8
  | Ult _ -> 9
  | Slt _ -> 10
  | Ule _ -> 11
  | Sle _ -> 12
  | Add _ -> 13
  | Sub _ -> 14
  | Mul _ -> 15
  | Udiv _ -> 16
  | Urem _ -> 17
  | Bnot _ -> 18
  | Band _ -> 19
  | Bor _ -> 20
  | Bxor _ -> 21
  | Shl _ -> 22
  | Lshr _ -> 23
  | Ashr _ -> 24
  | Concat _ -> 25
  | Extract _ -> 26

(* [Bv.t] is a { width; value : int64 } record, so the old polymorphic
   compare ordered by width first, then by the boxed int64's (signed)
   comparison. *)
let bv_compare x y =
  let c = Int.compare (Bv.width x) (Bv.width y) in
  if c <> 0 then c else Int64.compare (Bv.value x) (Bv.value y)

let sort_compare a b =
  match a, b with
  | Bool, Bool -> 0
  | Bool, Bitvec _ -> -1
  | Bitvec _, Bool -> 1
  | Bitvec w1, Bitvec w2 -> Int.compare w1 w2

let var_compare v w =
  if v == w then 0
  else
    let c = Int.compare v.id w.id in
    if c <> 0 then c
    else
      let c = String.compare v.name w.name in
      if c <> 0 then c else sort_compare v.sort w.sort

let rec compare_rec st a b =
  if a == b then 0
  else begin
    st.s_work <- st.s_work + 1;
    let ra = rank a.node and rb = rank b.node in
    if ra <> rb then Int.compare ra rb
    else
      match a.node, b.node with
      | True, True | False, False -> 0
      | Const x, Const y -> bv_compare x y
      | Var v, Var w -> var_compare v w
      | Not x, Not y | Bnot x, Bnot y -> compare_rec st x y
      | And (a1, b1), And (a2, b2)
      | Or (a1, b1), Or (a2, b2)
      | Eq (a1, b1), Eq (a2, b2)
      | Ult (a1, b1), Ult (a2, b2)
      | Slt (a1, b1), Slt (a2, b2)
      | Ule (a1, b1), Ule (a2, b2)
      | Sle (a1, b1), Sle (a2, b2)
      | Add (a1, b1), Add (a2, b2)
      | Sub (a1, b1), Sub (a2, b2)
      | Mul (a1, b1), Mul (a2, b2)
      | Udiv (a1, b1), Udiv (a2, b2)
      | Urem (a1, b1), Urem (a2, b2)
      | Band (a1, b1), Band (a2, b2)
      | Bor (a1, b1), Bor (a2, b2)
      | Bxor (a1, b1), Bxor (a2, b2)
      | Shl (a1, b1), Shl (a2, b2)
      | Lshr (a1, b1), Lshr (a2, b2)
      | Ashr (a1, b1), Ashr (a2, b2)
      | Concat (a1, b1), Concat (a2, b2) ->
          let c = compare_rec st a1 a2 in
          if c <> 0 then c else compare_rec st b1 b2
      | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
          let c = compare_rec st c1 c2 in
          if c <> 0 then c
          else
            let c = compare_rec st a1 a2 in
            if c <> 0 then c else compare_rec st b1 b2
      | Extract (h1, l1, x), Extract (h2, l2, y) ->
          let c = Int.compare h1 h2 in
          if c <> 0 then c
          else
            let c = Int.compare l1 l2 in
            if c <> 0 then c else compare_rec st x y
      | _ -> 0 (* unreachable: ranks are equal only on matching heads *)
  end

let compare a b = if a == b then 0 else compare_rec interning a b

let hash t = t.hkey

(* Shallow structural match used by the intern probe: children are compared
   physically (they are themselves interned), variables and constants by
   value. A miss on uninterned children (built with sharing off or before a
   [clear_interning]) just allocates an unshared node, which everything
   tolerates. *)
let shallow_equal n1 n2 =
  match n1, n2 with
  | True, True | False, False -> true
  | Const x, Const y -> Bv.equal x y
  | Var v, Var w -> var_equal v w
  | Not a, Not b | Bnot a, Bnot b -> a == b
  | And (a1, b1), And (a2, b2)
  | Or (a1, b1), Or (a2, b2)
  | Eq (a1, b1), Eq (a2, b2)
  | Ult (a1, b1), Ult (a2, b2)
  | Slt (a1, b1), Slt (a2, b2)
  | Ule (a1, b1), Ule (a2, b2)
  | Sle (a1, b1), Sle (a2, b2)
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Mul (a1, b1), Mul (a2, b2)
  | Udiv (a1, b1), Udiv (a2, b2)
  | Urem (a1, b1), Urem (a2, b2)
  | Band (a1, b1), Band (a2, b2)
  | Bor (a1, b1), Bor (a2, b2)
  | Bxor (a1, b1), Bxor (a2, b2)
  | Shl (a1, b1), Shl (a2, b2)
  | Lshr (a1, b1), Lshr (a2, b2)
  | Ashr (a1, b1), Ashr (a2, b2)
  | Concat (a1, b1), Concat (a2, b2) ->
      a1 == a2 && b1 == b2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
  | Extract (h1, l1, a), Extract (h2, l2, b) -> h1 = h2 && l1 = l2 && a == b
  | _ -> false

let mk node =
  let hkey = hash_node node in
  let st = interning in
  if not !sharing then begin
    st.s_created <- st.s_created + 1;
    { tid = next_tid (); node; hkey }
  end
  else
    match Hashtbl.find_opt st.buckets hkey with
    | Some bucket -> (
        match List.find_opt (fun u -> shallow_equal u.node node) !bucket with
        | Some u ->
            st.s_hits <- st.s_hits + 1;
            u
        | None ->
            let u = { tid = next_tid (); node; hkey } in
            st.s_created <- st.s_created + 1;
            bucket := u :: !bucket;
            u)
    | None ->
        let u = { tid = next_tid (); node; hkey } in
        st.s_created <- st.s_created + 1;
        Hashtbl.add st.buckets hkey (ref [ u ]);
        u

(* --- sorts ---------------------------------------------------------------- *)

let rec sort_of t =
  match t.node with
  | True | False | Not _ | And _ | Or _ | Eq _ | Ult _ | Slt _ | Ule _
  | Sle _ ->
      Bool
  | Const bv -> Bitvec (Bv.width bv)
  | Var v -> v.sort
  | Ite (_, a, _) -> sort_of a
  | Add (a, _) | Sub (a, _) | Mul (a, _) | Udiv (a, _) | Urem (a, _)
  | Band (a, _) | Bor (a, _) | Bxor (a, _) | Shl (a, _) | Lshr (a, _)
  | Ashr (a, _) | Bnot a ->
      sort_of a
  | Concat (a, b) -> (
      match sort_of a, sort_of b with
      | Bitvec w1, Bitvec w2 -> Bitvec (w1 + w2)
      | _ -> sort_error "concat of non-bitvectors")
  | Extract (hi, lo, _) -> Bitvec (hi - lo + 1)

let width_of t =
  match sort_of t with
  | Bitvec w -> w
  | Bool -> sort_error "expected a bitvector, got a boolean"

(* --- smart constructors --------------------------------------------------- *)

let tru = mk True
let fls = mk False
let bool b = if b then tru else fls
let const bv = mk (Const bv)
let int ~width v = const (Bv.of_int ~width v)
let var v = mk (Var v)

let check_bv_pair name a b =
  match sort_of a, sort_of b with
  | Bitvec w1, Bitvec w2 when w1 = w2 -> w1
  | sa, sb -> sort_error "%s: incompatible sorts %a and %a" name pp_sort sa pp_sort sb

let check_bool name t =
  match sort_of t with
  | Bool -> ()
  | s -> sort_error "%s: expected Bool, got %a" name pp_sort s

let not_ t =
  match t.node with
  | True -> fls
  | False -> tru
  | Not u -> u
  | _ ->
      check_bool "not" t;
      mk (Not t)

let and_ a b =
  match a.node, b.node with
  | True, _ ->
      check_bool "and" b;
      b
  | _, True ->
      check_bool "and" a;
      a
  | False, _ | _, False -> fls
  | _ when equal a b -> a
  | _ ->
      check_bool "and" a;
      check_bool "and" b;
      mk (And (a, b))

let or_ a b =
  match a.node, b.node with
  | False, _ ->
      check_bool "or" b;
      b
  | _, False ->
      check_bool "or" a;
      a
  | True, _ | _, True -> tru
  | _ when equal a b -> a
  | _ ->
      check_bool "or" a;
      check_bool "or" b;
      mk (Or (a, b))

let and_l ts = List.fold_left and_ tru ts
let or_l ts = List.fold_left or_ fls ts
let implies a b = or_ (not_ a) b

let ite c a b =
  if not (sort_equal (sort_of a) (sort_of b)) then
    sort_error "ite: branch sorts differ";
  match c.node with
  | True -> a
  | False -> b
  | _ ->
      if equal a b then a
      else begin
        check_bool "ite" c;
        match a.node, b.node with
        | True, False -> c
        | False, True -> not_ c
        | _ -> mk (Ite (c, a, b))
      end

let eq a b =
  if not (sort_equal (sort_of a) (sort_of b)) then
    sort_error "eq: operand sorts differ (%a vs %a)" pp_sort (sort_of a)
      pp_sort (sort_of b);
  if equal a b then tru
  else
    match a.node, b.node with
    | Const x, Const y -> bool (Bv.equal x y)
    | True, _ -> b
    | _, True -> a
    | False, _ -> not_ b
    | _, False -> not_ a
    | _ -> mk (Eq (a, b))

let neq a b = not_ (eq a b)

let is_const t = match t.node with True | False | Const _ -> true | _ -> false

let cmp name fold node_of a b =
  let _w = check_bv_pair name a b in
  match a.node, b.node with
  | Const x, Const y -> bool (fold x y)
  | _ -> mk (node_of a b)

let ult a b =
  if equal a b && not (is_const a) then fls
  else
    match a.node, b.node with
    | Const x, _ when Bv.equal x (Bv.ones (Bv.width x)) -> fls
    | _, Const y when Bv.equal y (Bv.zero (Bv.width y)) -> fls
    | _ -> cmp "ult" Bv.ult (fun a b -> Ult (a, b)) a b

let slt a b =
  if equal a b && not (is_const a) then fls
  else cmp "slt" Bv.slt (fun a b -> Slt (a, b)) a b

let ule a b =
  if equal a b && not (is_const a) then tru
  else cmp "ule" Bv.ule (fun a b -> Ule (a, b)) a b

let sle a b =
  if equal a b && not (is_const a) then tru
  else cmp "sle" Bv.sle (fun a b -> Sle (a, b)) a b

let ugt a b = ult b a
let uge a b = ule b a
let sgt a b = slt b a
let sge a b = sle b a

let is_zero t =
  match t.node with Const bv -> Bv.equal bv (Bv.zero (Bv.width bv)) | _ -> false

let is_one t =
  match t.node with Const bv -> Bv.equal bv (Bv.one (Bv.width bv)) | _ -> false

let is_ones t =
  match t.node with Const bv -> Bv.equal bv (Bv.ones (Bv.width bv)) | _ -> false

let add a b =
  let _ = check_bv_pair "add" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.add x y)
  | _, _ when is_zero b -> a
  | _, _ when is_zero a -> b
  | _ -> mk (Add (a, b))

let sub a b =
  let w = check_bv_pair "sub" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.sub x y)
  | _, _ when is_zero b -> a
  | _ when equal a b -> const (Bv.zero w)
  | _ -> mk (Sub (a, b))

let mul a b =
  let w = check_bv_pair "mul" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.mul x y)
  | _, _ when is_zero b -> const (Bv.zero w)
  | _, _ when is_zero a -> const (Bv.zero w)
  | _, _ when is_one b -> a
  | _, _ when is_one a -> b
  | _ -> mk (Mul (a, b))

let udiv a b =
  let _ = check_bv_pair "udiv" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.udiv x y)
  | _, _ when is_one b -> a
  | _ -> mk (Udiv (a, b))

let urem a b =
  let _ = check_bv_pair "urem" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.urem x y)
  | _ -> mk (Urem (a, b))

let bnot t =
  match t.node with
  | Const x -> const (Bv.lognot x)
  | Bnot u -> u
  | _ ->
      let _ = width_of t in
      mk (Bnot t)

let neg t =
  match t.node with
  | Const x -> const (Bv.neg x)
  | _ ->
      let w = width_of t in
      sub (const (Bv.zero w)) t

let band a b =
  let w = check_bv_pair "band" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.logand x y)
  | _, _ when is_zero b -> const (Bv.zero w)
  | _, _ when is_zero a -> const (Bv.zero w)
  | _, _ when is_ones b -> a
  | _, _ when is_ones a -> b
  | _ when equal a b -> a
  | _ -> mk (Band (a, b))

let bor a b =
  let w = check_bv_pair "bor" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.logor x y)
  | _, _ when is_zero b -> a
  | _, _ when is_zero a -> b
  | _, _ when is_ones b -> const (Bv.ones w)
  | _, _ when is_ones a -> const (Bv.ones w)
  | _ when equal a b -> a
  | _ -> mk (Bor (a, b))

let bxor a b =
  let w = check_bv_pair "bxor" a b in
  match a.node, b.node with
  | Const x, Const y -> const (Bv.logxor x y)
  | _, _ when is_zero b -> a
  | _, _ when is_zero a -> b
  | _ when equal a b -> const (Bv.zero w)
  | _ -> mk (Bxor (a, b))

let shift name fold node_of a b =
  let _ = check_bv_pair name a b in
  match a.node, b.node with
  | Const x, Const y -> const (fold x y)
  | _, _ when is_zero b -> a
  | _ -> mk (node_of a b)

let shl a b = shift "shl" Bv.shl (fun a b -> Shl (a, b)) a b
let lshr a b = shift "lshr" Bv.lshr (fun a b -> Lshr (a, b)) a b
let ashr a b = shift "ashr" Bv.ashr (fun a b -> Ashr (a, b)) a b

let rec concat a b =
  let wa = width_of a and wb = width_of b in
  if wa + wb > 64 then sort_error "concat: combined width %d exceeds 64" (wa + wb);
  match a.node, b.node with
  | Const x, Const y -> const (Bv.concat x y)
  | Extract (h1, l1, x), Extract (h2, l2, y) when equal x y && l1 = h2 + 1 ->
      (* adjacent slices of the same term fuse back together *)
      extract_node ~hi:h1 ~lo:l2 x
  | ( Extract (_h1, l1, x),
      Concat (({ node = Extract (h2, _l2, y); _ } as e2), rest) )
    when equal x y && l1 = h2 + 1 && wa + width_of e2 <= 64 ->
      concat (concat a e2) rest
  | _ -> mk (Concat (a, b))

and extract_node ~hi ~lo t =
  let w = width_of t in
  if lo = 0 && hi = w - 1 then t
  else
    match t.node with
    | Const x -> const (Bv.extract ~hi ~lo x)
    | _ -> mk (Extract (hi, lo, t))

let concat_l = function
  | [] -> invalid_arg "Term.concat_l: empty list"
  | hd :: tl -> List.fold_left concat hd tl

let rec extract ~hi ~lo t =
  let w = width_of t in
  if lo < 0 || hi < lo || hi >= w then
    sort_error "extract: bad range [%d..%d] for width %d" hi lo w;
  if lo = 0 && hi = w - 1 then t
  else
    match t.node with
    | Const x -> const (Bv.extract ~hi ~lo x)
    | Extract (_, lo', inner) -> extract ~hi:(hi + lo') ~lo:(lo + lo') inner
    | Concat (a, b) ->
        let wb = width_of b in
        if hi < wb then extract ~hi ~lo b
        else if lo >= wb then extract ~hi:(hi - wb) ~lo:(lo - wb) a
        else mk (Extract (hi, lo, t))
    | Lshr (x, { node = Const c; _ })
      when Int64.unsigned_compare (Bv.value c) 64L < 0 ->
        (* bits [hi..lo] of (x >> c) are bits [hi+c..lo+c] of x when they
           exist, zeros otherwise *)
        let c = Int64.to_int (Bv.value c) in
        if hi + c < w then extract ~hi:(hi + c) ~lo:(lo + c) x
        else if lo + c >= w then const (Bv.zero (hi - lo + 1))
        else mk (Extract (hi, lo, t))
    | _ -> mk (Extract (hi, lo, t))

let zero_extend ~by t =
  if by < 0 then invalid_arg "Term.zero_extend: negative"
  else if by = 0 then t
  else
    let w = width_of t in
    if w + by > 64 then sort_error "zero_extend past 64 bits"
    else concat (const (Bv.zero by)) t

let sign_extend ~by t =
  if by < 0 then invalid_arg "Term.sign_extend: negative"
  else if by = 0 then t
  else
    let w = width_of t in
    if w + by > 64 then sort_error "sign_extend past 64 bits"
    else
      match t.node with
      | Const x -> const (Bv.sign_extend ~by x)
      | _ ->
          let sign = extract ~hi:(w - 1) ~lo:(w - 1) t in
          let high =
            ite
              (eq sign (const (Bv.one 1)))
              (const (Bv.ones by))
              (const (Bv.zero by))
          in
          concat high t

let resize_unsigned ~width t =
  let w = width_of t in
  if width = w then t
  else if width > w then zero_extend ~by:(width - w) t
  else extract ~hi:(width - 1) ~lo:0 t

let const_value t = match t.node with Const bv -> Some bv | _ -> None

let bool_value t =
  match t.node with True -> Some true | False -> Some false | _ -> None

(* --- traversals ----------------------------------------------------------- *)

let rec fold_vars f t acc =
  match t.node with
  | True | False | Const _ -> acc
  | Var v -> f v acc
  | Not a | Bnot a | Extract (_, _, a) -> fold_vars f a acc
  | And (a, b) | Or (a, b) | Eq (a, b) | Ult (a, b) | Slt (a, b)
  | Ule (a, b) | Sle (a, b) | Add (a, b) | Sub (a, b) | Mul (a, b)
  | Udiv (a, b) | Urem (a, b) | Band (a, b) | Bor (a, b) | Bxor (a, b)
  | Shl (a, b) | Lshr (a, b) | Ashr (a, b) | Concat (a, b) ->
      fold_vars f b (fold_vars f a acc)
  | Ite (c, a, b) -> fold_vars f b (fold_vars f a (fold_vars f c acc))

module Int_set = Set.Make (Int)

let vars t =
  let tbl = Hashtbl.create 16 in
  let add v () = if not (Hashtbl.mem tbl v.id) then Hashtbl.add tbl v.id v in
  fold_vars add t ();
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> Stdlib.compare a.id b.id)

(* The traversal behind [var_ids], with every node visit charged to the
   structural-work counter: with sharing on the per-tid memo answers repeat
   queries without walking, so the visits counted here are exactly the work
   interning removes from the predicate/negate/differentFrom layers. *)
let compute_var_ids t =
  let st = interning in
  let rec go t acc =
    st.s_work <- st.s_work + 1;
    match t.node with
    | True | False | Const _ -> acc
    | Var v -> Int_set.add v.id acc
    | Not a | Bnot a | Extract (_, _, a) -> go a acc
    | And (a, b) | Or (a, b) | Eq (a, b) | Ult (a, b) | Slt (a, b)
    | Ule (a, b) | Sle (a, b) | Add (a, b) | Sub (a, b) | Mul (a, b)
    | Udiv (a, b) | Urem (a, b) | Band (a, b) | Bor (a, b) | Bxor (a, b)
    | Shl (a, b) | Lshr (a, b) | Ashr (a, b) | Concat (a, b) ->
        go b (go a acc)
    | Ite (c, a, b) -> go b (go a (go c acc))
  in
  Int_set.elements (go t Int_set.empty)

let var_ids t =
  if !sharing then begin
    let st = interning in
    match Hashtbl.find_opt st.var_ids_memo t.tid with
    | Some ids -> ids
    | None ->
        let ids = compute_var_ids t in
        Hashtbl.replace st.var_ids_memo t.tid ids;
        ids
  end
  else compute_var_ids t

let mentions t v =
  let exception Found in
  try
    fold_vars (fun v' () -> if v'.id = v.id then raise Found) t ();
    false
  with Found -> true

let rec size t =
  match t.node with
  | True | False | Const _ | Var _ -> 1
  | Not a | Bnot a | Extract (_, _, a) -> 1 + size a
  | And (a, b) | Or (a, b) | Eq (a, b) | Ult (a, b) | Slt (a, b)
  | Ule (a, b) | Sle (a, b) | Add (a, b) | Sub (a, b) | Mul (a, b)
  | Udiv (a, b) | Urem (a, b) | Band (a, b) | Bor (a, b) | Bxor (a, b)
  | Shl (a, b) | Lshr (a, b) | Ashr (a, b) | Concat (a, b) ->
      1 + size a + size b
  | Ite (c, a, b) -> 1 + size c + size a + size b

let rec subst f t =
  match t.node with
  | True | False | Const _ -> t
  | Var v -> (
      match f v with
      | None -> t
      | Some t' ->
          if not (sort_equal (sort_of t') v.sort) then
            sort_error "subst: sort mismatch for %s" v.name;
          t')
  | Not a -> not_ (subst f a)
  | And (a, b) -> and_ (subst f a) (subst f b)
  | Or (a, b) -> or_ (subst f a) (subst f b)
  | Ite (c, a, b) -> ite (subst f c) (subst f a) (subst f b)
  | Eq (a, b) -> eq (subst f a) (subst f b)
  | Ult (a, b) -> ult (subst f a) (subst f b)
  | Slt (a, b) -> slt (subst f a) (subst f b)
  | Ule (a, b) -> ule (subst f a) (subst f b)
  | Sle (a, b) -> sle (subst f a) (subst f b)
  | Add (a, b) -> add (subst f a) (subst f b)
  | Sub (a, b) -> sub (subst f a) (subst f b)
  | Mul (a, b) -> mul (subst f a) (subst f b)
  | Udiv (a, b) -> udiv (subst f a) (subst f b)
  | Urem (a, b) -> urem (subst f a) (subst f b)
  | Bnot a -> bnot (subst f a)
  | Band (a, b) -> band (subst f a) (subst f b)
  | Bor (a, b) -> bor (subst f a) (subst f b)
  | Bxor (a, b) -> bxor (subst f a) (subst f b)
  | Shl (a, b) -> shl (subst f a) (subst f b)
  | Lshr (a, b) -> lshr (subst f a) (subst f b)
  | Ashr (a, b) -> ashr (subst f a) (subst f b)
  | Concat (a, b) -> concat (subst f a) (subst f b)
  | Extract (hi, lo, a) -> extract ~hi ~lo (subst f a)

(* --- printing ------------------------------------------------------------- *)

(* Render [t] into [b], each variable through [var]. *)
let rec print var b t =
  let str = Buffer.add_string b in
  let un op a = str op; print var b a; str ")" in
  let bin op x y =
    str op;
    print var b x;
    Buffer.add_char b ' ';
    print var b y;
    str ")"
  in
  match t.node with
  | True -> str "true"
  | False -> str "false"
  | Const bv -> str (Bv.to_string bv)
  | Var v -> var b v
  | Not a -> un "(not " a
  | And (x, y) -> bin "(and " x y
  | Or (x, y) -> bin "(or " x y
  | Ite (c, x, y) ->
      str "(ite ";
      print var b c;
      Buffer.add_char b ' ';
      bin "" x y
  | Eq (x, y) -> bin "(= " x y
  | Ult (x, y) -> bin "(u< " x y
  | Slt (x, y) -> bin "(s< " x y
  | Ule (x, y) -> bin "(u<= " x y
  | Sle (x, y) -> bin "(s<= " x y
  | Add (x, y) -> bin "(+ " x y
  | Sub (x, y) -> bin "(- " x y
  | Mul (x, y) -> bin "(* " x y
  | Udiv (x, y) -> bin "(udiv " x y
  | Urem (x, y) -> bin "(urem " x y
  | Bnot a -> un "(bnot " a
  | Band (x, y) -> bin "(& " x y
  | Bor (x, y) -> bin "(| " x y
  | Bxor (x, y) -> bin "(^ " x y
  | Shl (x, y) -> bin "(<< " x y
  | Lshr (x, y) -> bin "(>>u " x y
  | Ashr (x, y) -> bin "(>>s " x y
  | Concat (x, y) -> bin "(++ " x y
  | Extract (hi, lo, a) ->
      print var b a;
      Buffer.add_char b '[';
      str (string_of_int hi);
      Buffer.add_char b ':';
      str (string_of_int lo);
      Buffer.add_char b ']'

let print_var b name id =
  Buffer.add_string b name;
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int id)

let to_string t =
  let b = Buffer.create 64 in
  print (fun b v -> print_var b v.name v.id) b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Variables print as [c#k:S]: [k] numbers them in order of first
   occurrence, [S] is the sort, so cones alike but for widths differ. *)
let alpha_key terms =
  let table : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let var b v =
    let k =
      match Hashtbl.find_opt table v.id with
      | Some k -> k
      | None ->
          let k = Hashtbl.length table in
          Hashtbl.replace table v.id k;
          k
    in
    print_var b "c" k;
    match v.sort with
    | Bool -> Buffer.add_string b ":Bool"
    | Bitvec w ->
        Buffer.add_string b ":Bv";
        Buffer.add_string b (string_of_int w)
  in
  let b = Buffer.create 256 in
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char b ';';
      print var b t)
    terms;
  Buffer.contents b

(* --- term-keyed tables, re-interning, dedup ------------------------------- *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = t.hkey
end)

let rebuild t =
  let memo = Tbl.create 64 in
  let rec go t =
    match Tbl.find_opt memo t with
    | Some u -> u
    | None ->
        let u =
          match t.node with
          | True -> tru
          | False -> fls
          | Const bv -> const bv
          | Var v -> var v
          | Not a -> not_ (go a)
          | And (a, b) -> and_ (go a) (go b)
          | Or (a, b) -> or_ (go a) (go b)
          | Ite (c, a, b) -> ite (go c) (go a) (go b)
          | Eq (a, b) -> eq (go a) (go b)
          | Ult (a, b) -> ult (go a) (go b)
          | Slt (a, b) -> slt (go a) (go b)
          | Ule (a, b) -> ule (go a) (go b)
          | Sle (a, b) -> sle (go a) (go b)
          | Add (a, b) -> add (go a) (go b)
          | Sub (a, b) -> sub (go a) (go b)
          | Mul (a, b) -> mul (go a) (go b)
          | Udiv (a, b) -> udiv (go a) (go b)
          | Urem (a, b) -> urem (go a) (go b)
          | Bnot a -> bnot (go a)
          | Band (a, b) -> band (go a) (go b)
          | Bor (a, b) -> bor (go a) (go b)
          | Bxor (a, b) -> bxor (go a) (go b)
          | Shl (a, b) -> shl (go a) (go b)
          | Lshr (a, b) -> lshr (go a) (go b)
          | Ashr (a, b) -> ashr (go a) (go b)
          | Concat (a, b) -> concat (go a) (go b)
          | Extract (hi, lo, a) -> extract ~hi ~lo (go a)
        in
        Tbl.replace memo t u;
        u
  in
  go t

let dedup = function
  | ([] | [ _ ]) as ts -> ts
  | ts ->
      let seen = Tbl.create 16 in
      List.filter
        (fun t ->
          if Tbl.mem seen t then false
          else begin
            Tbl.replace seen t ();
            true
          end)
        ts
