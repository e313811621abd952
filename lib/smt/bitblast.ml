type repr = Rlit of int | Rvec of int array (* lsb first, DIMACS literals *)

(* A translated term: its bits, and the SAT variables its own (cache-miss)
   translation allocated, as the half-open range (lo, hi] — shared
   subterms hit the cache and record their vars under their own entry. *)
type entry = { repr : repr; lo : int; hi : int }

type t = {
  sat : Sat.t;
  cache : entry Term.Tbl.t;
  term_vars : (int, Term.var * repr) Hashtbl.t;
  (* term var id -> the var and its bits; two variables may not share an
     id in one context *)
  cone_cache : int array Term.Tbl.t;
  (* memoized full translation cones of top-level (asserted/guarded) terms *)
  mutable true_lit : int;
}

(* Memo and CNF-size counters, accumulated across contexts: every scratch
   solver query starts from a [reset] context (model determinism forbids
   reusing CNF between model-extracting queries), so per-context counts
   would vanish with each reset. Long-lived incremental contexts accumulate
   into the same counters. *)
type memo_state = {
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_vars : int;
  mutable m_clauses : int;
}

let memo = { m_hits = 0; m_misses = 0; m_vars = 0; m_clauses = 0 }
let aggregate_memo_stats () = (memo.m_hits, memo.m_misses)
let aggregate_cnf_stats () = (memo.m_vars, memo.m_clauses)

let reset_memo_stats () =
  memo.m_hits <- 0;
  memo.m_misses <- 0;
  memo.m_vars <- 0;
  memo.m_clauses <- 0

let sat t = t.sat
let true_lit t = t.true_lit
let cached_terms t = Term.Tbl.length t.cache

let clause t lits =
  memo.m_clauses <- memo.m_clauses + 1;
  Sat.add_clause t.sat lits

(* The gates' clauses, entered without building a list; a binary clause
   repeats its last literal, which the duplicate removal drops. *)
let clause3 t a b c =
  memo.m_clauses <- memo.m_clauses + 1;
  Sat.add_clause3 t.sat a b c

let fresh t =
  memo.m_vars <- memo.m_vars + 1;
  Sat.new_var t.sat

(* The true literal is the context's first variable, asserted by a unit
   clause. *)
let init_true_lit t =
  let tl = fresh t in
  t.true_lit <- tl;
  clause t [ tl ]

let create sat =
  let t =
    {
      sat;
      cache = Term.Tbl.create 256;
      term_vars = Hashtbl.create 64;
      cone_cache = Term.Tbl.create 64;
      true_lit = 0;
    }
  in
  init_true_lit t;
  t

(* The tables are [reset] rather than [clear]ed, which also shrinks them
   back to their initial bucket count: the context is then the one [create]
   builds, down to the tables' iteration order. *)
let reset t =
  Sat.reset t.sat;
  Term.Tbl.reset t.cache;
  Hashtbl.reset t.term_vars;
  Term.Tbl.reset t.cone_cache;
  init_true_lit t

(* --- boolean gates -------------------------------------------------------- *)

(* Each gate either folds to an existing literal or makes one fresh output
   variable whose clauses admit exactly one output value under every
   assignment of its inputs (a total definition). So whatever values a
   query's cone takes, every gate outside it can still satisfy its own
   clauses by its output alone, in allocation order — the closure a
   long-lived context relies on when it solves with [decide_vars] limited
   to the cone ([cone_of]). *)

let lnot l = -l

let and2 t a b =
  if a = t.true_lit then b
  else if b = t.true_lit then a
  else if a = -t.true_lit || b = -t.true_lit then -t.true_lit
  else if a = b then a
  else if a = -b then -t.true_lit
  else begin
    let x = fresh t in
    clause3 t (-x) a a;
    clause3 t (-x) b b;
    clause3 t x (-a) (-b);
    x
  end

let or2 t a b = lnot (and2 t (lnot a) (lnot b))

let xor2 t a b =
  if a = t.true_lit then lnot b
  else if b = t.true_lit then lnot a
  else if a = -t.true_lit then b
  else if b = -t.true_lit then a
  else if a = b then -t.true_lit
  else if a = -b then t.true_lit
  else begin
    let x = fresh t in
    clause3 t (-x) a b;
    clause3 t (-x) (-a) (-b);
    clause3 t x (-a) b;
    clause3 t x a (-b);
    x
  end

let xnor2 t a b = lnot (xor2 t a b)

let mux t c a b =
  (* c ? a : b *)
  if c = t.true_lit then a
  else if c = -t.true_lit then b
  else if a = b then a
  else begin
    let x = fresh t in
    clause3 t (-x) (-c) a;
    clause3 t (-x) c b;
    clause3 t x (-c) (-a);
    clause3 t x c (-b);
    x
  end

(* Put the inputs of an n-ary AND, in place, in ascending variable order
   (a variable's positive literal first), each once and without the true
   literal; returns how many there are, or -1 when the AND is false: a
   false input, or a complementary pair, which the order makes adjacent.
   Inputs arrive nearly sorted (the bits of a vector, allocated in order),
   so an insertion sort does little work. *)
let and_inputs t a =
  let key l = if l < 0 then 1 - (2 * l) else 2 * l in
  let n = Array.length a in
  for i = 1 to n - 1 do
    let x = a.(i) in
    let kx = key x in
    let j = ref (i - 1) in
    while !j >= 0 && key a.(!j) > kx do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let kept = ref 0 and prev = ref 0 and i = ref 0 in
  while !i < n do
    let l = a.(!i) in
    if l = -t.true_lit || l = - !prev then begin
      kept := -1;
      i := n
    end
    else begin
      if l <> !prev && l <> t.true_lit then begin
        a.(!kept) <- l;
        incr kept
      end;
      prev := l;
      incr i
    end
  done;
  !kept

(* For k = 2 inputs these are [and2]'s clauses; for k inputs a chain of
   binary gates would spend k - 1 variables and 3(k - 1) clauses where
   this gate spends 1 and k + 1. Reorders [lits], so every caller passes
   an array of its own making. *)
let and_gate t lits =
  match and_inputs t lits with
  | -1 -> -t.true_lit
  | 0 -> t.true_lit
  | 1 -> lits.(0)
  | k ->
      let x = fresh t in
      let long = ref [ x ] in
      for i = 0 to k - 1 do
        let l = lits.(i) in
        clause3 t (-x) l l;
        long := lnot l :: !long
      done;
      clause t !long;
      x

let and_many t lits = and_gate t (Array.copy lits)
let or_many t lits = lnot (and_gate t (Array.map lnot lits))

let maj t a b c =
  let tl = t.true_lit in
  let is_const l = l = tl || l = -tl in
  let fold k y z = if k = tl then or2 t y z else and2 t y z in
  if is_const a then fold a b c
  else if is_const b then fold b a c
  else if is_const c then fold c a b
  else if a = b || a = c then a
  else if b = c then b
  else if a = -b then c
  else if a = -c then b
  else if b = -c then a
  else begin
    let x = fresh t in
    clause3 t (-x) a b;
    clause3 t (-x) a c;
    clause3 t (-x) b c;
    clause3 t x (-a) (-b);
    clause3 t x (-a) (-c);
    clause3 t x (-b) (-c);
    x
  end

(* --- arithmetic circuits --------------------------------------------------- *)

let full_adder t a b cin =
  let sum = xor2 t (xor2 t a b) cin in
  let cout = or2 t (and2 t a b) (and2 t cin (xor2 t a b)) in
  (sum, cout)

(* returns (sum vector, carry out) *)
let adder t av bv cin =
  let w = Array.length av in
  let out = Array.make w 0 in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder t av.(i) bv.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  (out, !carry)

let subtract t av bv =
  (* a + ~b + 1; carry-out = 1 iff a >= b (unsigned) *)
  adder t av (Array.map lnot bv) t.true_lit

(* a < b (unsigned) iff a + ~b + 1 carries nothing out of the top bit.
   Only that carry is read, so the chain is built alone, one majority gate
   per bit (carry(i+1) = maj(a_i, ~b_i, carry_i)); no sum bit exists. *)
let ult_lit t av bv =
  let carry = ref t.true_lit in
  Array.iteri (fun i a -> carry := maj t a (lnot bv.(i)) !carry) av;
  lnot !carry

let slt_lit t av bv =
  let w = Array.length av in
  let av' = Array.copy av and bv' = Array.copy bv in
  av'.(w - 1) <- lnot av.(w - 1);
  bv'.(w - 1) <- lnot bv.(w - 1);
  ult_lit t av' bv'

let eq_vec_lit t av bv =
  and_gate t (Array.map2 (xnor2 t) av bv)

let multiplier t av bv =
  let w = Array.length av in
  let acc = ref (Array.make w (-t.true_lit)) in
  for i = 0 to w - 1 do
    (* partial product: (a << i) AND b_i, truncated to w bits *)
    let partial =
      Array.init w (fun j -> if j < i then -t.true_lit else and2 t av.(j - i) bv.(i))
    in
    acc := fst (adder t !acc partial (-t.true_lit))
  done;
  !acc

let is_zero_lit t av = lnot (or_many t av)

(* Restoring long division. Returns (quotient, remainder) with the SMT-LIB
   division-by-zero convention applied. *)
let divider t av bv =
  let w = Array.length av in
  let q = Array.make w (-t.true_lit) in
  (* remainder register, one bit wider to absorb the shift *)
  let r = ref (Array.make (w + 1) (-t.true_lit)) in
  let b_ext = Array.append bv [| -t.true_lit |] in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i, dropping the top bit (always 0 here because the
       invariant r < b <= 2^w - 1 holds before the shift) *)
    let shifted = Array.init (w + 1) (fun j -> if j = 0 then av.(i) else !r.(j - 1)) in
    let diff, geq = subtract t shifted b_ext in
    q.(i) <- geq;
    r := Array.init (w + 1) (fun j -> mux t geq diff.(j) shifted.(j))
  done;
  let rem = Array.sub !r 0 w in
  let bz = is_zero_lit t bv in
  let quot_dz = Array.map (fun a_bit -> mux t bz t.true_lit a_bit) (Array.make w 0 |> Array.mapi (fun i _ -> q.(i))) in
  let rem_dz = Array.init w (fun i -> mux t bz av.(i) rem.(i)) in
  (quot_dz, rem_dz)

let shifter t ~kind av amount =
  let w = Array.length av in
  (* number of stages: smallest s with 2^s >= w *)
  let rec stages s = if 1 lsl s >= w then s else stages (s + 1) in
  let s = stages 0 in
  let fill =
    match kind with
    | `Shl | `Lshr -> -t.true_lit
    | `Ashr -> av.(w - 1)
  in
  let step vec k bit =
    let shift = 1 lsl k in
    Array.init w (fun i ->
        let src =
          match kind with
          | `Shl -> if i >= shift then vec.(i - shift) else -t.true_lit
          | `Lshr | `Ashr -> if i + shift < w then vec.(i + shift) else fill
        in
        mux t bit src vec.(i))
  in
  let result = ref av in
  for k = 0 to min (s - 1) (Array.length amount - 1) do
    result := step !result k amount.(k)
  done;
  (* if any amount bit at position >= s is set, the shift overflows *)
  let high_bits =
    let n = Array.length amount in
    if n > s then Array.sub amount s (n - s) else [||]
  in
  let overflow = or_many t high_bits in
  Array.map (fun bit -> mux t overflow fill bit) !result

(* --- term translation ------------------------------------------------------ *)

let rec translate t (term : Term.t) : repr =
  match Term.Tbl.find_opt t.cache term with
  | Some e ->
      memo.m_hits <- memo.m_hits + 1;
      e.repr
  | None ->
      memo.m_misses <- memo.m_misses + 1;
      let lo = Sat.num_vars t.sat in
      let repr = translate_uncached t term in
      Term.Tbl.replace t.cache term { repr; lo; hi = Sat.num_vars t.sat };
      repr

and bvec t term =
  match translate t term with
  | Rvec v -> v
  | Rlit _ -> raise (Term.Sort_error "bitblast: expected bitvector")

and blit t term =
  match translate t term with
  | Rlit l -> l
  | Rvec _ -> raise (Term.Sort_error "bitblast: expected boolean")

and translate_uncached t (term : Term.t) : repr =
  match term.Term.node with
  | True -> Rlit t.true_lit
  | False -> Rlit (-t.true_lit)
  | Const bv ->
      Rvec
        (Array.init (Bv.width bv) (fun i ->
             if Bv.bit bv i then t.true_lit else -t.true_lit))
  | Var v -> (
      match Hashtbl.find_opt t.term_vars v.id with
      | Some (v', r) ->
          if not (String.equal v.name v'.name && Term.sort_equal v.sort v'.sort)
          then
            invalid_arg
              (Printf.sprintf
                 "Bitblast: variables %s and %s share id %d in one context"
                 v'.name v.name v.id);
          r
      | None ->
          let r =
            match v.sort with
            | Term.Bool -> Rlit (fresh t)
            | Term.Bitvec w -> Rvec (Array.init w (fun _ -> fresh t))
          in
          Hashtbl.replace t.term_vars v.id (v, r);
          r)
  | Not a -> Rlit (lnot (blit t a))
  | And (a, b) -> Rlit (and2 t (blit t a) (blit t b))
  | Or (a, b) -> Rlit (or2 t (blit t a) (blit t b))
  | Ite (c, a, b) -> (
      let cl = blit t c in
      match translate t a, translate t b with
      | Rlit x, Rlit y -> Rlit (mux t cl x y)
      | Rvec x, Rvec y -> Rvec (Array.map2 (mux t cl) x y)
      | _ -> raise (Term.Sort_error "bitblast: ite branches"))
  | Eq (a, b) -> (
      match translate t a, translate t b with
      | Rlit x, Rlit y -> Rlit (xnor2 t x y)
      | Rvec x, Rvec y -> Rlit (eq_vec_lit t x y)
      | _ -> raise (Term.Sort_error "bitblast: eq operands"))
  | Ult (a, b) -> Rlit (ult_lit t (bvec t a) (bvec t b))
  | Slt (a, b) -> Rlit (slt_lit t (bvec t a) (bvec t b))
  | Ule (a, b) -> Rlit (lnot (ult_lit t (bvec t b) (bvec t a)))
  | Sle (a, b) -> Rlit (lnot (slt_lit t (bvec t b) (bvec t a)))
  | Add (a, b) -> Rvec (fst (adder t (bvec t a) (bvec t b) (-t.true_lit)))
  | Sub (a, b) -> Rvec (fst (subtract t (bvec t a) (bvec t b)))
  | Mul (a, b) -> Rvec (multiplier t (bvec t a) (bvec t b))
  | Udiv (a, b) -> Rvec (fst (divider t (bvec t a) (bvec t b)))
  | Urem (a, b) -> Rvec (snd (divider t (bvec t a) (bvec t b)))
  | Bnot a -> Rvec (Array.map lnot (bvec t a))
  | Band (a, b) -> Rvec (Array.map2 (and2 t) (bvec t a) (bvec t b))
  | Bor (a, b) -> Rvec (Array.map2 (or2 t) (bvec t a) (bvec t b))
  | Bxor (a, b) -> Rvec (Array.map2 (xor2 t) (bvec t a) (bvec t b))
  | Shl (a, b) -> Rvec (shifter t ~kind:`Shl (bvec t a) (bvec t b))
  | Lshr (a, b) -> Rvec (shifter t ~kind:`Lshr (bvec t a) (bvec t b))
  | Ashr (a, b) -> Rvec (shifter t ~kind:`Ashr (bvec t a) (bvec t b))
  | Concat (hi, lo) -> Rvec (Array.append (bvec t lo) (bvec t hi))
  | Extract (hi, lo, a) -> Rvec (Array.sub (bvec t a) lo (hi - lo + 1))

let lit_of t term = blit t term

(* --- translation cones ----------------------------------------------------- *)

let children (term : Term.t) =
  match term.Term.node with
  | Term.True | Term.False | Term.Const _ | Term.Var _ -> []
  | Term.Not a | Term.Bnot a | Term.Extract (_, _, a) -> [ a ]
  | Term.And (a, b)
  | Term.Or (a, b)
  | Term.Eq (a, b)
  | Term.Ult (a, b)
  | Term.Slt (a, b)
  | Term.Ule (a, b)
  | Term.Sle (a, b)
  | Term.Add (a, b)
  | Term.Sub (a, b)
  | Term.Mul (a, b)
  | Term.Udiv (a, b)
  | Term.Urem (a, b)
  | Term.Band (a, b)
  | Term.Bor (a, b)
  | Term.Bxor (a, b)
  | Term.Shl (a, b)
  | Term.Lshr (a, b)
  | Term.Ashr (a, b)
  | Term.Concat (a, b) -> [ a; b ]
  | Term.Ite (c, a, b) -> [ c; a; b ]

(* All SAT variables in [term]'s translation: the union of the own-range of
   every node in its DAG. A node translated as a cache hit inside some other
   term's translation still has its own range entry from that first
   translation, so the union is exactly the variables the term's CNF
   mentions. Ranges nest (a parent's range spans its freshly-translated
   children), hence the sort-and-merge. Memoized per term; sound only after
   the term has been fully translated in this context. *)
let cone_of t term =
  match Term.Tbl.find_opt t.cone_cache term with
  | Some a -> a
  | None ->
      let visited = Term.Tbl.create 64 in
      let spans = ref [] in
      let rec walk tm =
        if not (Term.Tbl.mem visited tm) then begin
          Term.Tbl.replace visited tm ();
          (match Term.Tbl.find_opt t.cache tm with
          | Some { lo; hi; _ } when hi > lo -> spans := (lo, hi) :: !spans
          | _ -> ());
          List.iter walk (children tm)
        end
      in
      walk term;
      let spans =
        List.sort (fun (a, _) (b, _) -> compare a b) !spans
      in
      let merged =
        List.fold_left
          (fun acc (lo, hi) ->
            match acc with
            | (plo, phi) :: rest when lo <= phi ->
                (plo, max phi hi) :: rest
            | _ -> (lo, hi) :: acc)
          [] spans
      in
      let merged = List.rev merged (* ascending: allocation order *) in
      let n = List.fold_left (fun n (lo, hi) -> n + hi - lo) 0 merged in
      let arr = Array.make n 0 in
      let i = ref 0 in
      List.iter
        (fun (lo, hi) ->
          for v = lo + 1 to hi do
            arr.(!i) <- v;
            incr i
          done)
        merged;
      Term.Tbl.replace t.cone_cache term arr;
      arr

let assert_true t term =
  match term.Term.node with
  | Term.True -> ()
  | Term.False -> clause t []
  | _ -> clause t [ blit t term ]

let add_value t var r model =
  match r with
  | Rlit l -> Model.add_bool var (Sat.lit_value t.sat l) model
  | Rvec bits ->
      let w = Array.length bits in
      let value = ref 0L in
      for i = w - 1 downto 0 do
        value := Int64.shift_left !value 1;
        if Sat.lit_value t.sat bits.(i) then value := Int64.logor !value 1L
      done;
      Model.add_bv var (Bv.make ~width:w !value) model

let extract_model t =
  Hashtbl.fold (fun _ (var, r) model -> add_value t var r model)
    t.term_vars Model.empty

let var_bits t (v : Term.var) =
  match Hashtbl.find_opt t.term_vars v.Term.id with
  | Some (_, Rvec bits) -> bits
  | Some (_, Rlit l) -> [| l |]
  | None -> [||]

let extract_vars t vars =
  Array.fold_left
    (fun model (v : Term.var) ->
      match Hashtbl.find_opt t.term_vars v.Term.id with
      | Some (var, r) -> add_value t var r model
      | None -> model)
    Model.empty vars
