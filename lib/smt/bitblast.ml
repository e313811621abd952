type repr = Rlit of int | Rvec of int array (* lsb first, DIMACS literals *)

type t = {
  sat : Sat.t;
  cache : repr Term.Tbl.t;
  term_vars : (int, Term.var * repr) Hashtbl.t; (* term var id -> bits *)
  ranges : (int * int) Term.Tbl.t;
  (* per translated term, the SAT variables allocated by its own (cache-miss)
     translation as the half-open range (lo, hi] — shared subterms hit the
     cache and record their vars under their own entry *)
  cone_cache : int array Term.Tbl.t;
  (* memoized full translation cones of top-level (asserted/guarded) terms *)
  mutable true_lit : int;
  mutable n_clauses : int;
  mutable n_aux : int;
  mutable marks : int array;
  (* by SAT variable: the stamp of the last [cone_vars] call that listed it *)
  mutable mark_stamp : int;
}

(* Memo counters, accumulated across contexts: every scratch solver query
   starts from a [reset] context (model determinism forbids reusing CNF
   between model-extracting queries), so per-context hit counts would vanish
   with each reset. Long-lived incremental contexts accumulate into the
   same counters. *)
type memo_state = { mutable m_hits : int; mutable m_misses : int }

let memo = { m_hits = 0; m_misses = 0 }
let aggregate_memo_stats () = (memo.m_hits, memo.m_misses)

let reset_memo_stats () =
  memo.m_hits <- 0;
  memo.m_misses <- 0

let sat t = t.sat
let clauses_added t = t.n_clauses
let aux_vars t = t.n_aux
let cached_terms t = Term.Tbl.length t.cache

let clause t lits =
  t.n_clauses <- t.n_clauses + 1;
  Sat.add_clause t.sat lits

(* The gates' clauses, entered without building a list; a binary clause
   repeats its last literal, which the duplicate removal drops. *)
let clause3 t a b c =
  t.n_clauses <- t.n_clauses + 1;
  Sat.add_clause3 t.sat a b c

let fresh t =
  t.n_aux <- t.n_aux + 1;
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
      ranges = Term.Tbl.create 256;
      cone_cache = Term.Tbl.create 64;
      true_lit = 0;
      n_clauses = 0;
      n_aux = 0;
      marks = [||];
      mark_stamp = 0;
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
  Term.Tbl.reset t.ranges;
  Term.Tbl.reset t.cone_cache;
  t.n_clauses <- 0;
  t.n_aux <- 0;
  (* [marks] is kept as is: stamps only ever increase, so no old mark can
     match a later call's stamp *)
  init_true_lit t

(* --- boolean gates -------------------------------------------------------- *)

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

let and_many t = function
  | [] -> t.true_lit
  | l :: ls -> List.fold_left (and2 t) l ls

let or_many t = function
  | [] -> -t.true_lit
  | l :: ls -> List.fold_left (or2 t) l ls

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

let ult_lit t av bv =
  let _, carry = subtract t av bv in
  lnot carry

let slt_lit t av bv =
  let w = Array.length av in
  let av' = Array.copy av and bv' = Array.copy bv in
  av'.(w - 1) <- lnot av.(w - 1);
  bv'.(w - 1) <- lnot bv.(w - 1);
  ult_lit t av' bv'

let eq_vec_lit t av bv =
  and_many t (Array.to_list (Array.map2 (xnor2 t) av bv))

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

let is_zero_lit t av = lnot (or_many t (Array.to_list av))

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
    Array.to_list amount |> List.filteri (fun i _ -> i >= s)
  in
  let overflow = or_many t high_bits in
  Array.map (fun bit -> mux t overflow fill bit) !result

(* --- term translation ------------------------------------------------------ *)

let rec translate t (term : Term.t) : repr =
  match Term.Tbl.find_opt t.cache term with
  | Some r ->
      memo.m_hits <- memo.m_hits + 1;
      r
  | None ->
      memo.m_misses <- memo.m_misses + 1;
      let lo = Sat.num_vars t.sat in
      let r = translate_uncached t term in
      Term.Tbl.replace t.ranges term (lo, Sat.num_vars t.sat);
      Term.Tbl.replace t.cache term r;
      r

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
      | Some (_, r) -> r
      | None ->
          let r =
            match v.sort with
            | Term.Bool -> Rlit (Sat.new_var t.sat)
            | Term.Bitvec w -> Rvec (Array.init w (fun _ -> Sat.new_var t.sat))
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
          (match Term.Tbl.find_opt t.ranges tm with
          | Some (lo, hi) when hi > lo -> spans := (lo, hi) :: !spans
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

let cone_vars t terms =
  let nv = Sat.num_vars t.sat in
  if nv >= Array.length t.marks then begin
    let marks = Array.make (max (nv + 1) (2 * Array.length t.marks)) 0 in
    Array.blit t.marks 0 marks 0 (Array.length t.marks);
    t.marks <- marks
  end;
  t.mark_stamp <- t.mark_stamp + 1;
  let stamp = t.mark_stamp and marks = t.marks in
  let buf = ref (Array.make 256 0) in
  let n = ref 0 in
  let push v =
    if !n = Array.length !buf then begin
      let b = Array.make (2 * !n) 0 in
      Array.blit !buf 0 b 0 !n;
      buf := b
    end;
    !buf.(!n) <- v;
    incr n
  in
  List.iter
    (fun tm ->
      Array.iter
        (fun v ->
          if marks.(v) <> stamp then begin
            marks.(v) <- stamp;
            push v
          end)
        (cone_of t tm))
    terms;
  Array.sub !buf 0 !n

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

let extract_vars t vars =
  Array.fold_left
    (fun model (v : Term.var) ->
      match Hashtbl.find_opt t.term_vars v.Term.id with
      | Some (var, r) -> add_value t var r model
      | None -> model)
    Model.empty vars
