(* Tests for the hash-consed term core: semantic equivalence of the smart
   constructors against direct bit-level evaluation under random models,
   hash-consing invariants (equal <=> physical equality, id stability under
   replay, sharing-off agreement), and the intern counters. (The group
   holding the intern-counter case keeps its historical name,
   "solver-cache"; the solver keeps no result cache any more.) *)

open Achilles_smt

(* Every property must leave sharing on for later tests, whatever happens. *)
let with_sharing mode f =
  Fun.protect ~finally:(fun () -> Term.set_sharing true) (fun () ->
      Term.set_sharing mode;
      f ())

(* --- term recipes ----------------------------------------------------------

   A recipe is a term built from explicit syntax over a small variable pool,
   paired with a denotation computed directly with [Bv] arithmetic — the
   ground-truth semantics the constructor-time rewrites must preserve. *)

type bv_recipe =
  | RVar of int (* index into the 8-bit variable pool *)
  | RConst of Bv.t
  | RBnot of bv_recipe
  | RBin of string * bv_recipe * bv_recipe (* same-width arithmetic/logic *)
  | RConcat of bv_recipe * bv_recipe
  | RExtract of int * int * bv_recipe (* hi, lo *)
  | RIte of bool_recipe * bv_recipe * bv_recipe

and bool_recipe =
  | RCmp of string * bv_recipe * bv_recipe
  | RNot of bool_recipe
  | RAnd of bool_recipe * bool_recipe
  | ROr of bool_recipe * bool_recipe

let n_vars = 3
let var_width = 8

let bin_ops =
  [
    ("add", Term.add, Bv.add);
    ("sub", Term.sub, Bv.sub);
    ("mul", Term.mul, Bv.mul);
    ("udiv", Term.udiv, Bv.udiv);
    ("urem", Term.urem, Bv.urem);
    ("band", Term.band, Bv.logand);
    ("bor", Term.bor, Bv.logor);
    ("bxor", Term.bxor, Bv.logxor);
    ("shl", Term.shl, Bv.shl);
    ("lshr", Term.lshr, Bv.lshr);
    ("ashr", Term.ashr, Bv.ashr);
  ]

let cmp_ops =
  [
    ("eq", Term.eq, Bv.equal);
    ("ult", Term.ult, Bv.ult);
    ("slt", Term.slt, Bv.slt);
    ("ule", Term.ule, Bv.ule);
    ("sle", Term.sle, Bv.sle);
  ]

(* Build through the smart constructors. *)
let rec build_bv vars = function
  | RVar i -> Term.var vars.(i)
  | RConst bv -> Term.const bv
  | RBnot r -> Term.bnot (build_bv vars r)
  | RBin (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, f, _) -> (n, f)) bin_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (build_bv vars a) (build_bv vars b)
  | RConcat (a, b) -> Term.concat (build_bv vars a) (build_bv vars b)
  | RExtract (hi, lo, r) -> Term.extract ~hi ~lo (build_bv vars r)
  | RIte (c, a, b) ->
      Term.ite (build_bool vars c) (build_bv vars a) (build_bv vars b)

and build_bool vars = function
  | RCmp (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, f, _) -> (n, f)) cmp_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (build_bv vars a) (build_bv vars b)
  | RNot r -> Term.not_ (build_bool vars r)
  | RAnd (a, b) -> Term.and_ (build_bool vars a) (build_bool vars b)
  | ROr (a, b) -> Term.or_ (build_bool vars a) (build_bool vars b)

(* Denote with plain Bv arithmetic — no term machinery involved. *)
let rec denote_bv values = function
  | RVar i -> values.(i)
  | RConst bv -> bv
  | RBnot r -> Bv.lognot (denote_bv values r)
  | RBin (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, _, f) -> (n, f)) bin_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (denote_bv values a) (denote_bv values b)
  | RConcat (a, b) -> Bv.concat (denote_bv values a) (denote_bv values b)
  | RExtract (hi, lo, r) -> Bv.extract ~hi ~lo (denote_bv values r)
  | RIte (c, a, b) ->
      if denote_bool values c then denote_bv values a else denote_bv values b

and denote_bool values = function
  | RCmp (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, _, f) -> (n, f)) cmp_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (denote_bv values a) (denote_bv values b)
  | RNot r -> not (denote_bool values r)
  | RAnd (a, b) -> denote_bool values a && denote_bool values b
  | ROr (a, b) -> denote_bool values a || denote_bool values b

(* --- generators ------------------------------------------------------------ *)

let gen_const width =
  QCheck2.Gen.map
    (fun v -> RConst (Bv.make ~width (Int64.of_int v)))
    QCheck2.Gen.(int_bound ((1 lsl min width 16) - 1))

(* A bv recipe of exactly [width] bits; only 8-bit recipes can use the
   variable pool, other widths bottom out in constants. *)
let rec gen_bv ~width n =
  let open QCheck2.Gen in
  if n <= 0 then
    if width = var_width then
      oneof [ map (fun i -> RVar i) (int_bound (n_vars - 1)); gen_const width ]
    else gen_const width
  else
    let sub = gen_bv ~width (n / 2) in
    let cases =
      [
        (if width = var_width then
           map (fun i -> RVar i) (int_bound (n_vars - 1))
         else gen_const width);
        gen_const width;
        map (fun r -> RBnot r) sub;
        map3
          (fun (op, _, _) a b -> RBin (op, a, b))
          (oneofl bin_ops) sub sub;
        (* split the width across a concat *)
        (if width >= 2 then
           int_range 1 (width - 1) >>= fun lw ->
           map2
             (fun a b -> RConcat (a, b))
             (gen_bv ~width:lw (n / 2))
             (gen_bv ~width:(width - lw) (n / 2))
         else gen_const width);
        (* extract [width] bits out of something wider *)
        ( int_range 0 4 >>= fun pad_lo ->
          int_range 0 4 >>= fun pad_hi ->
          let inner = pad_lo + width + pad_hi in
          map
            (fun r -> RExtract (pad_lo + width - 1, pad_lo, r))
            (gen_bv ~width:inner (n / 2)) );
        map3
          (fun c a b -> RIte (c, a, b))
          (gen_bool (n / 2)) sub sub;
      ]
    in
    oneof cases

and gen_bool n =
  let open QCheck2.Gen in
  if n <= 0 then
    map3
      (fun (op, _, _) a b -> RCmp (op, a, b))
      (oneofl cmp_ops)
      (gen_bv ~width:var_width 0)
      (gen_bv ~width:var_width 0)
  else
    let sub = gen_bool (n / 2) in
    oneof
      [
        map3
          (fun (op, _, _) a b -> RCmp (op, a, b))
          (oneofl cmp_ops)
          (gen_bv ~width:var_width (n / 2))
          (gen_bv ~width:var_width (n / 2));
        map (fun r -> RNot r) sub;
        map2 (fun a b -> RAnd (a, b)) sub sub;
        map2 (fun a b -> ROr (a, b)) sub sub;
      ]

let gen_values =
  QCheck2.Gen.array_size (QCheck2.Gen.return n_vars)
    (QCheck2.Gen.map
       (fun v -> Bv.make ~width:var_width (Int64.of_int v))
       QCheck2.Gen.(int_bound 255))

let make_vars () =
  Array.init n_vars (fun i ->
      Term.fresh_var ~name:(Printf.sprintf "hc%d" i) (Term.Bitvec var_width))

let model_of vars values =
  Array.to_list (Array.map2 (fun v bv -> (v, Model.Vbv bv)) vars values)
  |> Model.of_list

(* --- semantic equivalence -------------------------------------------------- *)

(* Constructor-time rewrites must be invisible to evaluation: a term built
   through the smart constructors evaluates to the recipe's direct Bv
   denotation, under both sharing modes. *)
let qcheck_rewrites_preserve_bv_semantics =
  QCheck2.Test.make ~name:"smart constructors preserve bitvector semantics"
    ~count:500
    QCheck2.Gen.(pair (gen_bv ~width:var_width 4) gen_values)
    (fun (recipe, values) ->
      let vars = make_vars () in
      let m = model_of vars values in
      let expected = denote_bv values recipe in
      List.for_all
        (fun mode ->
          with_sharing mode (fun () ->
              Model.eval_bv m (build_bv vars recipe) |> Bv.equal expected))
        [ true; false ])

let qcheck_rewrites_preserve_bool_semantics =
  QCheck2.Test.make ~name:"smart constructors preserve boolean semantics"
    ~count:500
    QCheck2.Gen.(pair (gen_bool 4) gen_values)
    (fun (recipe, values) ->
      let vars = make_vars () in
      let m = model_of vars values in
      let expected = denote_bool values recipe in
      List.for_all
        (fun mode ->
          with_sharing mode (fun () ->
              Model.eval_bool m (build_bool vars recipe) = expected))
        [ true; false ])

(* Sharing must be a pure representation choice: the same recipe renders to
   the same concrete syntax whether or not terms are interned. *)
let qcheck_sharing_modes_agree =
  QCheck2.Test.make ~name:"sharing on/off build identical terms" ~count:300
    (gen_bool 4)
    (fun recipe ->
      let vars = make_vars () in
      let on = with_sharing true (fun () -> build_bool vars recipe) in
      let off = with_sharing false (fun () -> build_bool vars recipe) in
      String.equal (Term.to_string on) (Term.to_string off))

(* --- hash-consing invariants ----------------------------------------------- *)

(* With sharing on, structural equality and physical equality coincide for
   terms built in the same domain. *)
let qcheck_equal_iff_physical =
  QCheck2.Test.make ~name:"equal a b <=> a == b under sharing" ~count:300
    QCheck2.Gen.(pair (gen_bool 4) (gen_bool 4))
    (fun (r1, r2) ->
      with_sharing true (fun () ->
          let vars = make_vars () in
          let a = build_bool vars r1 and b = build_bool vars r2 in
          let dup = build_bool vars r1 in
          (* a rebuilt copy of the same recipe is the same object *)
          a == dup
          (* and for arbitrary pairs the two equalities agree *)
          && Term.equal a b = (a == b)))

let qcheck_rebuild_is_identity =
  QCheck2.Test.make ~name:"rebuild is the identity on interned terms"
    ~count:300 (gen_bool 4)
    (fun recipe ->
      with_sharing true (fun () ->
          let vars = make_vars () in
          let t = build_bool vars recipe in
          Term.rebuild t == t))

(* Replaying a construction sequence from the same fresh-counter position
   reproduces the same variable ids and the same physical terms — the
   property the parallel search's shard replay depends on. *)
let test_replay_id_stability () =
  with_sharing true (fun () ->
      let base = Term.fresh_counter_value () in
      let build () =
        Term.set_fresh_counter base;
        let x = Term.var (Term.fresh_var ~name:"replay" (Term.Bitvec 8)) in
        let y = Term.var (Term.fresh_var ~name:"replay" (Term.Bitvec 8)) in
        [
          Term.eq (Term.add x y) (Term.int ~width:8 7);
          Term.ult x y;
          Term.and_ (Term.ult x y) (Term.not_ (Term.eq x y));
        ]
      in
      let first = build () in
      let second = build () in
      Alcotest.(check int)
        "same fresh-counter position"
        (base + 2)
        (Term.fresh_counter_value ());
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "replayed term is the same object" true (a == b);
          Alcotest.(check int) "replayed tid is stable" a.Term.tid b.Term.tid)
        first second)

(* Terms created while sharing was off are re-interned by [rebuild]; the
   result is canonical (physically equal to a sharing-on build) and renders
   identically. *)
let test_rebuild_after_off_mode () =
  let vars = make_vars () in
  let recipe =
    RAnd
      ( RCmp ("ult", RVar 0, RBin ("add", RVar 1, RConst (Bv.of_int ~width:8 3))),
        RNot (RCmp ("eq", RVar 0, RVar 2)) )
  in
  let off = with_sharing false (fun () -> build_bool vars recipe) in
  with_sharing true (fun () ->
      let canonical = build_bool vars recipe in
      let rebuilt = Term.rebuild off in
      Alcotest.(check bool)
        "rebuild re-interns to the canonical object" true
        (rebuilt == canonical);
      Alcotest.(check string)
        "rendering unchanged" (Term.to_string off) (Term.to_string rebuilt))

(* var_ids is memoized by term id under sharing; the memo must be invisible. *)
let qcheck_var_ids_memo_transparent =
  QCheck2.Test.make ~name:"var_ids agrees across sharing modes" ~count:300
    (gen_bool 4)
    (fun recipe ->
      let vars = make_vars () in
      let on =
        with_sharing true (fun () -> Term.var_ids (build_bool vars recipe))
      in
      let off =
        with_sharing false (fun () -> Term.var_ids (build_bool vars recipe))
      in
      on = off)

(* --- intern counters ------------------------------------------------------- *)

let test_intern_stats_move () =
  with_sharing true (fun () ->
      Solver.reset_all_for_tests ();
      let vars = make_vars () in
      let x = Term.var vars.(0) and y = Term.var vars.(1) in
      let _t1 = Term.add x y in
      let hits0, created0 = Term.aggregate_intern_stats () in
      let _t2 = Term.add x y in
      let hits1, created1 = Term.aggregate_intern_stats () in
      Alcotest.(check bool) "duplicate construction hits" true (hits1 > hits0);
      Alcotest.(check int) "duplicate construction allocates nothing" created0
        created1;
      Solver.reset_all_for_tests ())

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "hashcons"
    [
      qsuite "semantics"
        [
          qcheck_rewrites_preserve_bv_semantics;
          qcheck_rewrites_preserve_bool_semantics;
          qcheck_sharing_modes_agree;
        ];
      qsuite "invariants"
        [
          qcheck_equal_iff_physical;
          qcheck_rebuild_is_identity;
          qcheck_var_ids_memo_transparent;
        ];
      ( "replay",
        [
          Alcotest.test_case "id stability under replay" `Quick
            test_replay_id_stability;
          Alcotest.test_case "rebuild after off-mode" `Quick
            test_rebuild_after_off_mode;
        ] );
      ( "solver-cache",
        [
          Alcotest.test_case "intern counters" `Quick test_intern_stats_move;
        ] );
    ]
