(* Tests for the SMT substrate: bitvectors, terms, the SAT solver, the
   bitblaster and the solver front end. *)

open Achilles_smt

let bv = Alcotest.testable Bv.pp Bv.equal

(* --- Bv ------------------------------------------------------------------- *)

let test_bv_arith () =
  let x = Bv.of_int ~width:8 200 and y = Bv.of_int ~width:8 100 in
  Alcotest.(check bv) "add wraps" (Bv.of_int ~width:8 44) (Bv.add x y);
  Alcotest.(check bv) "sub wraps" (Bv.of_int ~width:8 156) (Bv.sub y x);
  Alcotest.(check bv) "mul wraps" (Bv.of_int ~width:8 32) (Bv.mul x y);
  Alcotest.(check bv) "udiv" (Bv.of_int ~width:8 2) (Bv.udiv x y);
  Alcotest.(check bv) "urem" (Bv.of_int ~width:8 0) (Bv.urem x y);
  Alcotest.(check bv) "udiv by zero is ones" (Bv.ones 8)
    (Bv.udiv x (Bv.zero 8));
  Alcotest.(check bv) "urem by zero is lhs" x (Bv.urem x (Bv.zero 8))

let test_bv_signed () =
  let minus_one = Bv.ones 8 in
  Alcotest.(check int64) "sign extension" (-1L) (Bv.to_signed_int64 minus_one);
  Alcotest.(check bool) "slt: -1 < 0" true (Bv.slt minus_one (Bv.zero 8));
  Alcotest.(check bool) "ult: 255 > 0" false (Bv.ult minus_one (Bv.zero 8));
  Alcotest.(check bv) "ashr fills sign"
    (Bv.ones 8)
    (Bv.ashr minus_one (Bv.of_int ~width:8 3));
  Alcotest.(check bv) "sign_extend negative"
    (Bv.of_int ~width:16 0xFFFF)
    (Bv.sign_extend ~by:8 minus_one)

let test_bv_slices () =
  let v = Bv.of_int ~width:16 0xBEEF in
  Alcotest.(check bv) "extract low byte" (Bv.of_int ~width:8 0xEF)
    (Bv.extract ~hi:7 ~lo:0 v);
  Alcotest.(check bv) "extract high byte" (Bv.of_int ~width:8 0xBE)
    (Bv.extract ~hi:15 ~lo:8 v);
  Alcotest.(check bv) "concat round-trips" v
    (Bv.concat (Bv.extract ~hi:15 ~lo:8 v) (Bv.extract ~hi:7 ~lo:0 v));
  Alcotest.(check bool) "bit 0" true (Bv.bit v 0);
  Alcotest.(check bool) "bit 4" false (Bv.bit v 4)

let test_bv_shifts_saturate () =
  let v = Bv.of_int ~width:8 0x81 in
  Alcotest.(check bv) "shl past width" (Bv.zero 8)
    (Bv.shl v (Bv.of_int ~width:8 8));
  Alcotest.(check bv) "lshr past width" (Bv.zero 8)
    (Bv.lshr v (Bv.of_int ~width:8 200));
  Alcotest.(check bv) "ashr past width, negative" (Bv.ones 8)
    (Bv.ashr v (Bv.of_int ~width:8 200))

(* --- Term ----------------------------------------------------------------- *)

let t8 n = Term.int ~width:8 n

let test_term_folding () =
  Alcotest.(check bool) "const add folds" true
    (Term.equal (Term.add (t8 3) (t8 4)) (t8 7));
  Alcotest.(check bool) "and true" true
    (Term.equal (Term.and_ Term.tru Term.fls) Term.fls);
  let v = Term.var (Term.fresh_var ~name:"x" (Term.Bitvec 8)) in
  Alcotest.(check bool) "x + 0 = x" true (Term.equal (Term.add v (t8 0)) v);
  Alcotest.(check bool) "x * 0 = 0" true (Term.equal (Term.mul v (t8 0)) (t8 0));
  Alcotest.(check bool) "eq x x folds" true (Term.equal (Term.eq v v) Term.tru);
  Alcotest.(check bool) "ult x x folds" true
    (Term.equal (Term.ult v v) Term.fls);
  Alcotest.(check bool) "not not x" true
    (Term.equal (Term.not_ (Term.not_ (Term.eq v (t8 1)))) (Term.eq v (t8 1)))

let test_term_extract_rules () =
  let v = Term.var (Term.fresh_var ~name:"y" (Term.Bitvec 16)) in
  let full = Term.extract ~hi:15 ~lo:0 v in
  Alcotest.(check bool) "full extract is identity" true (Term.equal full v);
  let lo = Term.extract ~hi:7 ~lo:0 v in
  let nested = Term.extract ~hi:3 ~lo:2 lo in
  Alcotest.(check bool) "nested extracts fuse" true
    (Term.equal nested (Term.extract ~hi:3 ~lo:2 v));
  let w8 = Term.var (Term.fresh_var (Term.Bitvec 8)) in
  let cat = Term.concat v w8 (* v is high, w8 is low *) in
  Alcotest.(check bool) "extract of concat (low part)" true
    (Term.equal (Term.extract ~hi:7 ~lo:0 cat) w8);
  Alcotest.(check bool) "extract of concat (high part)" true
    (Term.equal (Term.extract ~hi:23 ~lo:8 cat) v)

let test_term_sorts () =
  let v = Term.var (Term.fresh_var (Term.Bitvec 8)) in
  Alcotest.check_raises "adding bool raises"
    (Term.Sort_error "add: incompatible sorts Bool and Bv8") (fun () ->
      ignore (Term.add Term.tru v));
  Alcotest.(check int) "width_of" 8 (Term.width_of v);
  Alcotest.(check bool) "sort of comparison" true
    (Term.sort_equal Term.Bool (Term.sort_of (Term.ult v (t8 1))))

let test_term_subst () =
  let x = Term.fresh_var ~name:"x" (Term.Bitvec 8) in
  let t = Term.add (Term.var x) (t8 1) in
  let replaced = Term.subst (fun v -> if v.id = x.id then Some (t8 41) else None) t in
  Alcotest.(check bool) "subst then fold" true (Term.equal replaced (t8 42))

let test_term_vars () =
  let x = Term.fresh_var ~name:"x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"y" (Term.Bitvec 8) in
  let t = Term.ult (Term.add (Term.var x) (Term.var y)) (Term.var x) in
  let ids = Term.var_ids t in
  Alcotest.(check (list int)) "distinct var ids" [ x.id; y.id ] ids;
  Alcotest.(check bool) "mentions x" true (Term.mentions t x);
  let z = Term.fresh_var (Term.Bitvec 8) in
  Alcotest.(check bool) "does not mention z" false (Term.mentions t z)

(* --- Sat ------------------------------------------------------------------ *)

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ a; -b ];
  (match Sat.solve s with
  | Some Sat.Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "a true" true (Sat.value s a);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ a; -b ];
  Sat.add_clause s [ -a; -b ];
  match Sat.solve s with
  | Some Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_sat_pigeonhole () =
  (* 4 pigeons in 3 holes: classic small UNSAT instance exercising learning *)
  let s = Sat.create () in
  let pigeons = 4 and holes = 3 in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list var.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ -var.(p1).(h); -var.(p2).(h) ]
      done
    done
  done;
  match Sat.solve s with
  | Some Sat.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole should be UNSAT"

let test_sat_empty_clause () =
  let s = Sat.create () in
  Sat.add_clause s [];
  match Sat.solve s with
  | Some Sat.Unsat -> ()
  | _ -> Alcotest.fail "empty clause should be UNSAT"

(* Brute-force CNF evaluation over all assignments. *)
let brute_force_sat nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let value = List.nth assignment (abs l - 1) in
              if l > 0 then value else not value)
            clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let qcheck_sat_matches_brute_force =
  let gen =
    QCheck2.Gen.(
      let* nvars = int_range 1 6 in
      let* nclauses = int_range 1 12 in
      let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool in
      let clause = list_size (int_range 1 4) lit in
      let+ clauses = list_size (return nclauses) clause in
      (nvars, clauses))
  in
  QCheck2.Test.make ~name:"sat agrees with brute force" ~count:300 gen
    (fun (nvars, clauses) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      let expected = brute_force_sat nvars clauses in
      match Sat.solve s with
      | Some Sat.Sat ->
          expected
          && List.for_all
               (fun clause -> List.exists (Sat.lit_value s) clause)
               clauses
      | Some Sat.Unsat -> not expected
      | None -> false)

(* --- Solver / bitblast ----------------------------------------------------- *)

let fresh8 name = Term.fresh_var ~name (Term.Bitvec 8)

let check_sat terms =
  match Solver.check terms with
  | Solver.Sat m -> `Sat m
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Unknown

let test_solver_simple () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (match check_sat [ Term.ult vx (t8 5); Term.ugt vx (t8 2) ] with
  | `Sat m ->
      let value = Model.eval_bv m vx in
      Alcotest.(check bool) "model in range" true
        (Bv.ult value (Bv.of_int ~width:8 5) && Bv.ult (Bv.of_int ~width:8 2) value)
  | _ -> Alcotest.fail "expected SAT");
  match check_sat [ Term.ult vx (t8 5); Term.ugt vx (t8 10) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_solver_arith () =
  let x = fresh8 "x" and y = fresh8 "y" in
  let vx = Term.var x and vy = Term.var y in
  (* x + y = 10, x * 2 = y  ->  x = 10 - 2x -> 3x = 10: no 8-bit solution
     without wrap... actually 3x = 10 mod 256 has a solution because 3 is
     invertible mod 256 (3 * 171 = 513 = 1 mod 256), x = 171 * 10 mod 256 = 174. *)
  (match
     check_sat
       [ Term.eq (Term.add vx vy) (t8 10); Term.eq (Term.mul vx (t8 2)) vy ]
   with
  | `Sat m ->
      let mx = Model.eval_bv m vx and my = Model.eval_bv m vy in
      Alcotest.(check bv) "x + y = 10" (Bv.of_int ~width:8 10) (Bv.add mx my);
      Alcotest.(check bv) "2x = y" my (Bv.mul mx (Bv.of_int ~width:8 2))
  | _ -> Alcotest.fail "expected SAT");
  (* x * 2 is even: x * 2 = 3 is UNSAT *)
  match check_sat [ Term.eq (Term.mul vx (t8 2)) (t8 3) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "2x = 3 must be UNSAT in Z/256"

let test_solver_div () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* x / 3 = 5 and x % 3 = 2 -> x = 17 *)
  match
    check_sat
      [
        Term.eq (Term.udiv vx (t8 3)) (t8 5);
        Term.eq (Term.urem vx (t8 3)) (t8 2);
      ]
  with
  | `Sat m ->
      Alcotest.(check bv) "x = 17" (Bv.of_int ~width:8 17) (Model.eval_bv m vx)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_div_by_zero_semantics () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* per SMT-LIB, x udiv 0 = 0xFF for all x *)
  match check_sat [ Term.neq (Term.udiv vx (t8 0)) (t8 0xFF) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "udiv by zero must equal ones"

let test_solver_shifts () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* x << 1 = 0x10 -> x in {0x08, 0x88} *)
  (match check_sat [ Term.eq (Term.shl vx (t8 1)) (t8 0x10) ] with
  | `Sat m ->
      let v = Bv.value (Model.eval_bv m vx) in
      Alcotest.(check bool) "x is 0x08 or 0x88" true (v = 0x08L || v = 0x88L)
  | _ -> Alcotest.fail "expected SAT");
  (* shift saturates: x >> 9 = 0 always *)
  match check_sat [ Term.neq (Term.lshr vx (t8 9)) (t8 0) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "oversized shift must be zero"

let test_solver_signed () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* x <s 0 and x >u 0x7F describe the same set: both satisfiable together *)
  (match check_sat [ Term.slt vx (t8 0); Term.ule (t8 0x80) vx ] with
  | `Sat _ -> ()
  | _ -> Alcotest.fail "negative bytes exist");
  match check_sat [ Term.slt vx (t8 0); Term.ult vx (t8 0x80) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "x <s 0 contradicts x <u 0x80"

let test_solver_concat_extract () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  let wide = Term.concat vx (t8 0xAB) in
  match
    check_sat [ Term.eq wide (Term.int ~width:16 0xCDAB) ]
  with
  | `Sat m ->
      Alcotest.(check bv) "high byte recovered" (Bv.of_int ~width:8 0xCD)
        (Model.eval_bv m vx)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_ite () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  let abs_x = Term.ite (Term.slt vx (t8 0)) (Term.neg vx) vx in
  (* |x| = 5 has two solutions *)
  match check_sat [ Term.eq abs_x (t8 5); Term.slt vx (t8 0) ] with
  | `Sat m ->
      Alcotest.(check bv) "x = -5" (Bv.of_int ~width:8 251) (Model.eval_bv m vx)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_implied () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  Alcotest.(check bool) "x < 5 implies x < 10" true
    (Solver.implied [ Term.ult vx (t8 5) ] (Term.ult vx (t8 10)));
  Alcotest.(check bool) "x < 10 does not imply x < 5" false
    (Solver.implied [ Term.ult vx (t8 10) ] (Term.ult vx (t8 5)))

let test_solver_unknown_on_budget () =
  (* A deliberately hard multiplication instance with a tiny conflict budget
     should report Unknown rather than a wrong answer. *)
  let w = 16 in
  let x = Term.fresh_var ~name:"x" (Term.Bitvec w) in
  let y = Term.fresh_var ~name:"y" (Term.Bitvec w) in
  let product = Term.mul (Term.var x) (Term.var y) in
  let terms =
    [
      Term.eq product (Term.int ~width:w 0x6E0F);
      Term.ugt (Term.var x) (Term.int ~width:w 1);
      Term.ugt (Term.var y) (Term.int ~width:w 1);
    ]
  in
  match Solver.check ~conflict_limit:1 terms with
  | Solver.Unknown | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "factoring 0x6E0F is satisfiable"

(* --- incremental frames -------------------------------------------------------- *)

(* answers from one long-lived frame context must agree with one-shot solving
   on random query sequences over shared permanent frames *)
let qcheck_incremental_matches_oneshot =
  let gen =
    QCheck2.Gen.(
      let* lo = int_range 0 200 in
      let* hi = int_range 0 255 in
      let* queries =
        list_size (int_range 1 6)
          (pair (int_range 0 255) (int_range 0 255))
      in
      return (lo, hi, queries))
  in
  QCheck2.Test.make ~name:"incremental agrees with one-shot" ~count:60 gen
    (fun (lo, hi, queries) ->
      let x = Term.fresh_var ~name:"qix" (Term.Bitvec 8) in
      let vx = Term.var x in
      let permanent =
        [ Term.ule (t8 lo) vx; Term.ule vx (t8 hi) ]
      in
      let frames = Solver.Frames.create () in
      List.iter (Solver.Frames.push frames) permanent;
      List.for_all
        (fun (a, b) ->
          let extra = [ Term.uge vx (t8 a); Term.ule vx (t8 b) ] in
          let incremental = Solver.Frames.is_sat frames extra in
          Solver.set_cache_enabled false;
          let oneshot = Solver.is_sat (extra @ permanent) in
          Solver.set_cache_enabled true;
          incremental = oneshot)
        queries)

(* --- interval pre-check ----------------------------------------------------- *)

let test_interval_prunes () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  Alcotest.(check bool) "x < 5 && x > 10 pruned" true
    (Interval.definitely_unsat [ Term.ult vx (t8 5); Term.ugt vx (t8 10) ]);
  Alcotest.(check bool) "x < 5 && x = 3 kept" false
    (Interval.definitely_unsat [ Term.ult vx (t8 5); Term.eq vx (t8 3) ]);
  Alcotest.(check bool) "x = 4 && x <> 4 pruned" true
    (Interval.definitely_unsat [ Term.eq vx (t8 4); Term.neq vx (t8 4) ]);
  Alcotest.(check bool) "edge tightening: 3 <= x <= 4, x<>3, x<>4" true
    (Interval.definitely_unsat
       [
         Term.ule (t8 3) vx; Term.ule vx (t8 4); Term.neq vx (t8 3);
         Term.neq vx (t8 4);
       ])

let test_interval_never_wrong () =
  (* soundness on a tricky satisfiable conjunction *)
  let x = fresh8 "x" in
  let vx = Term.var x in
  let terms = [ Term.ule (t8 200) vx; Term.neq vx (t8 200); Term.neq vx (t8 255) ] in
  Alcotest.(check bool) "not pruned" false (Interval.definitely_unsat terms);
  match check_sat terms with `Sat _ -> () | _ -> Alcotest.fail "expected SAT"

(* --- property tests over the full solver ------------------------------------ *)

(* random terms over two 4-bit variables, compared against brute force *)
let qcheck_solver_matches_enumeration =
  let x = Term.fresh_var ~name:"qx" (Term.Bitvec 4) in
  let y = Term.fresh_var ~name:"qy" (Term.Bitvec 4) in
  let t4 n = Term.int ~width:4 n in
  let gen_bv_term =
    QCheck2.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then
            oneof [ return (Term.var x); return (Term.var y);
                    map (fun v -> t4 v) (int_range 0 15) ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 Term.add sub sub;
                map2 Term.sub sub sub;
                map2 Term.mul sub sub;
                map2 Term.band sub sub;
                map2 Term.bor sub sub;
                map2 Term.bxor sub sub;
                map2 Term.udiv sub sub;
                map2 Term.urem sub sub;
                map Term.bnot sub;
                map2 Term.shl sub sub;
                map2 Term.lshr sub sub;
                (* slice-and-reassemble exercises the extract/concat
                   fusion rules of the smart constructors *)
                map
                  (fun t ->
                    Term.concat
                      (Term.extract ~hi:3 ~lo:2 t)
                      (Term.extract ~hi:1 ~lo:0 t))
                  sub;
                map2
                  (fun t amount ->
                    Term.extract ~hi:1 ~lo:0
                      (Term.lshr t (t4 amount)))
                  sub (int_range 0 5)
                |> map (fun narrow -> Term.zero_extend ~by:2 narrow);
              ]))
  in
  let gen_atom =
    QCheck2.Gen.(
      let* a = gen_bv_term and* b = gen_bv_term in
      oneofl
        [ Term.eq a b; Term.ult a b; Term.ule a b; Term.slt a b; Term.sle a b ])
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 3) gen_atom) in
  QCheck2.Test.make ~name:"solver agrees with enumeration (2x4bit)" ~count:120
    gen (fun atoms ->
      let expected =
        let found = ref false in
        for vx = 0 to 15 do
          for vy = 0 to 15 do
            let m =
              Model.of_list
                [
                  (x, Model.Vbv (Bv.of_int ~width:4 vx));
                  (y, Model.Vbv (Bv.of_int ~width:4 vy));
                ]
            in
            if Model.satisfies m atoms then found := true
          done
        done;
        !found
      in
      match check_sat atoms with
      | `Sat m -> expected && Model.satisfies m atoms
      | `Unsat -> not expected
      | `Unknown -> false)

(* the interval pre-check may only ever answer "unsat" when the solver
   agrees *)
let qcheck_interval_sound =
  let x = Term.fresh_var ~name:"ivx" (Term.Bitvec 8) in
  let gen_atom =
    QCheck2.Gen.(
      let* c = int_range 0 255 in
      let* flip = bool in
      let+ kind = int_range 0 3 in
      let atom =
        match kind with
        | 0 -> Term.ult (Term.var x) (t8 c)
        | 1 -> Term.ule (t8 c) (Term.var x)
        | 2 -> Term.eq (Term.var x) (t8 c)
        | _ -> Term.neq (Term.var x) (t8 c)
      in
      if flip then Term.not_ atom else atom)
  in
  QCheck2.Test.make ~name:"interval pre-check is sound" ~count:200
    QCheck2.Gen.(list_size (int_range 1 5) gen_atom)
    (fun atoms ->
      if Interval.definitely_unsat atoms then begin
        (* verify against brute force (the solver itself consults the
           interval check, so it would not be an independent witness) *)
        let satisfiable = ref false in
        for v = 0 to 255 do
          let m = Model.add_bv x (Bv.of_int ~width:8 v) Model.empty in
          if Model.satisfies m atoms then satisfiable := true
        done;
        not !satisfiable
      end
      else true)

let qcheck_model_satisfies =
  (* any SAT answer must come with a model that satisfies the query *)
  let x = Term.fresh_var ~name:"mx" (Term.Bitvec 8) in
  let gen =
    QCheck2.Gen.(
      let* lo = int_range 0 255 and* hi = int_range 0 255 in
      let* exclude = int_range 0 255 in
      return
        [
          Term.ule (t8 lo) (Term.var x);
          Term.ule (Term.var x) (t8 hi);
          Term.neq (Term.var x) (t8 exclude);
        ])
  in
  QCheck2.Test.make ~name:"models satisfy their query" ~count:200 gen
    (fun terms ->
      match check_sat terms with
      | `Sat m -> Model.satisfies m terms
      | `Unsat | `Unknown -> true)

let () =
  let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests) in
  Alcotest.run "smt"
    [
      ( "bv",
        [
          Alcotest.test_case "arithmetic" `Quick test_bv_arith;
          Alcotest.test_case "signed ops" `Quick test_bv_signed;
          Alcotest.test_case "slices" `Quick test_bv_slices;
          Alcotest.test_case "shift saturation" `Quick test_bv_shifts_saturate;
        ] );
      ( "term",
        [
          Alcotest.test_case "constant folding" `Quick test_term_folding;
          Alcotest.test_case "extract rules" `Quick test_term_extract_rules;
          Alcotest.test_case "sort checking" `Quick test_term_sorts;
          Alcotest.test_case "substitution" `Quick test_term_subst;
          Alcotest.test_case "variable collection" `Quick test_term_vars;
        ] );
      ( "sat",
        [
          Alcotest.test_case "basic sat" `Quick test_sat_basic;
          Alcotest.test_case "basic unsat" `Quick test_sat_unsat;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "empty clause" `Quick test_sat_empty_clause;
        ] );
      qsuite "sat-properties" [ qcheck_sat_matches_brute_force ];
      ( "solver",
        [
          Alcotest.test_case "ranges" `Quick test_solver_simple;
          Alcotest.test_case "arithmetic" `Quick test_solver_arith;
          Alcotest.test_case "division" `Quick test_solver_div;
          Alcotest.test_case "div-by-zero semantics" `Quick
            test_solver_div_by_zero_semantics;
          Alcotest.test_case "shifts" `Quick test_solver_shifts;
          Alcotest.test_case "signed comparisons" `Quick test_solver_signed;
          Alcotest.test_case "concat/extract" `Quick test_solver_concat_extract;
          Alcotest.test_case "ite" `Quick test_solver_ite;
          Alcotest.test_case "implication" `Quick test_solver_implied;
          Alcotest.test_case "unknown on tiny budget" `Quick
            test_solver_unknown_on_budget;
        ] );
      qsuite "incremental-properties" [ qcheck_incremental_matches_oneshot ];
      ( "interval",
        [
          Alcotest.test_case "prunes contradictions" `Quick test_interval_prunes;
          Alcotest.test_case "sound on satisfiable" `Quick
            test_interval_never_wrong;
        ] );
      qsuite "solver-properties"
        [
          qcheck_solver_matches_enumeration;
          qcheck_model_satisfies;
          qcheck_interval_sound;
        ];
    ]
