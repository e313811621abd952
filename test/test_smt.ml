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

(* [Sat.reset] must leave nothing of the previous problem behind: after a
   reset, an instance left in any end state answers a new CNF exactly as a
   fresh one does, down to the model and the search counters. *)

type prior = Prior_sat | Prior_unsat | Prior_unknown | Prior_core

(* Leave [s] in the given end state. A pigeonhole gadget, switched on by
   the selector [sel], sits on the lowest variables so the search's
   conflicts, learnt clauses, saved phases and activities land on the
   variables the next problem reuses; a planted (satisfiable) random CNF
   follows. *)
let drive_to_state s rng prior =
  let sel = Sat.new_var s in
  let pigeons = if prior = Prior_unknown then 7 else 5 in
  let holes = pigeons - 1 in
  let p = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  Array.iter (fun row -> Sat.add_clause s (-sel :: Array.to_list row)) p;
  for h = 0 to holes - 1 do
    for a = 0 to pigeons - 1 do
      for b = a + 1 to pigeons - 1 do
        Sat.add_clause s [ -p.(a).(h); -p.(b).(h) ]
      done
    done
  done;
  let n = 20 + Random.State.int rng 20 in
  let vars = Array.init n (fun _ -> Sat.new_var s) in
  let planted = Array.init n (fun _ -> Random.State.bool rng) in
  for _ = 1 to 3 * n do
    let lit () =
      let i = Random.State.int rng n in
      if Random.State.bool rng then vars.(i) else -vars.(i)
    in
    (* the first literal is true under the planted assignment *)
    let i = Random.State.int rng n in
    let first = if planted.(i) then vars.(i) else -vars.(i) in
    Sat.add_clause s [ first; lit (); lit () ]
  done;
  match prior with
  | Prior_sat ->
      Sat.solve ~assumptions:[ sel ] s = Some Sat.Unsat
      && Sat.solve s = Some Sat.Sat
  | Prior_core ->
      Sat.solve ~assumptions:[ sel ] s = Some Sat.Unsat && Sat.unsat_core s <> []
  | Prior_unsat ->
      Sat.add_clause s [ sel ];
      Sat.solve s = Some Sat.Unsat && Sat.solve s = Some Sat.Unsat
  | Prior_unknown ->
      Sat.add_clause s [ sel ];
      Sat.solve ~conflict_limit:20 s = None

let qcheck_sat_reset_is_create =
  let gen =
    QCheck2.Gen.(
      let* prior = oneofl [ Prior_sat; Prior_unsat; Prior_unknown; Prior_core ] in
      let* seed = int in
      let* nvars = int_range 1 30 in
      let* ratio = int_range 1 6 in
      let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool in
      let* clauses = list_size (return (ratio * nvars)) (list_size (int_range 0 5) lit) in
      let+ assumptions = list_size (int_range 0 4) lit in
      (prior, seed, nvars, clauses, assumptions))
  in
  QCheck2.Test.make ~name:"reset instance answers like a fresh one" ~count:300 gen
    (fun (prior, seed, nvars, clauses, assumptions) ->
      let reused = Sat.create () in
      let primed = drive_to_state reused (Random.State.make [| seed |]) prior in
      Sat.reset reused;
      let fresh = Sat.create () in
      let load s =
        for _ = 1 to nvars do
          ignore (Sat.new_var s)
        done;
        List.iter (Sat.add_clause s) clauses
      in
      load reused;
      load fresh;
      let observe s answer =
        ( answer,
          List.init nvars (fun i -> Sat.value s (i + 1)),
          (Sat.conflicts s, Sat.decisions s, Sat.propagations s),
          (Sat.num_clauses s, Sat.num_learnts s, Sat.unsat_core s) )
      in
      let solve_both f = observe reused (f reused) = observe fresh (f fresh) in
      primed
      && Sat.num_vars reused = nvars
      && solve_both (fun s -> Sat.solve s)
      && solve_both (fun s -> Sat.solve ~assumptions s))

(* --- search trajectory pin ---------------------------------------------------- *)

(* A deterministic corpus whose every observable — answer, search counters,
   retained learnts, model bits and unsat core — is pinned, so a change to
   the solver's internals that moves one decision, one propagation or one
   learnt literal fails here before it can move a report digest. Instances
   are generated by a local LCG (independent of the stdlib's [Random]) and
   stay below [max_learnts], where learnt-clause reduction never runs. *)

let lcg seed =
  let st = ref seed in
  fun bound ->
    (* the 48-bit java.util.Random recurrence *)
    st := ((!st * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
    (!st lsr 17) mod bound

(* Random 3-SAT over [vars] whose clauses all hold under a planted
   assignment (so the instance is satisfiable). *)
let planted_3sat rand vars ~clauses =
  let n = Array.length vars in
  let planted = Array.init n (fun _ -> rand 2 = 0) in
  let rec clause () =
    let i = rand n and j = rand n and k = rand n in
    if i = j || j = k || i = k then clause ()
    else
      let lit x = (x, rand 2 = 0) in
      let c = [ lit i; lit j; lit k ] in
      if List.exists (fun (x, positive) -> planted.(x) = positive) c then
        List.map (fun (x, positive) -> if positive then vars.(x) else -vars.(x)) c
      else clause ()
  in
  List.init clauses (fun _ -> clause ())

let observe_solve s answer =
  let model =
    String.init (Sat.num_vars s) (fun i -> if Sat.value s (i + 1) then '1' else '0')
  in
  Printf.sprintf "%s c=%d d=%d p=%d l=%d m=%s core=[%s]"
    (match answer with
    | Some Sat.Sat -> "sat"
    | Some Sat.Unsat -> "unsat"
    | None -> "unknown")
    (Sat.conflicts s) (Sat.decisions s) (Sat.propagations s)
    (Sat.num_learnts s)
    (String.sub (Digest.to_hex (Digest.string model)) 0 12)
    (String.concat "," (List.map string_of_int (Sat.unsat_core s)))

let trajectory_corpus () =
  let planted n ratio seed =
    let s = Sat.create () in
    let vars = Array.init n (fun _ -> Sat.new_var s) in
    List.iter (Sat.add_clause s)
      (planted_3sat (lcg seed) vars ~clauses:(int_of_float (ratio *. float n)));
    observe_solve s (Sat.solve s)
  in
  let pigeonhole () =
    (* 5 pigeons in 4 holes behind a selector: Unsat under it, Sat without *)
    let s = Sat.create () in
    let sel = Sat.new_var s in
    let p = Array.init 5 (fun _ -> Array.init 4 (fun _ -> Sat.new_var s)) in
    Array.iter (fun row -> Sat.add_clause s (-sel :: Array.to_list row)) p;
    for h = 0 to 3 do
      for a = 0 to 4 do
        for b = a + 1 to 4 do
          Sat.add_clause s [ -p.(a).(h); -p.(b).(h) ]
        done
      done
    done;
    let under = observe_solve s (Sat.solve ~assumptions:[ sel ] s) in
    [ under; observe_solve s (Sat.solve s) ]
  in
  let incremental () =
    (* one instance across several calls: assumptions, clauses added in
       between, and restricted decisions over the base variables (the
       guarded groups are satisfiable by leaving their guard false) *)
    let rand = lcg 77 in
    let s = Sat.create () in
    let vars = Array.init 80 (fun _ -> Sat.new_var s) in
    List.iter (Sat.add_clause s) (planted_3sat rand vars ~clauses:300);
    let guards = Array.init 4 (fun _ -> Sat.new_var s) in
    let group g =
      List.iter
        (fun c -> Sat.add_clause s (-guards.(g) :: c))
        (planted_3sat rand vars ~clauses:(20 + (10 * g)))
    in
    let lit () = if rand 2 = 0 then vars.(rand 80) else -vars.(rand 80) in
    let decide () =
      let a = Array.copy vars in
      for i = Array.length a - 1 downto 1 do
        let j = rand (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      a
    in
    let step ?assumptions ?decide_vars () =
      observe_solve s (Sat.solve ?assumptions ?decide_vars s)
    in
    group 0;
    let r1 = step ~assumptions:[ guards.(0) ] () in
    group 1;
    let r2 = step ~assumptions:[ guards.(0); guards.(1); lit (); lit () ] () in
    let r3 = step ~assumptions:[ guards.(1) ] ~decide_vars:(decide ()) () in
    group 2;
    group 3;
    let r4 =
      step ~assumptions:[ guards.(2); guards.(3); lit () ] ~decide_vars:(decide ()) ()
    in
    let x = vars.(5) in
    Sat.add_clause s [ -guards.(3); x ];
    let r5 = step ~assumptions:[ guards.(3); -x ] () in
    let r6 = step ~assumptions:[ guards.(0); guards.(1); guards.(2); guards.(3) ] () in
    let r7 = step () in
    [ r1; r2; r3; r4; r5; r6; r7 ]
  in
  [
    planted 50 4.2 1;
    planted 100 4.2 2;
    planted 150 4.1 3;
    planted 200 4.0 4;
    planted 300 3.9 5;
  ]
  @ pigeonhole ()
  @ incremental ()

(* Recorded on the record-and-option clause representation the flat arena
   replaced; the arena must reproduce every line. *)
let pinned_trajectory =
  [
    "sat c=8 d=22 p=166 l=8 m=7a6d3cb44324 core=[]";
    "sat c=19 d=49 p=570 l=19 m=1e4f9f2e90a8 core=[]";
    "sat c=19 d=53 p=691 l=19 m=0f32c5457022 core=[]";
    "sat c=207 d=342 p=8812 l=207 m=303d987a077b core=[]";
    "sat c=387 d=649 p=18450 l=387 m=9e15a80ccccc core=[]";
    "unsat c=29 d=32 p=288 l=28 m=0585e303e79a core=[1]";
    "sat c=30 d=43 p=327 l=28 m=46fd55c62944 core=[]";
    "sat c=3 d=21 p=134 l=3 m=c67ac9f481a0 core=[]";
    "sat c=44 d=90 p=1007 l=44 m=87236e7cc7c6 core=[]";
    "sat c=44 d=120 p=1088 l=44 m=61999872181c core=[]";
    "unsat c=252 d=400 p=5247 l=251 m=fd162f31aa22 core=[83,84,-58]";
    "unsat c=252 d=400 p=5249 l=251 m=fd162f31aa22 core=[-6,84]";
    "unsat c=282 d=432 p=5679 l=280 m=fd162f31aa22 core=[81,82,83,84]";
    "sat c=314 d=484 p=6570 l=312 m=591521159eea core=[]";
  ]

let test_sat_trajectory_pinned () =
  Alcotest.(check (list string)) "trajectory" pinned_trajectory
    (trajectory_corpus ())

(* Learnt-clause reduction, forced by instances needing thousands of
   conflicts (past the 1,000-learnt floor of [max_learnts]). Reduction must
   keep every clause that is the reason of an assigned literal; answers
   and models stay right. *)
let test_sat_reduce_db () =
  let pigeonhole pigeons =
    let s = Sat.create () in
    let p =
      Array.init pigeons (fun _ -> Array.init (pigeons - 1) (fun _ -> Sat.new_var s))
    in
    Array.iter (fun row -> Sat.add_clause s (Array.to_list row)) p;
    for h = 0 to pigeons - 2 do
      for a = 0 to pigeons - 1 do
        for b = a + 1 to pigeons - 1 do
          Sat.add_clause s [ -p.(a).(h); -p.(b).(h) ]
        done
      done
    done;
    s
  in
  let reduced name s =
    Alcotest.(check bool)
      (name ^ ": reduction ran") true
      (Sat.conflicts s > 3000 && Sat.num_learnts s < 1100)
  in
  let s = pigeonhole 8 in
  Alcotest.(check bool) "8 pigeons, 7 holes: unsat" true (Sat.solve s = Some Sat.Unsat);
  reduced "pigeonhole" s;
  let s = Sat.create () in
  let vars = Array.init 400 (fun _ -> Sat.new_var s) in
  let cnf = planted_3sat (lcg 6) vars ~clauses:1704 in
  List.iter (Sat.add_clause s) cnf;
  Alcotest.(check bool) "planted 3-SAT at 4.26: sat" true (Sat.solve s = Some Sat.Sat);
  Alcotest.(check bool) "every clause holds" true
    (List.for_all (List.exists (Sat.lit_value s)) cnf);
  reduced "planted" s

(* The arena of one long-lived instance stays bounded across many
   incremental solves: reduction deletes learnts and compaction reclaims
   their words. An arena that only grew would never shrink, and would hold
   every learnt clause derived over some 40,000 conflicts. *)
let test_sat_arena_bounded () =
  let rand = lcg 99 in
  let s = Sat.create () in
  let vars = Array.init 200 (fun _ -> Sat.new_var s) in
  let cnf = planted_3sat rand vars ~clauses:852 in
  List.iter (Sat.add_clause s) cnf;
  let peaks = Array.make 2 0 and shrank = ref false in
  for i = 0 to 199 do
    let before = Sat.arena_words s in
    let assumptions =
      List.init 4 (fun _ -> if rand 2 = 0 then vars.(rand 200) else -vars.(rand 200))
    in
    (match Sat.solve ~conflict_limit:500 ~assumptions s with
    | Some Sat.Sat ->
        Alcotest.(check bool) "model satisfies" true
          (List.for_all (List.exists (Sat.lit_value s)) cnf
          && List.for_all (Sat.lit_value s) assumptions)
    | Some Sat.Unsat | None -> ());
    let words = Sat.arena_words s in
    if words < before then shrank := true;
    peaks.(i / 100) <- max peaks.(i / 100) words
  done;
  Alcotest.(check bool) "many conflicts" true (Sat.conflicts s > 30_000);
  Alcotest.(check bool) "compaction shrank the arena" true !shrank;
  Alcotest.(check bool) "no growth in the second hundred solves" true
    (4 * peaks.(1) <= 5 * peaks.(0))

(* Clause entry normalizes each clause by sorting it, so neither the
   order its literals arrive in nor the fixed-arity entry (a binary clause
   as [add_clause3 s a b b]) may change what is stored or how the search
   runs. A few clauses are binary and a quarter are 9 to 16 literals wide,
   past anything the bitblaster emits; the wide ones carry duplicates and
   complementary pairs that only a full sort brings together, and the
   arena size shows whether they were removed. *)
let test_sat_clause_entry_normalizes () =
  let rand = lcg 7 in
  let nv = 100 in
  let cnf =
    List.init 440 (fun i ->
        let width =
          match i mod 16 with 1 -> 2 | r when r mod 4 = 0 -> 9 + rand 8 | _ -> 3
        in
        List.init width (fun _ ->
            let v = 1 + rand nv in
            if rand 2 = 0 then v else -v))
  in
  let run enter =
    let s = Sat.create () in
    for _ = 1 to nv do
      ignore (Sat.new_var s)
    done;
    List.iter (enter s) cnf;
    let words = Sat.arena_words s in
    Printf.sprintf "%s arena=%d" (observe_solve s (Sat.solve s)) words
  in
  let listed = run Sat.add_clause in
  Alcotest.(check string) "reversed literals" listed
    (run (fun s c -> Sat.add_clause s (List.rev c)));
  Alcotest.(check string) "fixed-arity entry" listed
    (run (fun s c ->
         match c with
         | [ a; b ] -> Sat.add_clause3 s b a a
         | [ a; b; c ] -> Sat.add_clause3 s c a b
         | c -> Sat.add_clause s c))

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

(* Scratch queries share one per-domain instance, reset between queries:
   a model must not depend on which queries came before it. *)
let test_solver_model_independent_of_history () =
  let x = fresh8 "hx" and y = fresh8 "hy" and z = fresh8 "hz" in
  let vx = Term.var x and vy = Term.var y and vz = Term.var z in
  let key = [ Term.ult (Term.add vx vy) (t8 100); Term.ugt vx (t8 7) ] in
  let unrelated =
    [
      [ Term.eq (Term.mul vz vz) (t8 49) ];
      [ Term.ult vz (t8 3); Term.ugt vz (t8 9) ];
      [ Term.eq (Term.udiv vy vz) (t8 5); Term.ugt vz (t8 1) ];
    ]
  in
  let model () =
    match Solver.check key with
    | Solver.Sat m -> Model.bindings m
    | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"
  in
  let before = model () in
  List.iter (fun q -> ignore (Solver.check q)) unrelated;
  let after = model () in
  Alcotest.(check bool) "identical model after unrelated queries" true
    (before = after)

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
          let oneshot = Solver.is_sat (extra @ permanent) in
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

(* random conjunctions of atoms over two 4-bit variables, for the
   brute-force oracles below *)
let qx = Term.fresh_var ~name:"qx" (Term.Bitvec 4)
let qy = Term.fresh_var ~name:"qy" (Term.Bitvec 4)

let gen_2x4_atoms ?size () =
  let x = qx and y = qy in
  let with_size =
    match size with
    | None -> QCheck2.Gen.sized
    | Some g -> QCheck2.Gen.sized_size g
  in
  let t4 n = Term.int ~width:4 n in
  let gen_bv_term =
    QCheck2.Gen.(
      with_size @@ fix (fun self n ->
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
  QCheck2.Gen.(list_size (int_range 1 3) gen_atom)

(* every (x, y) assignment satisfying [atoms], in ascending order *)
let brute_force_2x4 atoms =
  List.concat_map
    (fun vx ->
      List.filter_map
        (fun vy ->
          let m =
            Model.of_list
              [
                (qx, Model.Vbv (Bv.of_int ~width:4 vx));
                (qy, Model.Vbv (Bv.of_int ~width:4 vy));
              ]
          in
          if Model.satisfies m atoms then Some (vx, vy) else None)
        (List.init 16 Fun.id))
    (List.init 16 Fun.id)

(* random terms over two 4-bit variables, compared against brute force *)
let qcheck_solver_matches_enumeration =
  QCheck2.Test.make ~name:"solver agrees with enumeration (2x4bit)" ~count:120
    (gen_2x4_atoms ()) (fun atoms ->
      let expected = brute_force_2x4 atoms <> [] in
      match check_sat atoms with
      | `Sat m -> expected && Model.satisfies m atoms
      | `Unsat -> not expected
      | `Unknown -> false)

(* --- enumeration sessions --------------------------------------------------- *)

(* One [Solver.enumerate] session over the 2x4-bit variables with exact
   (x, y) blocking: the models in discovery order (an absent variable is
   unconstrained and reads as 0) and how the session ended. [after] runs
   after each model with the count delivered so far. *)
let session_2x4 ?(limit = 257) ?(after = fun _ -> ()) atoms =
  let found = ref [] in
  let value m v =
    match Model.find m v with Some (Model.Vbv b) -> Bv.to_int b | _ -> 0
  in
  let outcome =
    Solver.enumerate ~limit atoms (fun m ->
        let vx = value m qx and vy = value m qy in
        found := (vx, vy) :: !found;
        after (List.length !found);
        Term.not_
          (Term.and_
             (Term.eq (Term.var qx) (Term.int ~width:4 vx))
             (Term.eq (Term.var qy) (Term.int ~width:4 vy))))
  in
  (List.rev !found, outcome)

(* The session's oracle: enumerating to the end yields exactly the
   brute-force solution set, each solution once, and the sequence is a
   function of the input — a second session repeats it. *)
let qcheck_enumerate_matches_brute_force =
  QCheck2.Test.make ~name:"enumeration session = brute-force set (2x4bit)"
    ~count:120
    (* small terms: a session solves up to 257 times per case *)
    (gen_2x4_atoms ~size:(QCheck2.Gen.int_range 0 12) ())
    (fun atoms ->
      let models, outcome = session_2x4 atoms in
      outcome = `Exhausted
      && List.length (List.sort_uniq compare models) = List.length models
      && List.sort compare models = brute_force_2x4 atoms
      && session_2x4 atoms = (models, outcome))

let test_enumerate_limit_and_fault () =
  Solver.reset_all_for_tests ();
  let below5 = [ Term.ult (Term.var qx) (Term.int ~width:4 5) ] in
  let all, outcome = session_2x4 below5 in
  Alcotest.(check bool) "exhausted" true (outcome = `Exhausted);
  Alcotest.(check int) "5 x 16 models" 80 (List.length all);
  let first3, outcome = session_2x4 ~limit:3 below5 in
  Alcotest.(check bool) "limit stops the session" true (outcome = `Limit);
  Alcotest.(check bool) "limit keeps the prefix" true
    (first3 = List.filteri (fun i _ -> i < 3) all);
  let queries = (Solver.stats ()).Solver.queries in
  Alcotest.(check bool) "limit 0 stops at once" true
    (session_2x4 ~limit:0 below5 = ([], `Limit));
  Alcotest.(check int) "without a query" queries (Solver.stats ()).Solver.queries;
  (* faults switched on after the third model: the fourth solve answers
     Unknown, and the session stops with exactly the clean prefix *)
  let unknowns = (Solver.stats ()).Solver.unknown_results in
  let prefix, outcome =
    Fun.protect
      ~finally:(fun () -> Solver.set_fault_injection ())
      (fun () ->
        session_2x4 below5 ~after:(fun n ->
            if n = 3 then Solver.set_fault_injection ~rate:1.0 ()))
  in
  Alcotest.(check bool) "Unknown ends the session" true (outcome = `Unknown);
  Alcotest.(check bool) "after the exact clean prefix" true (prefix = first3);
  Alcotest.(check int) "one final Unknown" (unknowns + 1)
    (Solver.stats ()).Solver.unknown_results

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
          Alcotest.test_case "search trajectory pinned" `Quick
            test_sat_trajectory_pinned;
          Alcotest.test_case "reduction keeps reasons" `Quick test_sat_reduce_db;
          Alcotest.test_case "arena bounded across solves" `Quick
            test_sat_arena_bounded;
          Alcotest.test_case "clause entry normalizes literal order" `Quick
            test_sat_clause_entry_normalizes;
        ] );
      qsuite "sat-properties"
        [ qcheck_sat_matches_brute_force; qcheck_sat_reset_is_create ];
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
          Alcotest.test_case "model independent of query history" `Quick
            test_solver_model_independent_of_history;
          Alcotest.test_case "enumeration limit and fault" `Quick
            test_enumerate_limit_and_fault;
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
          qcheck_enumerate_matches_brute_force;
        ];
    ]
