(* Differential harness for assumption-based incremental solving: the
   frame-stack contexts ([Solver.Frames] / [Solver.check_assuming]) must
   agree verdict-for-verdict with the scratch solver on arbitrary query
   sequences — Unknown may only widen — across sharing modes and domain
   counts; plus regression coverage for escalation-rung clause retention and
   the registry-wide context clear. *)

open Achilles_smt

let with_sharing mode f =
  Fun.protect ~finally:(fun () -> Term.set_sharing true) (fun () ->
      Term.set_sharing mode;
      f ())

let with_incremental mode f =
  let prev = Solver.incremental_enabled () in
  Fun.protect ~finally:(fun () -> Solver.set_incremental prev) (fun () ->
      Solver.set_incremental mode;
      f ())

(* --- a small constraint language -------------------------------------------

   Queries are conjunctions of comparisons over a shared pool of 8-bit
   variables, with enough arithmetic mixed in to give the bitblaster real
   circuits (and the cone restriction real sharing) without making any
   single query slow. *)

let n_vars = 4

let make_vars () =
  Array.init n_vars (fun i ->
      Term.var
        (Term.fresh_var ~name:(Printf.sprintf "inc%d" i) (Term.Bitvec 8)))

type atom =
  | ACmp of int * int * int (* cmp_op index, var i, var j *)
  | AConst of int * int * int (* cmp_op index, var i, constant *)
  | AArith of int * int * int * int (* bin_op, cmp: vi OP vj CMP const *)
  | ANeg of atom

let cmp_ops = [| Term.eq; Term.ult; Term.ule; Term.slt; Term.sle |]
let bin_ops = [| Term.add; Term.sub; Term.mul; Term.band; Term.bxor |]

let rec build_atom vars = function
  | ACmp (c, i, j) -> cmp_ops.(c) vars.(i) vars.(j)
  | AConst (c, i, k) -> cmp_ops.(c) vars.(i) (Term.int ~width:8 k)
  | AArith (b, c, i, j) ->
      cmp_ops.(c) (bin_ops.(b) vars.(i) vars.(j)) (Term.int ~width:8 ((i * 37) + j))
  | ANeg a -> Term.not_ (build_atom vars a)

let gen_atom =
  let open QCheck2.Gen in
  let base =
    oneof
      [
        map3 (fun c i j -> ACmp (c, i, j)) (int_bound 4) (int_bound (n_vars - 1))
          (int_bound (n_vars - 1));
        map3 (fun c i k -> AConst (c, i, k)) (int_bound 4)
          (int_bound (n_vars - 1)) (int_bound 255);
        map3
          (fun b c (i, j) -> AArith (b, c, i, j))
          (int_bound 4) (int_bound 4)
          (pair (int_bound (n_vars - 1)) (int_bound (n_vars - 1)));
      ]
  in
  QCheck2.Gen.oneof [ base; QCheck2.Gen.map (fun a -> ANeg a) base ]

let verdict = function
  | Solver.Sat _ -> `Sat
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Unknown

(* Unknown on either side excuses a mismatch (soundness lets a budgeted or
   faulty run degrade); a definite Sat on one side and Unsat on the other
   never has an excuse. *)
let verdicts_agree a b =
  match (verdict a, verdict b) with
  | `Unknown, _ | _, `Unknown -> true
  | va, vb -> va = vb

(* --- differential property: check_assuming vs scratch ---------------------- *)

(* One random case: a path (innermost-first, as [State.path]) and one extra
   conjunct. The incremental route answers through the per-domain frame
   stack; the oracle is the always-scratch [Solver.check] on the same
   conjunction. *)
let run_differential (path_atoms, extra_atom) =
  (* pin the route under test: the property must not go vacuous if an
     earlier case left incremental solving switched off *)
  with_incremental true (fun () ->
      let vars = make_vars () in
      let path = List.map (build_atom vars) path_atoms in
      let extra = build_atom vars extra_atom in
      let incremental = Solver.check_assuming ~path [ extra ] in
      let scratch = Solver.check (extra :: path) in
      verdicts_agree incremental scratch)

let gen_case =
  QCheck2.Gen.(pair (list_size (int_bound 6) gen_atom) gen_atom)

let qcheck_differential_sharing_on =
  QCheck2.Test.make ~name:"check_assuming = scratch check (sharing on)"
    ~count:150 gen_case
    (fun case -> with_sharing true (fun () -> run_differential case))

let qcheck_differential_sharing_off =
  QCheck2.Test.make ~name:"check_assuming = scratch check (sharing off)"
    ~count:100 gen_case
    (fun case -> with_sharing false (fun () -> run_differential case))

(* The same property exercised from several domains at once: each worker
   owns a private frame context (Domain.DLS), so agreement must hold under
   parallel query streams too. *)
let test_differential_parallel () =
  Solver.reset_all_for_tests ();
  let cases =
    QCheck2.Gen.generate ~n:120 ~rand:(Random.State.make [| 0x1ac4e |]) gen_case
  in
  let shards = 4 in
  let results =
    (* the outer wrap keeps the global toggle stable while workers run *)
    with_incremental true (fun () ->
        List.init shards (fun s ->
            Domain.spawn (fun () ->
                List.filteri (fun i _ -> i mod shards = s) cases
                |> List.for_all run_differential))
        |> List.map Domain.join)
  in
  Alcotest.(check (list bool))
    "every shard agrees with scratch"
    (List.map (fun _ -> true) results)
    results;
  Solver.reset_all_for_tests ()

(* --- frame-stack behaviour -------------------------------------------------- *)

(* Pushing a frame then popping it restores the previous verdict for a fixed
   probe set: pop really does retire the constraint even though its guard
   stays registered for reuse. *)
let qcheck_pop_restores_verdicts =
  QCheck2.Test.make ~name:"pop restores pre-push verdicts" ~count:80
    QCheck2.Gen.(triple (list_size (int_bound 4) gen_atom) gen_atom
                   (list_size (int_bound 3) gen_atom))
    (fun (base_atoms, pushed_atom, probe_atoms) ->
      with_sharing true (fun () ->
          let vars = make_vars () in
          let c = Solver.Frames.create () in
          List.iter
            (fun a -> Solver.Frames.push c (build_atom vars a))
            base_atoms;
          let probes = List.map (fun a -> [ build_atom vars a ]) probe_atoms in
          let before = List.map (fun p -> verdict (Solver.Frames.check c p)) probes in
          Solver.Frames.push c (build_atom vars pushed_atom);
          ignore (List.map (fun p -> Solver.Frames.check c p) probes);
          Solver.Frames.pop c;
          let after = List.map (fun p -> verdict (Solver.Frames.check c p)) probes in
          before = after))

let test_set_path_mirrors_stack () =
  let vars = make_vars () in
  let a = Term.ult vars.(0) vars.(1) in
  let b = Term.ult vars.(1) vars.(2) in
  let b' = Term.not_ b in
  let c = Solver.Frames.create () in
  (* paths are innermost-first, like State.path *)
  Solver.Frames.set_path c [ b; a ];
  Alcotest.(check int) "two frames" 2 (Solver.Frames.depth c);
  Solver.Frames.set_path c [ b'; a ];
  Alcotest.(check int) "sibling flip keeps the prefix" 2 (Solver.Frames.depth c);
  Alcotest.(check bool)
    "stack mirrors the new path" true
    (List.for_all2 Term.equal (Solver.Frames.path c) [ b'; a ]);
  Solver.Frames.set_path c [];
  Alcotest.(check int) "backtrack to root pops all" 0 (Solver.Frames.depth c);
  Alcotest.check_raises "pop on empty stack rejected"
    (Invalid_argument "Solver.Frames.pop: empty frame stack") (fun () ->
      Solver.Frames.pop c)

(* --- escalation-rung clause retention --------------------------------------- *)

(* A 12x12-bit factoring query that needs ~1000 conflicts: under a
   2-conflict ambient budget the first rungs time out, and the retry ladder
   must carry the learnt clauses forward (rung_retained counts the clauses
   alive when a rung > 0 starts). The final verdict must still be Sat —
   escalation, not degradation. *)
let test_rung_retains_learnts () =
  Solver.reset_all_for_tests ();
  Fun.protect ~finally:(fun () -> Solver.set_budget None) (fun () ->
      Solver.set_budget (Some (Solver.budget ~conflicts:2 ~escalations:6 ()));
      let x = Term.var (Term.fresh_var ~name:"fx" (Term.Bitvec 12)) in
      let y = Term.var (Term.fresh_var ~name:"fy" (Term.Bitvec 12)) in
      (* zero-extend so the product cannot wrap: 2797 * 3023 = 8455331 *)
      let ext t = Term.concat (Term.int ~width:12 0) t in
      let q =
        [
          Term.eq (Term.mul (ext x) (ext y)) (Term.int ~width:24 8455331);
          Term.ult (Term.int ~width:12 1) x;
          Term.ult (Term.int ~width:12 1) y;
          Term.ule x y;
        ]
      in
      let c = Solver.Frames.create () in
      List.iter (fun t -> Solver.Frames.push c t) q;
      (match Solver.Frames.check c [] with
      | Solver.Sat _ -> ()
      | Solver.Unsat -> Alcotest.fail "factoring query must be Sat"
      | Solver.Unknown ->
          Alcotest.fail "escalation ladder must reach an answer");
      let st = Solver.stats () in
      Alcotest.(check bool)
        "query escalated at least once" true
        (st.Solver.budget_escalations >= 1);
      Alcotest.(check bool)
        "escalation rungs inherited learnt clauses" true
        (st.Solver.rung_retained > 0);
      Alcotest.(check bool)
        "context still holds the learnts" true
        (Solver.Frames.learnts c > 0));
  Solver.reset_all_for_tests ()

(* --- unsat cores ------------------------------------------------------------ *)

let test_unsat_core_localizes () =
  let vars = make_vars () in
  let irrelevant = Term.ult vars.(2) vars.(3) in
  let lo = Term.ult (Term.int ~width:8 10) vars.(0) in
  let hi = Term.ult vars.(0) (Term.int ~width:8 5) in
  let c = Solver.Frames.create () in
  Solver.Frames.push c irrelevant;
  Solver.Frames.push c lo;
  (match Solver.Frames.check c [ hi ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "contradictory bounds must be Unsat");
  match Solver.Frames.unsat_core c with
  | None -> Alcotest.fail "Unsat answer must produce a core"
  | Some core ->
      Alcotest.(check bool)
        "core contains the conflicting bounds" true
        (List.exists (Term.equal lo) core && List.exists (Term.equal hi) core)

(* --- registry-wide context clear -------------------------------------------- *)

(* reset_contexts must retire every domain's incremental context, not just
   the caller's: worker domains allocate contexts lazily via check_assuming,
   and a reconfiguration reset from the main domain must reach them all (the
   next check then lazily rebuilds a fresh, correct context). *)
let test_reset_contexts_all_domains () =
  Solver.reset_all_for_tests ();
  with_incremental true (fun () ->
      let vars = make_vars () in
      let probe d =
        [ Term.eq vars.(0) (Term.int ~width:8 d) ]
      in
      let workers =
        List.init 2 (fun d ->
            Domain.spawn (fun () ->
                match Solver.check_assuming ~path:(probe d) [ Term.ult vars.(1) vars.(2) ] with
                | Solver.Sat _ -> true
                | _ -> false))
      in
      let worker_ok = List.map Domain.join workers in
      Alcotest.(check (list bool)) "workers answered" [ true; true ] worker_ok;
      Alcotest.(check bool)
        "workers allocated incremental contexts" true
        (Solver.aggregate_incremental_contexts () >= 2);
      Solver.reset_contexts ();
      Alcotest.(check int)
        "reset_contexts retires every context" 0
        (Solver.aggregate_incremental_contexts ());
      (* and the lazily-rebuilt context still answers correctly *)
      match
        Solver.check_assuming ~path:(probe 7)
          [ Term.eq vars.(0) (Term.int ~width:8 9) ]
      with
      | Solver.Unsat -> ()
      | _ -> Alcotest.fail "rebuilt context must still refute x=7 /\\ x=9");
  Solver.reset_all_for_tests ()

(* --- escape hatch ------------------------------------------------------------ *)

let test_incremental_toggle () =
  with_incremental false (fun () ->
      Solver.reset_all_for_tests ();
      let vars = make_vars () in
      (* with incrementality off, check_assuming takes the scratch route and
         allocates no context *)
      (match
         Solver.check_assuming
           ~path:[ Term.ult vars.(0) vars.(1) ]
           [ Term.ult vars.(1) vars.(0) ]
       with
      | Solver.Unsat -> ()
      | _ -> Alcotest.fail "scratch fallback must refute x<y /\\ y<x");
      Alcotest.(check int) "no incremental context allocated" 0
        (Solver.aggregate_incremental_contexts ());
      Alcotest.(check bool) "last_assumption_core disabled" true
        (Solver.last_assumption_core () = None);
      Solver.reset_all_for_tests ())

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "incremental"
    [
      qsuite "differential"
        [ qcheck_differential_sharing_on; qcheck_differential_sharing_off ];
      ( "parallel",
        [
          Alcotest.test_case "agreement across 4 domains" `Quick
            test_differential_parallel;
        ] );
      qsuite "frames" [ qcheck_pop_restores_verdicts ];
      ( "frame-stack",
        [
          Alcotest.test_case "set_path mirrors the DFS path" `Quick
            test_set_path_mirrors_stack;
          Alcotest.test_case "unsat core localizes the conflict" `Quick
            test_unsat_core_localizes;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "rungs retain learnt clauses" `Quick
            test_rung_retains_learnts;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reset_contexts resets all contexts" `Quick
            test_reset_contexts_all_domains;
          Alcotest.test_case "incremental off = scratch route" `Quick
            test_incremental_toggle;
        ] );
    ]
