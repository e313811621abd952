(* Differential harness for assumption-based incremental solving: the
   frame-stack contexts ([Solver.Frames] / [Solver.check_assuming]) must
   agree verdict-for-verdict with the scratch solver on arbitrary query
   sequences — Unknown may only widen — across sharing modes; plus
   regression coverage for escalation-rung clause retention. *)

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
   conjunct. The incremental route answers through the shared frame
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

(* --- canonical witnesses ------------------------------------------------------

   [Solver.witnesses] on the frame context, after a random history (earlier
   checks on other paths, so pushes and pops, and recycling under a small
   variable cap), returns exactly the witnesses the reset scratch instance
   returns. Witness 0 is the least message the query admits, found by
   evaluating the query on every message with [Model.eval_bool], which
   shares no code with bitblasting or SAT. *)

type witness_case = {
  wc_bytes : int; (* message bytes, 1 or 2 *)
  wc_history : (atom list * atom) list; (* earlier checks: path, extra *)
  wc_cap : int; (* the context's variable cap during the case *)
  wc_path : atom list;
  wc_extras : atom list;
  wc_exact : bool;
  (* block exact messages with scattered preferences, or else the high
     nibble of byte 0 with all-false ones *)
  wc_limit : int;
}

let gen_witness_case =
  let open QCheck2.Gen in
  let* wc_bytes = int_range 1 2 in
  let* wc_history =
    list_size (int_bound 5) (pair (list_size (int_bound 4) gen_atom) gen_atom)
  in
  let* wc_cap = int_range 40 400 in
  let* wc_path = list_size (int_bound 4) gen_atom in
  let* wc_extras = list_size (int_bound 2) gen_atom in
  let* wc_exact = bool in
  let+ wc_limit = int_range 1 5 in
  { wc_bytes; wc_history; wc_cap; wc_path; wc_extras; wc_exact; wc_limit }

let message_bytes msg model =
  Array.map
    (fun v ->
      match Model.find model v with
      | Some (Model.Vbv b) -> Bv.to_int b
      | Some (Model.Vbool _) -> invalid_arg "message_bytes: boolean"
      | None -> 0)
    msg

let message_model msg bytes =
  Model.of_list
    (Array.to_list
       (Array.mapi (fun i v -> (v, Model.Vbv (Bv.of_int ~width:8 bytes.(i)))) msg))

(* The least message, byte 0 first and each byte as a number, satisfying
   every term, by trying them all in that order. *)
let least_message msg terms =
  let n = Array.length msg in
  let rec go k =
    if k >= 1 lsl (8 * n) then None
    else
      let bytes = Array.init n (fun i -> (k lsr (8 * (n - 1 - i))) land 0xff) in
      if List.for_all (Model.eval_bool (message_model msg bytes)) terms then
        Some bytes
      else go (k + 1)
  in
  go 0

let run_witness_case c =
  let msg =
    Array.init c.wc_bytes (fun i ->
        Term.fresh_var ~name:(Printf.sprintf "wm%d" i) (Term.Bitvec 8))
  in
  let m = Array.map Term.var msg in
  (* queries read only the message; the history also reads two other
     variables, which the frame context then holds beside it *)
  let query_vars = Array.init n_vars (fun i -> m.(i mod c.wc_bytes)) in
  let history_vars =
    Array.init n_vars (fun i ->
        if i < c.wc_bytes then m.(i)
        else
          Term.var
            (Term.fresh_var ~name:(Printf.sprintf "wh%d" i) (Term.Bitvec 8)))
  in
  let path = List.map (build_atom query_vars) c.wc_path in
  let extras = List.map (build_atom query_vars) c.wc_extras in
  let block bytes =
    if c.wc_exact then
      Term.not_
        (Term.and_l
           (Array.to_list
              (Array.mapi
                 (fun i x -> Term.eq x (Term.int ~width:8 bytes.(i)))
                 m)))
    else
      Term.neq
        (Term.band m.(0) (Term.int ~width:8 0xf0))
        (Term.int ~width:8 (bytes.(0) land 0xf0))
  in
  let enumerate () =
    let found = ref [] in
    let outcome =
      Solver.witnesses ~model_vars:msg ~limit:c.wc_limit ~scatter:c.wc_exact
        ~path extras (fun model ->
          let bytes = message_bytes msg model in
          found := bytes :: !found;
          block bytes)
    in
    (outcome, List.rev !found)
  in
  let on_frames =
    with_incremental true (fun () ->
        List.iter
          (fun (p, e) ->
            ignore
              (Solver.check_assuming
                 ~path:(List.map (build_atom history_vars) p)
                 [ build_atom history_vars e ]))
          c.wc_history;
        enumerate ())
  in
  let on_scratch = with_incremental false enumerate in
  let query = path @ extras in
  (* each witness satisfies the query and differs from the ones before *)
  let valid =
    let rec go blocks = function
      | [] -> true
      | w :: rest ->
          List.for_all (Model.eval_bool (message_model msg w)) (query @ blocks)
          && go (block w :: blocks) rest
    in
    go [] (snd on_frames)
  in
  let least =
    match (least_message msg query, on_frames) with
    | None, (`Exhausted, []) -> true
    | Some least, (_, w0 :: _) -> w0 = least
    | _ -> false
  in
  on_frames = on_scratch && valid && least

let qcheck_canonical_witnesses =
  QCheck2.Test.make
    ~name:"frame = scratch, witness 0 least"
    ~count:120 gen_witness_case (fun c ->
      Solver.reset_all_for_tests ();
      Solver.set_fault_injection ();
      Solver.set_context_var_cap c.wc_cap;
      Fun.protect
        ~finally:(fun () -> Solver.set_context_var_cap 200_000)
        (fun () -> run_witness_case c))

(* A witness session holds the solver: from [on_model], anything that
   would move the frame stack under it raises, on either route, and the
   solver is usable again once the session is over. *)
let test_witness_session_not_reentrant () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  List.iter
    (fun incremental ->
      with_incremental incremental (fun () ->
          Solver.reset_all_for_tests ();
          let msg = [| Term.fresh_var ~name:"rm" (Term.Bitvec 8) |] in
          let x = Term.var msg.(0) in
          let lo = Term.ult (Term.int ~width:8 3) x in
          let reentries =
            [
              ( "check_assuming",
                fun () -> Solver.check_assuming ~path:[ lo ] [ Term.tru ] );
              ( "is_sat_assuming",
                fun () ->
                  ignore (Solver.is_sat_assuming ~path:[] [ lo ]);
                  Solver.Unknown );
              ( "witnesses",
                fun () ->
                  ignore
                    (Solver.witnesses ~model_vars:msg ~limit:1 ~scatter:false
                       [ lo ] (fun _ -> Term.tru));
                  Solver.Unknown );
              ( "reset_contexts",
                fun () ->
                  Solver.reset_contexts ();
                  Solver.Unknown );
            ]
          in
          List.iter
            (fun (what, reenter) ->
              let raised = ref false in
              let outcome =
                Solver.witnesses ~model_vars:msg ~limit:2 ~scatter:true
                  ~path:[ lo ] [] (fun model ->
                    raised := raises reenter;
                    Term.neq x (Term.int ~width:8 (message_bytes msg model).(0)))
              in
              Alcotest.(check bool)
                (Printf.sprintf "incremental %b: %s from on_model raises"
                   incremental what)
                true !raised;
              Alcotest.(check bool)
                (Printf.sprintf "incremental %b: session after %s ends" incremental what)
                true (outcome = `Limit);
              (* the session let go of the solver *)
              Alcotest.(check bool)
                (Printf.sprintf "incremental %b: check after %s" incremental what)
                true
                (Solver.check_assuming ~path:[ lo ] [ Term.ult x (Term.int ~width:8 3) ]
                = Solver.Unsat))
            reentries;
          (* an exception out of [on_model] also ends the session *)
          (match
             Solver.witnesses ~model_vars:msg ~limit:1 ~scatter:false [ lo ]
               (fun _ -> ignore (Solver.check_assuming [ lo ]); Term.tru)
           with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "re-entry must raise out of the session");
          Alcotest.(check bool)
            (Printf.sprintf "incremental %b: solver usable after a raise"
               incremental)
            true
            (Solver.is_sat_assuming ~path:[ lo ] [ Term.tru ])))
    [ true; false ];
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

(* A [Sat] model from a frame context binds only the requested variables
   and satisfies every conjunct of the query that mentions no others: the
   guarantee the search relies on to settle later checks by evaluation.
   A warm-up query first leaves the context holding CNF and an assignment
   from another query, so the property also covers variables the current
   query does not reach. *)
let qcheck_frames_model_restriction =
  QCheck2.Test.make ~name:"Frames.check ~model_vars models satisfy their conjuncts"
    ~count:150
    QCheck2.Gen.(
      quad gen_atom
        (list_size (int_bound 4) gen_atom)
        (list_size (int_range 1 3) gen_atom)
        (int_bound ((1 lsl n_vars) - 1)))
    (fun (warm_atom, frame_atoms, extra_atoms, mask) ->
      with_sharing true (fun () ->
          let raw =
            Array.init n_vars (fun i ->
                Term.fresh_var ~name:(Printf.sprintf "mv%d" i) (Term.Bitvec 8))
          in
          let vars = Array.map Term.var raw in
          let model_vars =
            Array.of_list
              (List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
                 (Array.to_list raw))
          in
          let in_model id =
            Array.exists (fun (v : Term.var) -> v.Term.id = id) model_vars
          in
          let c = Solver.Frames.create () in
          ignore (Solver.Frames.check c [ build_atom vars warm_atom ]);
          let frames = List.map (build_atom vars) frame_atoms in
          List.iter (Solver.Frames.push c) frames;
          let extras = List.map (build_atom vars) extra_atoms in
          match Solver.Frames.check ~model_vars c extras with
          | Solver.Sat m ->
              List.for_all
                (fun ((v : Term.var), _) -> in_model v.Term.id)
                (Model.bindings m)
              && List.for_all
                   (fun t ->
                     (not (List.for_all in_model (Term.var_ids t)))
                     || Model.satisfies m [ t ])
                   (frames @ extras)
          | Solver.Unsat | Solver.Unknown -> true))

(* The state a frame carries is the state a check would rebuild from the
   whole stack. Random push/pop/set_path sequences over bound atoms (and
   some circuits), each check compared with a test-side recomputation:
   - the decide variables are the cones ({!Bitblast.cone_of}) of the
     frames, oldest first, then of the extras, each variable once, first
     occurrence kept;
   - the check answers Unsat without a SAT call exactly when
     [Interval.definitely_unsat] holds on the frames plus extras;
   - the core of such an answer is the flattened, deduped, sorted
     conjunction ([None] when a conjunct is literally False). *)
type bound_atom =
  | BLt of int * int
  | BEq of int * int
  | BNe of int * int
  | BTrue
  | BFalse
  | BAnd of bound_atom * bound_atom
  | BOther of atom

let rec build_bound vars = function
  | BLt (i, k) -> Term.ult vars.(i) (Term.int ~width:8 k)
  | BEq (i, k) -> Term.eq vars.(i) (Term.int ~width:8 k)
  | BNe (i, k) -> Term.neq vars.(i) (Term.int ~width:8 k)
  | BTrue -> Term.tru
  | BFalse -> Term.fls
  | BAnd (a, b) -> Term.and_ (build_bound vars a) (build_bound vars b)
  | BOther a -> build_atom vars a

let gen_bound_atom =
  let open QCheck2.Gen in
  let var = int_bound (n_vars - 1) and const = int_bound 6 in
  let base =
    frequency
      [
        (3, map2 (fun i k -> BLt (i, k)) var const);
        (3, map2 (fun i k -> BEq (i, k)) var const);
        (3, map2 (fun i k -> BNe (i, k)) var const);
        (1, pure BTrue);
        (1, pure BFalse);
        (2, map (fun a -> BOther a) gen_atom);
      ]
  in
  frequency [ (6, base); (1, map2 (fun a b -> BAnd (a, b)) base base) ]

type frame_op =
  | OPush of bound_atom
  | OPop
  | OSetPath of bound_atom list
  | OCheck of bound_atom list

let gen_frame_ops =
  let open QCheck2.Gen in
  let atoms n = list_size (int_bound n) gen_bound_atom in
  list_size (int_range 1 14)
    (frequency
       [
         (4, map (fun a -> OPush a) gen_bound_atom);
         (2, pure OPop);
         (1, map (fun l -> OSetPath l) (atoms 5));
         (4, map (fun l -> OCheck l) (atoms 2));
       ])

(* [canonicalize], recomputed: [None] on a literal False. *)
let flatten_conjuncts terms =
  let rec go acc = function
    | [] -> Some acc
    | (t : Term.t) :: rest -> (
        match t.Term.node with
        | Term.True -> go acc rest
        | Term.False -> None
        | Term.And (a, b) -> go acc (a :: b :: rest)
        | _ -> go (t :: acc) rest)
  in
  go [] terms

let check_carried_state c extras =
  let conjuncts = List.rev_append (Solver.Frames.path c) extras in
  let decide = Solver.Frames.decide_vars c extras in
  let expected =
    let seen = Hashtbl.create 64 and out = ref [] in
    List.iter
      (fun t ->
        Array.iter
          (fun v ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              out := v :: !out
            end)
          (Bitblast.cone_of (Solver.Frames.bitblast c) t))
      conjuncts;
    Array.of_list (List.rev !out)
  in
  let calls = (Solver.stats ()).Solver.sat_calls in
  let answer = Solver.Frames.check c extras in
  let no_sat_call = (Solver.stats ()).Solver.sat_calls = calls in
  let refuted = Interval.definitely_unsat conjuncts in
  let core_ok =
    (not refuted)
    ||
    match (flatten_conjuncts conjuncts, Solver.Frames.unsat_core c) with
    | None, None -> true
    | Some flat, Some core ->
        List.equal Term.equal (List.sort_uniq Term.compare flat) core
    | _ -> false
  in
  decide = expected
  && (answer = Solver.Unsat && no_sat_call) = refuted
  && core_ok

let qcheck_frames_carry_state =
  QCheck2.Test.make ~name:"frames carry what a check would recompute"
    ~count:150 gen_frame_ops (fun ops ->
      with_sharing true (fun () ->
          let vars = make_vars () in
          let c = Solver.Frames.create () in
          List.for_all
            (fun op ->
              let ok =
                match op with
                | OPush a ->
                    Solver.Frames.push c (build_bound vars a);
                    true
                | OPop ->
                    if Solver.Frames.depth c > 0 then Solver.Frames.pop c;
                    true
                | OSetPath l ->
                    let path = List.map (build_bound vars) l in
                    Solver.Frames.set_path c path;
                    List.equal Term.equal (Solver.Frames.path c) path
                | OCheck l -> check_carried_state c (List.map (build_bound vars) l)
              in
              ok
              && Solver.Frames.depth c = List.length (Solver.Frames.path c))
            ops))

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

(* On FSP, most alive checks are satisfiable and settled by
   the model the client path carries down the tree, with no query: the
   alive site issues at most 350 solver queries (794 before models were
   carried) and the prune site at most 25 (40 before). *)
let test_fsp_settles_by_models () =
  let open Achilles_core in
  let module Obs = Achilles_obs.Obs in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let spans = Hashtbl.create 8 in
  Obs.set_sink
    (Some
       (fun (ev : Obs.event) ->
         if ev.Obs.ev_kind = "span_begin" && ev.Obs.ev_name = "solver_query"
         then
           match List.assoc_opt "site" ev.Obs.ev_args with
           | Some (Obs.S site) ->
               Hashtbl.replace spans site
                 (1 + Option.value ~default:0 (Hashtbl.find_opt spans site))
           | _ -> ()));
  let analysis =
    Fun.protect
      ~finally:(fun () -> Obs.set_sink None)
      (fun () ->
        with_incremental true (fun () ->
            Achilles_targets.Registry.(analyze fsp)))
  in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.aggregate ()).Obs.counters)
  in
  let site name = Option.value ~default:0 (Hashtbl.find_opt spans name) in
  Alcotest.(check int) "alive checks counted, settled or queried" 794
    analysis.Achilles.report.Search.search_stats.Search.alive_checks;
  Alcotest.(check bool)
    (Printf.sprintf "search.alive_settled >= 400 (%d)"
       (counter "search.alive_settled"))
    true
    (counter "search.alive_settled" >= 400);
  Alcotest.(check bool)
    (Printf.sprintf "alive queries <= 350 (%d)" (site "alive"))
    true
    (site "alive" <= 350);
  Alcotest.(check bool)
    (Printf.sprintf "prune queries <= 25 (%d)" (site "prune"))
    true
    (site "prune" <= 25);
  Alcotest.(check int) "every alive check settled or queried" 794
    (counter "search.alive_settled" + site "alive")

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "incremental"
    [
      qsuite "differential"
        [ qcheck_differential_sharing_on; qcheck_differential_sharing_off ];
      qsuite "witnesses" [ qcheck_canonical_witnesses ];
      qsuite "frames"
        [
          qcheck_pop_restores_verdicts;
          qcheck_frames_model_restriction;
          qcheck_frames_carry_state;
        ];
      ( "frame-stack",
        [
          Alcotest.test_case "set_path mirrors the DFS path" `Quick
            test_set_path_mirrors_stack;
          Alcotest.test_case "unsat core localizes the conflict" `Quick
            test_unsat_core_localizes;
        ] );
      ( "session",
        [
          Alcotest.test_case "not re-entrant" `Quick
            test_witness_session_not_reentrant;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "rungs retain learnt clauses" `Quick
            test_rung_retains_learnts;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "incremental off = scratch route" `Quick
            test_incremental_toggle;
        ] );
      ( "models",
        [
          Alcotest.test_case "FSP settles alive and prune checks" `Quick
            test_fsp_settles_by_models;
        ] );
    ]
