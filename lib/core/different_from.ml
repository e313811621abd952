open Achilles_smt
open Achilles_symvm
module Obs = Achilles_obs.Obs
module Slice = Achilles_slice.Slice

type t = {
  layout : Layout.t;
  fields : string list;
  n_paths : int;
  (* matrix.(field_index).(i * n_paths + j) *)
  matrix : (string * bool array) list;
}

type stats = {
  fields_covered : string list;
  pairs_checked : int;
  pairs_static : int;
  wall_time : float;
}

(* Does path [i] have a field value outside path [j]'s set? Checked as
   SAT(x = value_i /\ constraints_i /\ negate_field_j(x)) with [x] a shared
   fresh field-sized variable. The second component reports whether a solver
   query was actually issued — [negate_field] answering [None] settles the
   pair for free. *)
let check_pair ~layout field_name (pi : Predicate.client_path)
    (pj : Predicate.client_path) =
  let f = Layout.field layout field_name in
  let x = Term.var (Term.fresh_var ~name:("df_" ^ field_name) (Term.Bitvec (8 * f.Layout.size))) in
  match Negate.negate_field ~layout ~target:x pj field_name with
  | None ->
      (false, false)
      (* j's field is unconstrained symbolic: nothing escapes it *)
  | Some negation ->
      let value_i = Layout.field_term layout pi.Predicate.message field_name in
      let constraints_i =
        Negate.related_constraints pi (Term.var_ids value_i)
      in
      (* verdict-only: rides the shared incremental context so the
         O(paths^2 x fields) matrix reuses translations across probes *)
      ( Solver.is_sat_assuming ~site:"different_from"
          (Term.eq x value_i :: negation :: constraints_i),
        true )

(* Decide a pair without the solver when both sides' field summaries are
   statically known. Mirrors [check_pair] case by case, so the verdict is
   exactly what the query would return:
   - [j] concrete [cj], [i] concrete [ci]: SAT(x = ci /\ x <> cj) = ci <> cj;
   - [j] concrete, [i] an unconstrained injective chain over >= 1 variable
     bit: the image has >= 2 values, so one escapes [cj];
   - [j] symbolic and unconstrained: [negate_field] answers [None] and the
     pair is [false] with no query either way. *)
let static_verdict ~layout field_name (pi : Predicate.client_path)
    (pj : Predicate.client_path) =
  let value_j = Layout.field_term layout pj.Predicate.message field_name in
  match Term.const_value value_j with
  | Some cj -> (
      let value_i = Layout.field_term layout pi.Predicate.message field_name in
      match Term.const_value value_i with
      | Some ci -> Some (not (Bv.equal ci cj))
      | None -> (
          match Negate.related_constraints pi (Term.var_ids value_i) with
          | _ :: _ -> None
          | [] -> (
              match Slice.injective_image_bits value_i with
              | Some vw when vw > 0 -> Some true
              | _ -> None)))
  | None -> (
      match Negate.related_constraints pj (Term.var_ids value_j) with
      | [] -> Some false
      | _ :: _ -> None)

(* Number of fresh variables [check_pair ~layout field_name _ pj] allocates:
   the probe [x], plus — when [negate_field] reaches its renaming case —
   one copy of each distinct variable in [pj]'s field value and its related
   constraints. Computed from the same inputs so a statically decided check
   can keep its fresh-counter slot without running. *)
let check_allocs ~layout field_name (pj : Predicate.client_path) =
  let value = Layout.field_term layout pj.Predicate.message field_name in
  match Term.const_value value with
  | Some _ -> 1
  | None -> (
      match Negate.related_constraints pj (Term.var_ids value) with
      | [] -> 1
      | constraints ->
          1
          + List.length
              (List.sort_uniq compare
                 (List.concat_map Term.var_ids (value :: constraints))))

(* Alpha-canonical signature of a path's field: the field value term plus
   its related constraints with variables renamed to their order of first
   occurrence. Client utilities built from the same code produce identical
   signatures with different fresh variables; pair checks are memoized on
   the signature pair, which collapses the quadratic blow-up. *)
let field_signature ~layout field_name (p : Predicate.client_path) =
  let value = Layout.field_term layout p.Predicate.message field_name in
  let constraints = Negate.related_constraints p (Term.var_ids value) in
  Term.alpha_key (value :: constraints)

let compute ?(memoize = true) ?mask ?use_slice ?server_slice
    (pc : Predicate.client_predicate) =
  Obs.span Obs.Different_from @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let use_slice =
    match use_slice with Some b -> b | None -> Slice.enabled ()
  in
  (* A field no server branch can read never gets its message variables
     into a path constraint, so [single_field_of] never attributes a kill
     to it and its matrix rows are never consulted: answer every pair
     [false] (the safe no-drop default) without solving. *)
  let field_irrelevant =
    match server_slice with
    | Some s when use_slice -> fun f -> not (Slice.field_reaches_branch s f)
    | _ -> fun _ -> false
  in
  let layout = pc.Predicate.layout in
  let fields = Predicate.independent_fields ?mask pc in
  let paths = Array.of_list pc.Predicate.paths in
  let n = Array.length paths in
  (* One pass in the (field, row-major cell) iteration order collects the
     representative pair of every distinct memo key; each representative
     becomes one solver check. [check_allocs] predicts how many fresh
     variables each check consumes, so check [k] runs with its fresh
     counter pinned to [base] plus the allocations of checks [0..k-1]. *)
  let checks = ref [] (* representatives, newest first *) in
  let n_checks = ref 0 in
  let plan =
    List.map
      (fun field_name ->
        let signature =
          Array.map (fun p -> field_signature ~layout field_name p) paths
        in
        let memo : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
        (* cell -> index of the check deciding it; -1 on the diagonal *)
        let cell_check = Array.make (n * n) (-1) in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then begin
              let key = (signature.(i), signature.(j)) in
              let check =
                match if memoize then Hashtbl.find_opt memo key else None with
                | Some k -> k
                | None ->
                    let k = !n_checks in
                    n_checks := k + 1;
                    checks := (field_name, i, j) :: !checks;
                    if memoize then Hashtbl.replace memo key k;
                    k
              in
              cell_check.((i * n) + j) <- check
            end
          done
        done;
        (field_name, cell_check))
      fields
  in
  let checks = Array.of_list (List.rev !checks) in
  let base = Term.fresh_counter_value () in
  (* Every check — run or statically skipped — keeps its fresh-counter
     slot: check [k] replays from [base + offsets.(k)] and the counter ends
     at [base + offsets.(total)] regardless of which checks actually ran,
     so every later fresh variable (and hence the report digest) is
     independent of slicing. Pinning is the identity when nothing is
     skipped: [check_allocs] is exact. *)
  let offsets = Array.make (Array.length checks + 1) 0 in
  Array.iteri
    (fun k (field_name, _i, j) ->
      offsets.(k + 1) <-
        offsets.(k) + check_allocs ~layout field_name paths.(j))
    checks;
  let run_check k =
    let field_name, i, j = checks.(k) in
    Term.set_fresh_counter (base + offsets.(k));
    if field_irrelevant field_name then (false, `Static)
    else
      match
        if use_slice then
          static_verdict ~layout field_name paths.(i) paths.(j)
        else None
      with
      | Some v -> (v, `Static)
      | None -> (
          match check_pair ~layout field_name paths.(i) paths.(j) with
          | r, true -> (r, `Query)
          | r, false -> (r, `Free))
  in
  let outcomes = Array.init (Array.length checks) run_check in
  Term.set_fresh_counter (base + offsets.(Array.length checks));
  let matrix =
    List.map
      (fun (field_name, cell_check) ->
        ( field_name,
          Array.map (fun k -> k >= 0 && fst outcomes.(k)) cell_check ))
      plan
  in
  let count kind =
    Array.fold_left
      (fun acc (_, k) -> if k = kind then acc + 1 else acc)
      0 outcomes
  in
  let pairs_checked = count `Query in
  let pairs_static = count `Static in
  Obs.count ~n:pairs_checked "different_from.pair_checks";
  if pairs_static > 0 then Obs.count ~n:pairs_static "slice.pairs_static";
  let t = { layout; fields; n_paths = n; matrix } in
  let stats =
    {
      fields_covered = fields;
      pairs_checked;
      pairs_static;
      wall_time = Unix.gettimeofday () -. t0;
    }
  in
  (t, stats)

let covers_field t name = List.mem name t.fields

let different t ~i ~j ~field =
  match List.assoc_opt field t.matrix with
  | None -> false
  | Some cells ->
      if i < 0 || j < 0 || i >= t.n_paths || j >= t.n_paths then
        invalid_arg "Different_from.different: path index out of range"
      else i <> j && cells.((i * t.n_paths) + j)

let layout t = t.layout
