open Achilles_smt
open Achilles_symvm
module Obs = Achilles_obs.Obs

let related_constraints (path : Predicate.client_path) seed_ids =
  let rec closure ids =
    let selected =
      List.filter
        (fun c -> List.exists (fun id -> List.mem id ids) (Term.var_ids c))
        path.Predicate.constraints
    in
    let ids' =
      List.sort_uniq compare (ids @ List.concat_map Term.var_ids selected)
    in
    if List.length ids' = List.length ids then selected else closure ids'
  in
  closure (List.sort_uniq compare seed_ids)

(* Rename every variable of [terms] to a fresh copy; returns the renaming
   substitution applied to each term. *)
let rename_fresh terms =
  let table : (int, Term.t) Hashtbl.t = Hashtbl.create 16 in
  let freshen (v : Term.var) =
    match Hashtbl.find_opt table v.Term.id with
    | Some t -> Some t
    | None ->
        let t = Term.var (Term.fresh_var ~name:(v.Term.name ^ "'") v.Term.sort) in
        Hashtbl.replace table v.Term.id t;
        Some t
  in
  List.map (Term.subst freshen) terms

let negate_field ~layout ~target (path : Predicate.client_path) field_name =
  let value = Layout.field_term layout path.Predicate.message field_name in
  match Term.const_value value with
  | Some c ->
      (* case 1: concrete value; the negation is target <> C *)
      Some (Term.neq target (Term.const c))
  | None -> (
      let ids = Term.var_ids value in
      match related_constraints path ids with
      | [] -> None (* case 2 with no constraints: abandon the field *)
      | constraints -> (
          match rename_fresh (value :: constraints) with
          | value' :: constraints' ->
              let negated = Term.or_l (List.map Term.not_ constraints') in
              Some (Term.and_ (Term.eq target value') negated)
          | [] -> assert false))

let negate_path ?(check_overlap = true) ?mask ~layout ~server_vars
    (path : Predicate.client_path) =
  Obs.span Obs.Negate @@ fun () ->
  Obs.count "negate.paths_negated";
  let server_bytes = Array.map Term.var server_vars in
  let binding = lazy (Predicate.bind_to_server ~server_vars path) in
  let fields = Predicate.analyzed_fields ?mask layout in
  let disjuncts =
    List.filter_map
      (fun (f : Layout.field) ->
        let target = Layout.field_term layout server_bytes f.Layout.field_name in
        match negate_field ~layout ~target path f.Layout.field_name with
        | None -> None
        | Some disjunct ->
            if
              check_overlap
              (* verdict-only, so the overlap probe shares the
                 incremental context (and its bitblasted binding) across
                 all fields and paths; scratch when incrementality is off *)
              && Solver.is_sat_assuming ~site:"negate"
                   (disjunct :: Lazy.force binding)
            then None (* a message satisfies both: discard to avoid FPs *)
            else Some disjunct)
      fields
  in
  Term.or_l disjuncts
