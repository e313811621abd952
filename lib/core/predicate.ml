open Achilles_smt
open Achilles_symvm

type client_path = {
  cp_id : int;
  source : string;
  message : Term.t array;
  constraints : Term.t list;
}

type client_predicate = { layout : Layout.t; paths : client_path list }

type server_path = {
  sp_state_id : int;
  label : string;
  msg_vars : Term.var array;
  sp_constraints : Term.t list;
}

let client_path_count pc = List.length pc.paths

let bind_to_server ~server_vars path =
  if Array.length server_vars <> Array.length path.message then
    invalid_arg "Predicate.bind_to_server: message size mismatch";
  let equalities =
    Array.to_list
      (Array.mapi
         (fun i byte -> Term.eq (Term.var server_vars.(i)) byte)
         path.message)
  in
  equalities @ path.constraints

let refuter ~server_vars path =
  if Array.length server_vars <> Array.length path.message then
    invalid_arg "Predicate.refuter: message size mismatch";
  let bytes = Hashtbl.create (Array.length server_vars) in
  Array.iteri
    (fun i (v : Term.var) -> Hashtbl.replace bytes v.Term.id path.message.(i))
    server_vars;
  Elim.refuter ~facts:path.constraints (fun v -> Hashtbl.find_opt bytes v.Term.id)

let field_vars layout path name =
  let f = Layout.field layout name in
  let ids = ref [] in
  for i = f.Layout.offset to f.Layout.offset + f.Layout.size - 1 do
    ids := Term.var_ids path.message.(i) @ !ids
  done;
  List.sort_uniq compare !ids

let constraints_mentioning path ids =
  List.filter
    (fun c -> List.exists (fun id -> List.mem id ids) (Term.var_ids c))
    path.constraints

let analyzed_fields ?mask layout =
  match mask with
  | None -> Layout.fields layout
  | Some names ->
      List.filter
        (fun (f : Layout.field) -> List.mem f.Layout.field_name names)
        (Layout.fields layout)

(* A field is independent when, in every client path, no path constraint and
   no message byte couples its variables with another analyzed field's
   variables. Fields outside the analysis mask are invisible to the
   analysis (negate never touches them), so value-sharing with them — e.g.
   a masked-out checksum over every other field — does not count. *)
let independent_fields ?mask pc =
  let fields = analyzed_fields ?mask pc.layout in
  let independent_in_path path (f : Layout.field) =
    let own = field_vars pc.layout path f.Layout.field_name in
    let others =
      List.concat_map
        (fun (g : Layout.field) ->
          if g.Layout.field_name = f.Layout.field_name then []
          else field_vars pc.layout path g.Layout.field_name)
        fields
    in
    let shares_var ids =
      List.exists (fun id -> List.mem id own) ids
      && List.exists (fun id -> List.mem id others) ids
    in
    (* a variable used by both fields couples them directly *)
    (not (List.exists (fun id -> List.mem id others) own))
    && not
         (List.exists (fun c -> shares_var (Term.var_ids c)) path.constraints)
  in
  List.filter
    (fun (f : Layout.field) ->
      List.for_all (fun p -> independent_in_path p f) pc.paths)
    fields
  |> List.map (fun (f : Layout.field) -> f.Layout.field_name)

let pp_client_path layout fmt path =
  Format.fprintf fmt "@[<v>path %d (from %s):@," path.cp_id path.source;
  List.iter
    (fun (f : Layout.field) ->
      if f.Layout.size <= 8 then
        let t = Layout.field_term layout path.message f.Layout.field_name in
        Format.fprintf fmt "  %s = %a@," f.Layout.field_name Term.pp t
      else begin
        (* too wide for one bitvector term: print per byte *)
        Format.fprintf fmt "  %s =" f.Layout.field_name;
        Array.iter
          (fun b -> Format.fprintf fmt " %a" Term.pp b)
          (Layout.field_bytes layout path.message f.Layout.field_name);
        Format.fprintf fmt "@,"
      end)
    (Layout.fields layout);
  (match path.constraints with
  | [] -> Format.fprintf fmt "  (no path constraints)@,"
  | cs ->
      Format.fprintf fmt "  subject to:@,";
      List.iter (fun c -> Format.fprintf fmt "    %a@," Term.pp c) (List.rev cs));
  Format.fprintf fmt "@]"

let pp_client_predicate fmt pc =
  Format.fprintf fmt "@[<v>client predicate (%d paths over %s):@,"
    (client_path_count pc)
    (Layout.name pc.layout);
  List.iter (fun p -> pp_client_path pc.layout fmt p) pc.paths;
  Format.fprintf fmt "@]"
