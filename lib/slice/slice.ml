(* Static dependency slicing over the protocol DSL: a whole-program taint
   analysis from Receive sources (which branches can read which message
   fields) and value-set machinery for injective byte chains, both used by
   differentFrom to skip pair checks. Everything here is a pure decision
   optimization: on clean runs every verdict coincides with the solver
   query it replaces, so report digests are identical slice on or off. *)

open Achilles_smt
open Achilles_symvm
module Obs = Achilles_obs.Obs

(* --- escape hatch ---------------------------------------------------------- *)

let slice_flag =
  ref
    (match Sys.getenv_opt "ACHILLES_SLICE" with
    | Some s -> (
        match String.lowercase_ascii (String.trim s) with
        | "0" | "false" | "off" | "no" -> false
        | _ -> true)
    | None -> true)

let enabled () = !slice_flag
let set_enabled b = slice_flag := b

(* --- taint lattice ---------------------------------------------------------- *)

module SS = Set.Make (String)

(* Internal lattice: Clean < Fields s < Any, with Fields join = union. No
   strong updates anywhere — the analysis only ever joins, which is what
   makes "Clean" a proof. *)
type itaint = IClean | IFields of SS.t | IAny

let ijoin a b =
  match (a, b) with
  | IClean, x | x, IClean -> x
  | IAny, _ | _, IAny -> IAny
  | IFields x, IFields y -> IFields (SS.union x y)

let iequal a b =
  match (a, b) with
  | IClean, IClean | IAny, IAny -> true
  | IFields x, IFields y -> SS.equal x y
  | _ -> false

let imentions t f =
  match t with IAny -> true | IFields s -> SS.mem f s | IClean -> false

type taint = Clean | Fields of string list | Any

let tainted = function Clean -> false | Fields _ | Any -> true

let mentions t f =
  match t with Any -> true | Fields l -> List.mem f l | Clean -> false

type branch_info = { branch_id : string; branch_taint : taint }

type field_dep = {
  dep_field : string;
  dep_branches : int;
  dep_updates : int;
  dep_sends : int;
}

type summary = {
  program_name : string;
  branches : branch_info list;
  field_deps : field_dep list;
  any_tainted_branch : bool;
}

(* --- the taint analysis ------------------------------------------------------ *)

let analyze ~layout (program : Ast.program) =
  Obs.span Obs.Slice @@ fun () ->
  let global_set = SS.of_list (List.map fst program.Ast.globals) in
  (* One flow-insensitive store for every scalar name (globals, locals and
     parameters share the namespace — collisions only over-approximate). *)
  let vars : (string, itaint) Hashtbl.t = Hashtbl.create 32 in
  let bufs : (string, itaint array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, len) -> Hashtbl.replace bufs name (Array.make len IClean))
    program.Ast.buffers;
  let returns : (string, itaint) Hashtbl.t = Hashtbl.create 8 in
  let changed = ref true in
  let get_var name =
    Option.value ~default:IClean (Hashtbl.find_opt vars name)
  in
  let set_var name t =
    let cur = get_var name in
    let j = ijoin cur t in
    if not (iequal cur j) then begin
      Hashtbl.replace vars name j;
      changed := true
    end
  in
  let get_buf name =
    Option.value ~default:[||] (Hashtbl.find_opt bufs name)
  in
  let buf_all name = Array.fold_left ijoin IClean (get_buf name) in
  let set_byte name i t =
    let a = get_buf name in
    if i >= 0 && i < Array.length a then begin
      let j = ijoin a.(i) t in
      if not (iequal a.(i) j) then begin
        a.(i) <- j;
        changed := true
      end
    end
  in
  let set_all name t =
    Array.iteri (fun i _ -> set_byte name i t) (get_buf name)
  in
  let const_off = function Ast.Num { value; _ } -> Some value | _ -> None in
  let rec texpr (e : Ast.expr) =
    match e with
    | Ast.Num _ | Ast.Len _ -> IClean
    | Ast.Var x -> get_var x
    | Ast.Load (buf, off) -> (
        (* a symbolic index muxes over every cell and embeds the index
           itself in the result term, so both taints ride along *)
        match const_off off with
        | Some k ->
            let a = get_buf buf in
            if k >= 0 && k < Array.length a then a.(k) else IClean
        | None -> ijoin (buf_all buf) (texpr off))
    | Ast.Unop (_, a) | Ast.Cast (_, a) -> texpr a
    | Ast.Binop (_, a, b) -> ijoin (texpr a) (texpr b)
  in
  (* Every Receive is a potential delivery of the analyzed message: byte [i]
     of the target buffer is tainted with the layout field covering offset
     [i], or Any for bytes no field declares. *)
  let receive_taint i =
    if i < Layout.total_size layout then
      match Layout.field_covering layout i with
      | Some f -> IFields (SS.singleton f.Layout.field_name)
      | None -> IAny
    else IAny
  in
  let rec sweep_stmt ~owner (stmt : Ast.stmt) =
    (match stmt with
    | Ast.Assign (x, e) -> set_var x (texpr e)
    | Ast.Store (buf, off, v) -> (
        match const_off off with
        | Some k -> set_byte buf k (texpr v)
        | None ->
            (* ite-encoded write: offset taint reaches every byte *)
            set_all buf (ijoin (texpr v) (texpr off)))
    | Ast.Receive buf ->
        Array.iteri
          (fun i _ -> set_byte buf i (receive_taint i))
          (get_buf buf)
    | Ast.Call { proc; args; result } -> (
        match Ast.find_proc program proc with
        | None -> ()
        | Some p ->
            (try
               List.iter2
                 (fun (param, _) arg -> set_var param (texpr arg))
                 p.Ast.params args
             with Invalid_argument _ -> ());
            (match result with
            | Some x ->
                set_var x
                  (Option.value ~default:IClean (Hashtbl.find_opt returns proc))
            | None -> ()))
    | Ast.Return (Some e) ->
        let cur =
          Option.value ~default:IClean (Hashtbl.find_opt returns owner)
        in
        let j = ijoin cur (texpr e) in
        if not (iequal cur j) then begin
          Hashtbl.replace returns owner j;
          changed := true
        end
    | Ast.Return None | Ast.If _ | Ast.Switch _ | Ast.While _ | Ast.Send _
    | Ast.Read_input _ | Ast.Make_symbolic _ | Ast.Make_buffer_symbolic _
    | Ast.Assume _ | Ast.Drop_path | Ast.Mark_accept _ | Ast.Mark_reject _
    | Ast.Halt | Ast.Abort _ ->
        ());
    List.iter
      (fun b -> List.iter (sweep_stmt ~owner) b)
      (Ast.stmt_blocks stmt)
  in
  while !changed do
    changed := false;
    List.iter
      (fun (owner, block) -> List.iter (sweep_stmt ~owner) block)
      (Ast.top_blocks program)
  done;
  (* Census over the fixpoint: branch/assume conditions with stable
     descriptors, plus the update and send taints the field table counts. *)
  let counters : (string * string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let next owner kind =
    let key = (owner, kind) in
    let r =
      match Hashtbl.find_opt counters key with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add counters key r;
          r
    in
    let n = !r in
    incr r;
    Printf.sprintf "%s:%s#%d" owner kind n
  in
  let branches_rev = ref [] in
  let updates = ref [] in
  let sends = ref [] in
  let rec census_stmt owner (stmt : Ast.stmt) =
    (match stmt with
    | Ast.If (c, _, _) -> branches_rev := (next owner "if", texpr c) :: !branches_rev
    | Ast.Switch (e, _, _) ->
        branches_rev := (next owner "switch", texpr e) :: !branches_rev
    | Ast.While (c, _) ->
        branches_rev := (next owner "while", texpr c) :: !branches_rev
    | Ast.Assume e ->
        (* an Assume appends a path constraint just like a one-sided
           branch, so its reads count toward field->branch reachability *)
        branches_rev := (next owner "assume", texpr e) :: !branches_rev
    | Ast.Assign (x, e) when SS.mem x global_set -> updates := texpr e :: !updates
    | Ast.Store (_, off, v) ->
        let t =
          match const_off off with
          | Some _ -> texpr v
          | None -> ijoin (texpr v) (texpr off)
        in
        updates := t :: !updates
    | Ast.Send { dst; buf } ->
        sends := ijoin (texpr dst) (buf_all buf) :: !sends
    | _ -> ());
    List.iter
      (fun b -> List.iter (census_stmt owner) b)
      (Ast.stmt_blocks stmt)
  in
  List.iter
    (fun (owner, block) -> List.iter (census_stmt owner) block)
    (Ast.top_blocks program);
  let census = List.rev !branches_rev in
  let to_public = function
    | IClean -> Clean
    | IAny -> Any
    | IFields s -> Fields (SS.elements s)
  in
  let count_mentions taints f =
    List.length (List.filter (fun t -> imentions t f) taints)
  in
  let branch_taints = List.map snd census in
  let field_deps =
    List.map
      (fun (fl : Layout.field) ->
        let f = fl.Layout.field_name in
        {
          dep_field = f;
          dep_branches = count_mentions branch_taints f;
          dep_updates = count_mentions !updates f;
          dep_sends = count_mentions !sends f;
        })
      (Layout.fields layout)
  in
  {
    program_name = program.Ast.prog_name;
    branches =
      List.map
        (fun (id, t) -> { branch_id = id; branch_taint = to_public t })
        census;
    field_deps;
    any_tainted_branch = List.exists (fun t -> t = IAny) branch_taints;
  }

let field_reaches_branch s f =
  s.any_tainted_branch
  ||
  match List.find_opt (fun d -> d.dep_field = f) s.field_deps with
  | Some d -> d.dep_branches > 0
  | None -> true (* unknown field: no proof, stay conservative *)

let taint_string = function
  | Clean -> "clean"
  | Any -> "any"
  | Fields l -> "{" ^ String.concat "," l ^ "}"

let pp_summary fmt s =
  let tainted_branches =
    List.length (List.filter (fun b -> tainted b.branch_taint) s.branches)
  in
  Format.fprintf fmt "@[<v>slice %s: %d/%d branch sites message-tainted%s@,"
    s.program_name tainted_branches
    (List.length s.branches)
    (if s.any_tainted_branch then " (unattributed taint present)" else "");
  List.iter
    (fun b ->
      Format.fprintf fmt "  %-24s %s@," b.branch_id (taint_string b.branch_taint))
    s.branches;
  List.iter
    (fun d ->
      Format.fprintf fmt "  field %-16s branches %d, updates %d, sends %d@,"
        d.dep_field d.dep_branches d.dep_updates d.dep_sends)
    s.field_deps;
  Format.fprintf fmt "@]"

(* --- value-set machinery ------------------------------------------------------ *)

exception Not_chain

type part = Cpart of Bv.t | Vpart of Term.var

(* Flatten a concat tree into parts, high bits first. *)
let flatten t =
  let rec go (t : Term.t) acc =
    match t.Term.node with
    | Term.Concat (hi, lo) -> go hi (go lo acc)
    | Term.Const c -> Cpart c :: acc
    | Term.Var v -> Vpart v :: acc
    | _ -> raise Not_chain
  in
  try Some (go t []) with Not_chain -> None

let part_width = function
  | Cpart c -> Bv.width c
  | Vpart (v : Term.var) -> (
      match v.Term.sort with Term.Bitvec w -> w | Term.Bool -> 1)

(* An injective chain: concatenation of constants and pairwise-distinct
   variables. The term is then an injective function of its variables, and
   its image has exactly 2^(total variable width) values. *)
let injective_chain t =
  match flatten t with
  | None -> None
  | Some parts ->
      let ids =
        List.filter_map
          (function Vpart v -> Some v.Term.id | Cpart _ -> None)
          parts
      in
      if List.length (List.sort_uniq compare ids) = List.length ids then
        Some parts
      else None

let var_bits parts =
  List.fold_left
    (fun acc p -> match p with Vpart _ -> acc + part_width p | Cpart _ -> acc)
    0 parts

let injective_image_bits t =
  Option.map var_bits (injective_chain t)

(* --- benchmark shim ------------------------------------------------------------ *)

(* Does nothing; see slice.mli. *)
let make_oracle () = ()
