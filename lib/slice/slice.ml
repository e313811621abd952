(* Static dependency slicing over the protocol DSL: a whole-program taint
   analysis from Receive sources (which branches can read which message
   fields), value-set machinery for injective byte chains, and a branch
   feasibility oracle that answers from the variable-connected cone of the
   path instead of the whole path. Everything here is a pure decision
   optimization: on clean runs every verdict coincides with the full query
   it replaces, so report digests are identical slice on or off. *)

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

(* Is the constant in the chain's image? Walk from the low end and compare
   the bits at every constant part. *)
let in_image parts c =
  let rec walk off = function
    | [] -> true
    | p :: rest -> (
        match p with
        | Vpart _ -> walk (off + part_width p) rest
        | Cpart bv ->
            let w = Bv.width bv in
            Bv.equal bv (Bv.extract ~hi:(off + w - 1) ~lo:off c)
            && walk (off + w) rest)
  in
  walk 0 (List.rev parts)

(* --- the cone oracle ---------------------------------------------------------- *)

(* Transitive var-sharing closure of the path's conjuncts, seeded from the
   condition's variables, in original path order. Since the whole path is
   satisfiable (the oracle is only consulted on exact paths) and the
   conjuncts outside the cone share no variable with [cond] or the cone,
   SAT(path /\ cond) = SAT(cone /\ cond). *)
let cone_of path cond =
  match path with
  | [] -> []
  | _ ->
      let module IS = Set.Make (Int) in
      let conj = Array.of_list path in
      let n = Array.length conj in
      let ids = Array.map Term.var_ids conj in
      let selected = Array.make n false in
      let seen = ref (IS.of_list (Term.var_ids cond)) in
      let changed = ref true in
      while !changed do
        changed := false;
        for k = 0 to n - 1 do
          if
            (not selected.(k))
            && List.exists (fun id -> IS.mem id !seen) ids.(k)
          then begin
            selected.(k) <- true;
            changed := true;
            seen := List.fold_left (fun s id -> IS.add id s) !seen ids.(k)
          end
        done
      done;
      List.filteri (fun k _ -> selected.(k)) path

(* Unpack a condition as an atom over one base term: an (in)equality or an
   unsigned comparison against a constant. *)
type batom =
  | Aeq of Bv.t (* base = c *)
  | Aneq of Bv.t (* base <> c *)
  | Alt of Bv.t (* base < c, unsigned *)
  | Ale of Bv.t (* base <= c *)
  | Agt of Bv.t (* base > c *)
  | Age of Bv.t (* base >= c *)

let atom (cond : Term.t) =
  let eq pos (a : Term.t) (b : Term.t) =
    match (a.Term.node, b.Term.node) with
    | Term.Const c, _ -> Some (b, if pos then Aeq c else Aneq c)
    | _, Term.Const c -> Some (a, if pos then Aeq c else Aneq c)
    | _ -> None
  in
  let ult pos (a : Term.t) (b : Term.t) =
    match (a.Term.node, b.Term.node) with
    | Term.Const c, _ -> Some (b, if pos then Agt c else Ale c)
    | _, Term.Const c -> Some (a, if pos then Alt c else Age c)
    | _ -> None
  in
  let ule pos (a : Term.t) (b : Term.t) =
    match (a.Term.node, b.Term.node) with
    | Term.Const c, _ -> Some (b, if pos then Age c else Alt c)
    | _, Term.Const c -> Some (a, if pos then Ale c else Agt c)
    | _ -> None
  in
  match cond.Term.node with
  | Term.Eq (a, b) -> eq true a b
  | Term.Ult (a, b) -> ult true a b
  | Term.Ule (a, b) -> ule true a b
  | Term.Not t -> (
      match t.Term.node with
      | Term.Eq (a, b) -> eq false a b
      | Term.Ult (a, b) -> ult false a b
      | Term.Ule (a, b) -> ule false a b
      | _ -> None)
  | _ -> None

(* Contiguous image [lo, lo + 2^vw - 1] of an injective chain whose variable
   parts occupy the low bits (constant parts, if any, all sit above them).
   Bounded to 61 bits so the interval arithmetic below stays exact in
   [Int64]. *)
let contiguous_image t =
  match injective_chain t with
  | None -> None
  | Some parts ->
      let rec vars_low seen_var = function
        | [] -> true
        | Cpart _ :: _ when seen_var -> false
        | Cpart _ :: rest -> vars_low seen_var rest
        | Vpart _ :: rest -> vars_low true rest
      in
      let total = List.fold_left (fun a p -> a + part_width p) 0 parts in
      if (not (vars_low false parts)) || total > 61 then None
      else
        let vw = var_bits parts in
        (* parts are high bits first: fold builds the value with every
           variable part contributing zero, which is exactly [lo] *)
        let lo =
          List.fold_left
            (fun acc p ->
              let v = match p with Cpart c -> Bv.value c | Vpart _ -> 0L in
              Int64.add (Int64.shift_left acc (part_width p)) v)
            0L parts
        in
        Some (lo, Int64.add lo (Int64.sub (Int64.shift_left 1L vw) 1L))

(* SAT of an atom conjunction over one base with a contiguous image: clamp
   the interval with the bounds, then count what the disequalities leave. *)
let decide_interval base atoms =
  match contiguous_image base with
  | None -> None
  | Some (lo, hi) ->
      let l = ref lo and u = ref hi in
      let eqs = ref [] and neqs = ref [] in
      List.iter
        (fun a ->
          match a with
          | Aeq c -> eqs := Bv.value c :: !eqs
          | Aneq c -> neqs := Bv.value c :: !neqs
          | Alt c -> u := Int64.min !u (Int64.sub (Bv.value c) 1L)
          | Ale c -> u := Int64.min !u (Bv.value c)
          | Agt c -> l := Int64.max !l (Int64.add (Bv.value c) 1L)
          | Age c -> l := Int64.max !l (Bv.value c))
        atoms;
      let in_range v = v >= !l && v <= !u in
      Some
        (match !eqs with
        | e :: rest ->
            List.for_all (Int64.equal e) rest
            && in_range e
            && not (List.exists (Int64.equal e) !neqs)
        | [] ->
            !l <= !u
            && Int64.to_int (Int64.add (Int64.sub !u !l) 1L)
               > List.length
                   (List.sort_uniq Int64.compare (List.filter in_range !neqs)))

(* Decide SAT(cone /\ cond) statically when every conjunct involved is an
   atom over one shared base term. Exact: [Some v] must be the verdict the
   solver would return.

   - some equality [base = e] in the cone: the path is satisfiable, so the
     base is pinned to [e] and the condition is decided by comparing
     constants (this also subsumes the syntactic-subsumption check with
     field-level precision);
   - only (dis)equalities, base an injective chain: [base = c] is SAT iff
     [c] is in the image and excluded by no disequality; [base <> c] is SAT
     iff the excluded image values do not cover the whole image;
   - unsigned comparisons present, base with a contiguous image: exact
     interval arithmetic over the clamped range. *)
let decide ~cone cond =
  match atom cond with
  | None -> None
  | Some (base, catom) -> (
      let rec collect acc = function
        | [] -> Some (List.rev acc)
        | conj :: rest -> (
            match atom conj with
            | Some (base', a) when Term.equal base base' ->
                collect (a :: acc) rest
            | _ -> None)
      in
      match collect [] cone with
      | None -> None
      | Some cone_atoms -> (
          let interval =
            List.exists
              (function Alt _ | Ale _ | Agt _ | Age _ -> true | _ -> false)
              (catom :: cone_atoms)
          in
          if interval then decide_interval base (catom :: cone_atoms)
          else
            let pos, c =
              match catom with
              | Aeq c -> (true, c)
              | Aneq c -> (false, c)
              | _ -> assert false
            in
            let eqs, neqs =
              List.partition_map
                (function
                  | Aeq d -> Either.Left d
                  | Aneq d -> Either.Right d
                  | _ -> assert false)
                cone_atoms
            in
            match eqs with
            | e :: rest ->
                if List.for_all (Bv.equal e) rest then
                  Some (if pos then Bv.equal c e else not (Bv.equal c e))
                else None (* contradictory cone: leave it to the solver *)
            | [] -> (
                match injective_chain base with
                | None -> None
                | Some parts ->
                    if pos then
                      Some
                        (in_image parts c
                        && not (List.exists (Bv.equal c) neqs))
                    else
                      let vw = var_bits parts in
                      if vw >= 62 then Some true
                      else
                        let excluded =
                          List.sort_uniq Int64.compare
                            (List.filter_map
                               (fun d ->
                                 if in_image parts d then Some (Bv.value d)
                                 else None)
                               (c :: neqs))
                        in
                        Some (List.length excluded < 1 lsl vw))))

let verdict_of_result = function
  | Solver.Sat _ -> Interp.Feasible_exact
  | Solver.Unsat -> Interp.Infeasible
  | Solver.Unknown -> Interp.Feasible_unknown

let make_oracle () : Interp.oracle =
  (* per-oracle memo on the alpha-canonical cone key; one oracle per run or
     per shard *)
  let memo : (string, Interp.feasibility) Hashtbl.t = Hashtbl.create 512 in
  fun ~path cond ->
    Obs.span Obs.Slice @@ fun () ->
    let cone = cone_of path cond in
    match decide ~cone cond with
    | Some sat ->
        Obs.count "slice.branch_skipped";
        if sat then Interp.Feasible_exact else Interp.Infeasible
    | None -> (
        let key = Term.alpha_key (cond :: cone) in
        match Hashtbl.find_opt memo key with
        | Some v ->
            Obs.count "slice.memo_hits";
            v
        | None ->
            Obs.count "slice.cone_queries";
            let v =
              verdict_of_result (Solver.check ~site:"slice_cone" (cond :: cone))
            in
            (* Unknown is retryable (budgets, fault injection): don't pin it *)
            if v <> Interp.Feasible_unknown then Hashtbl.replace memo key v;
            v)
