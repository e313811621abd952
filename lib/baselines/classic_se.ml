open Achilles_smt
open Achilles_core
open Achilles_symvm

type result = {
  accepting : Predicate.server_path list;
  rejecting_paths : int;
  explore_time : float;
}

let explore ?(config = Interp.default_config) program =
  let t0 = Unix.gettimeofday () in
  let accepting = ref [] in
  let rejecting = ref 0 in
  let hooks =
    {
      Interp.default_hooks with
      Interp.on_terminal =
        (fun st ->
          match st.State.status with
          | State.Accepted label -> (
              match st.State.msg_vars with
              | None -> ()
              | Some msg_vars ->
                  accepting :=
                    {
                      Predicate.sp_state_id = st.State.id;
                      label;
                      msg_vars;
                      sp_constraints = List.rev st.State.path;
                    }
                    :: !accepting)
          | State.Rejected _ | State.Finished -> incr rejecting
          | State.Dropped | State.Crashed _ | State.Running -> ());
    }
  in
  ignore (Interp.run ~config ~hooks program);
  {
    accepting = List.rev !accepting;
    rejecting_paths = !rejecting;
    explore_time = Unix.gettimeofday () -. t0;
  }

type enumeration = {
  messages : (Bv.t array * float) list;
  exhausted : bool;
  enumerate_time : float;
}

let witness_of_model vars model =
  Array.map
    (fun v ->
      match Model.find model v with
      | Some (Model.Vbv bv) -> bv
      | Some (Model.Vbool _) -> assert false
      | None -> Bv.zero 8)
    vars

let enumerate ?restrict ?distinct_by ~max_per_path accepting =
  let t0 = Unix.gettimeofday () in
  let messages = ref [] in
  let exhausted = ref true in
  List.iter
    (fun (sp : Predicate.server_path) ->
      let vars = sp.Predicate.msg_vars in
      let base =
        match restrict with
        | None -> sp.Predicate.sp_constraints
        | Some f -> f vars @ sp.Predicate.sp_constraints
      in
      let block witness =
        match distinct_by with
        | Some f -> f witness vars
        | None ->
            Term.not_
              (Term.and_l
                 (Array.to_list
                    (Array.mapi
                       (fun i v -> Term.eq (Term.var vars.(i)) (Term.const v))
                       witness)))
      in
      match
        Solver.enumerate ~site:"classic_se" ~model_vars:vars
          ~limit:max_per_path base
          (fun model ->
            let witness = witness_of_model vars model in
            messages := (witness, Unix.gettimeofday () -. t0) :: !messages;
            block witness)
      with
      | `Exhausted -> ()
      | `Limit | `Unknown -> exhausted := false)
    accepting;
  {
    messages = List.rev !messages;
    exhausted = !exhausted;
    enumerate_time = Unix.gettimeofday () -. t0;
  }
