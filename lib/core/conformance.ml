open Achilles_smt
open Achilles_symvm

type lost = { client_path : int; witness : Bv.t array }

type report = {
  lost : lost list;
  accepting_paths : int;
  client_paths : int;
  incomplete_paths : int;
  wall_time : float;
}

(* Collect the server's accepting paths (vanilla exploration). *)
let accepting_paths ?(interp = Interp.default_config) server =
  let acc = ref [] in
  let hooks =
    {
      Interp.default_hooks with
      Interp.on_terminal =
        (fun st ->
          match st.State.status, st.State.msg_vars with
          | State.Accepted _, Some vars ->
              acc := (vars, List.rev st.State.path) :: !acc
          | _ -> ());
    }
  in
  ignore (Interp.run ~config:interp ~hooks server);
  List.rev !acc

let witness_of_model vars model =
  Array.map
    (fun v ->
      match Model.find model v with
      | Some (Model.Vbv bv) -> bv
      | _ -> Bv.zero 8)
    vars

let run ?interp ?(max_per_path = 1) ~client ~server () =
  let t0 = Unix.gettimeofday () in
  let accepting = accepting_paths ?interp server in
  match accepting with
  | [] ->
      {
        lost = [];
        accepting_paths = 0;
        client_paths = Predicate.client_path_count client;
        incomplete_paths = 0;
        wall_time = Unix.gettimeofday () -. t0;
      }
  | (server_vars, _) :: _ ->
      (* all accepting paths share the message variables of the single
         Receive; reject = conjunction of the negated path conjunctions *)
      let rejected_by_all =
        List.map
          (fun (_, constraints) -> Term.not_ (Term.and_l constraints))
          accepting
      in
      let lost = ref [] and incomplete = ref 0 in
      List.iter
        (fun (path : Predicate.client_path) ->
          let binding = Predicate.bind_to_server ~server_vars path in
          match
            Solver.enumerate ~site:"conformance" ~model_vars:server_vars
              ~limit:max_per_path
              (rejected_by_all @ binding) (fun model ->
                let witness = witness_of_model server_vars model in
                lost := { client_path = path.Predicate.cp_id; witness } :: !lost;
                Term.not_
                  (Term.and_l
                     (Array.to_list
                        (Array.mapi
                           (fun i b ->
                             Term.eq (Term.var server_vars.(i)) (Term.const b))
                           witness))))
          with
          | `Exhausted | `Limit -> ()
          | `Unknown ->
              (* the solver gave up: more lost messages may exist *)
              incr incomplete)
        client.Predicate.paths;
      {
        lost = List.rev !lost;
        accepting_paths = List.length accepting;
        client_paths = Predicate.client_path_count client;
        incomplete_paths = !incomplete;
        wall_time = Unix.gettimeofday () -. t0;
      }

let pp_report layout fmt r =
  Format.fprintf fmt
    "@[<v>conformance: %d lost message(s) across %d client paths (%d server \
     accepting paths, %.2fs)@,"
    (List.length r.lost) r.client_paths r.accepting_paths r.wall_time;
  if r.incomplete_paths > 0 then
    Format.fprintf fmt
      "incomplete: the solver gave up on %d client path(s); more lost \
       messages may exist@,"
      r.incomplete_paths;
  List.iter
    (fun l ->
      Format.fprintf fmt "lost message from client path %d:@,%a" l.client_path
        (Report.pp_witness layout) l.witness)
    r.lost;
  Format.fprintf fmt "@]"
