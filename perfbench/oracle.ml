(* The benchmark's correctness checks. They share no code with the symbolic
   stack: the analyze workloads' witnesses are judged by the plain-OCaml FSP
   acceptance logic (Fsp_model.classify) or by concrete replay through the
   server program, and the serve workloads' verdicts by Fsp_model.classify. *)

open Achilles_smt
open Achilles_symvm
open Achilles_targets
module Filter = Achilles_filter.Filter

let to_bv msg = Array.map (fun b -> Bv.of_int ~width:8 b) msg

(* --- witnesses of an analysis -------------------------------------------------- *)

type witness = { confirmed : bool; bytes : int array }

(* One run's tally. Every witness is an operation; each expected Trojan
   class no accepted witness covers adds one more, failed. *)
type tally = { attempted : int; failed : int; problems : string list }

let tally ~expected ~classify witnesses =
  let covered = Hashtbl.create 97 in
  let bad, problems =
    List.fold_left
      (fun (bad, problems) w ->
        if not w.confirmed then (bad + 1, "unconfirmed witness" :: problems)
        else
          match classify w.bytes with
          | Ok key ->
              Hashtbl.replace covered key ();
              (bad, problems)
          | Error why -> (bad + 1, why :: problems))
      (0, []) witnesses
  in
  let missing = List.filter (fun k -> not (Hashtbl.mem covered k)) expected in
  let n_missing = List.length missing in
  {
    attempted = List.length witnesses + n_missing;
    failed = bad + n_missing;
    problems =
      List.rev problems
      @ List.map (fun _ -> "expected Trojan class not found") missing;
  }

(* analyze-fsp: every witness is a Trojan by the §6.2 ground truth, and the
   witnesses cover all 80 (command, reported length, true length) classes. *)
let fsp_class msg =
  match Fsp_model.classify (to_bv msg) with
  | Fsp_model.Trojan cls -> Ok cls
  | Fsp_model.Valid _ -> Error "witness is a valid client message"
  | Fsp_model.Rejected -> Error "witness is rejected by the server"

let check_fsp witnesses =
  tally ~expected:Fsp_model.all_trojan_classes ~classify:fsp_class witnesses

(* Field value, big-endian, out of raw message bytes. *)
let field msg name =
  let f = Layout.field Fsp_model.layout name in
  let v = ref 0 in
  for i = 0 to f.Layout.size - 1 do
    v := (!v lsl 8) lor msg.(f.Layout.offset + i)
  done;
  !v

(* §6.2's mismatched-length rule: a NUL inside the reported path length. *)
let nul_before_len msg =
  let len = min (field msg "bb_len") Fsp_model.buf_size in
  let rec go i = i < len && (msg.(Fsp_model.buf_offset + i) = 0 || go (i + 1)) in
  go 0

(* analyze-fsp-wide: the synthetic command codes are outside
   Fsp_model.classify's table, so each witness is replayed through the
   concrete interpreter on the same server and must be accepted with a NUL
   before bb_len; every command must have a witness. *)
let check_wide commands witnesses =
  let server = Fsp_model.server_for commands in
  let classify msg =
    match (Concrete.run ~incoming:[ to_bv msg ] server).Concrete.status with
    | State.Accepted label ->
        if nul_before_len msg then Ok label
        else Error "accepted witness has no NUL before bb_len"
    | _ -> Error "witness is rejected by the concrete server"
  in
  tally
    ~expected:(List.map (fun c -> c.Fsp_model.cmd_name) commands)
    ~classify witnesses

(* --- verdicts of the serving daemon ---------------------------------------------- *)

(* What the daemon must answer: accept, or a Trojan suspect whose state's
   accept label is the message's command. *)
type expect = Pass | Flag of string

let expect msg =
  match Fsp_model.classify (to_bv msg) with
  | Fsp_model.Trojan cls -> (
      match Fsp_model.command_of_code cls.Fsp_model.class_cmd with
      | Some c -> Flag c.Fsp_model.cmd_name
      | None -> Flag "")
  | Fsp_model.Valid _ | Fsp_model.Rejected -> Pass

let reply_size = 5

let be32 b off =
  let g i = Char.code (Bytes.get b (off + i)) in
  (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3

(* Does the 5-byte reply at [off] match the expectation? *)
let reply_ok filter expected reply off =
  match (Bytes.get reply off, expected) with
  | 'A', Pass -> true
  | 'T', Flag name -> Filter.state_label filter (be32 reply (off + 1)) = Some name
  | _ -> false

(* --- the serve workloads' traffic ---------------------------------------------- *)

type kind = Witness | Mutant | Noise

(* E17's mix, drawn from [seed]: a third exact witnesses, a third witnesses
   with 1-3 distinct bytes changed, a third uniform noise. *)
let mix ~seed ~witnesses ~size n =
  if Array.length witnesses = 0 then invalid_arg "Oracle.mix: no witnesses";
  let rng = Random.State.make [| seed |] in
  let pick () =
    Array.copy witnesses.(Random.State.int rng (Array.length witnesses))
  in
  Array.init n (fun _ ->
      match Random.State.int rng 3 with
      | 0 -> (Witness, pick ())
      | 1 ->
          let m = pick () in
          let changes = 1 + Random.State.int rng 3 in
          let changed = Array.make size false in
          let k = ref 0 in
          while !k < changes do
            let i = Random.State.int rng size in
            if not changed.(i) then begin
              changed.(i) <- true;
              m.(i) <- (m.(i) + 1 + Random.State.int rng 255) land 0xff;
              incr k
            end
          done;
          (Mutant, m)
      | _ -> (Noise, Array.init size (fun _ -> Random.State.int rng 256)))

(* The wire frame: 4-byte big-endian length, then the message. *)
let frame msg =
  let n = Array.length msg in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Array.iteri (fun i v -> Bytes.set b (4 + i) (Char.chr v)) msg;
  b
