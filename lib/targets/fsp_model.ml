(* Model of the File Service Protocol (FSP) as analyzed in §6.1-§6.3.

   The message format follows the paper: cmd(1) sum(1) bb_key(2) bb_seq(2)
   bb_len(2) bb_pos(4) buf(5). As in the evaluation setup, the sum, bb_key,
   bb_seq and bb_pos checks are approximated with annotations: the clients
   write a predefined constant and the server checks that constant, and the
   analysis masks those fields. File paths are bounded to fewer than 5
   characters (buf holds up to 4 path bytes plus the NUL terminator), which
   lets symbolic execution run to completion exactly as in §6.2.

   Client behaviour: each of the 8 client utilities reads one path argument,
   computes its length (the first NUL), validates every character as
   printable ASCII (33..126), writes bb_len = length and copies the argument
   buffer into the message verbatim — so the bytes after the terminator are
   whatever the (symbolic) argument buffer held, like the uninitialized
   trailing bytes a real client leaks.

   Server behaviour: validates the approximated header fields, requires
   1 <= bb_len <= 4, requires every buf byte to be NUL-or-printable (a
   single branch per byte, like the C server's validation loop), requires a
   NUL terminator at position bb_len, and dispatches on cmd. Crucially it
   never checks that the first NUL is *at* bb_len — the mismatched-length
   bug of §6.3: messages with an early NUL (true length < bb_len) are
   accepted yet no client generates them. Those are the 80 ground-truth
   Trojan message types of §6.2: 8 commands x (1+2+3+4) (reported length,
   true length) combinations. *)

open Achilles_symvm

let max_path = 4 (* paths are bounded to length < 5, as in the paper *)
let buf_size = max_path + 1
let message_size = 12 + buf_size

(* The magic constants standing in for the checksum/key/sequence/position
   machinery bypassed with annotations (§6.1). *)
let sum_const = 0x5A
let key_const = 0x1234
let seq_const = 0x0001
let pos_const = 0

let printable_min = 33
let printable_max = 126
let wildcard = Char.code '*'

type command = {
  cmd_name : string;
  code : int;
  globs_argument : bool;
      (* does the client expand wildcards in this argument before sending? *)
}

(* Eight client utilities with a single file-path argument (§6.2). *)
let commands =
  [
    { cmd_name = "get"; code = 0x10; globs_argument = true };
    { cmd_name = "put"; code = 0x11; globs_argument = true };
    { cmd_name = "del"; code = 0x12; globs_argument = true };
    { cmd_name = "cat"; code = 0x13; globs_argument = true };
    { cmd_name = "stat"; code = 0x14; globs_argument = true };
    { cmd_name = "grab"; code = 0x15; globs_argument = true };
    { cmd_name = "mkdir"; code = 0x16; globs_argument = true };
    { cmd_name = "rmdir"; code = 0x17; globs_argument = true };
  ]

let command_of_code code = List.find_opt (fun c -> c.code = code) commands

(* A scaled-up command set for stress experiments (§6.4 ablation at a size
   where differencing costs dominate): the 8 real utilities plus synthetic
   single-path-argument ones. *)
let extended_commands n =
  List.init n (fun i ->
      match List.nth_opt commands i with
      | Some c -> c
      | None ->
          {
            cmd_name = Printf.sprintf "cmd%02x" (0x10 + i);
            code = 0x10 + i;
            globs_argument = true;
          })

let layout =
  Layout.make ~name:"fsp"
    [
      ("cmd", 1);
      ("sum", 1);
      ("bb_key", 2);
      ("bb_seq", 2);
      ("bb_len", 2);
      ("bb_pos", 4);
      ("buf", buf_size);
    ]

let analysis_mask = [ "cmd"; "bb_len"; "buf" ]

let buf_offset = (Layout.field layout "buf").Layout.offset

(* --- client ------------------------------------------------------------- *)

(* A client utility: read the path argument into [arg], validate it, build
   the command message. [model_globbing] decides whether the utility also
   refuses to transmit '*' (because a real client expands wildcards before
   sending, no message with a literal '*' in a globbed argument can ever
   leave a correct client). *)
let client ?(model_globbing = false) command =
  let open Builder in
  let set_field name value = Layout.store_field layout name ~buf:"msg" ~value in
  let validate_char e =
    let printable = e >=: i8 printable_min &&: (e <=: i8 printable_max) in
    if model_globbing && command.globs_argument then
      printable &&: (e <>: i8 wildcard)
    else printable
  in
  let parse_and_validate =
    [
      (* the command-line argument, as unconstrained symbolic bytes *)
      make_buffer_symbolic "arg";
      (* find the path length = offset of the first NUL; reject non-printable
         characters on the way, and paths that fill the whole buffer *)
      set "plen" (i32 buf_size);
      set "i" (i32 0);
      while_
        (v "i" <: i32 buf_size)
        [
          if_
            (v "plen" =: i32 buf_size)
            [
              if_
                (load "arg" (v "i") =: i8 0)
                [ set "plen" (v "i") ]
                [
                  when_
                    (not_ (validate_char (load "arg" (v "i"))))
                    [ halt (* invalid character: exit(1) *) ];
                ];
            ]
            [];
          set "i" (v "i" +: i32 1);
        ];
      when_ (v "plen" =: i32 buf_size) [ halt (* path too long: exit(1) *) ];
      when_ (v "plen" =: i32 0) [ halt (* empty path: nothing to do *) ];
      (* copy the argument buffer verbatim into the message payload
         (terminator and trailing garbage included) *)
      set "j" (i32 0);
      while_
        (v "j" <: i32 buf_size)
        [
          store "msg" (i32 buf_offset +: v "j") (load "arg" (v "j"));
          set "j" (v "j" +: i32 1);
        ];
    ]
  in
  prog
    (Printf.sprintf "fsp-%s%s" command.cmd_name
       (if model_globbing then "-glob" else ""))
    ~buffers:[ ("arg", buf_size); ("msg", message_size) ]
    (List.concat
       [
         parse_and_validate;
         set_field "cmd" (i8 command.code);
         set_field "sum" (i8 sum_const);
         set_field "bb_key" (i16 key_const);
         set_field "bb_seq" (i16 seq_const);
         set_field "bb_len" (cast 16 (v "plen"));
         set_field "bb_pos" (i32 pos_const);
         [ send (i8 0) "msg"; halt ];
       ])

let clients ?model_globbing ?(command_set = commands) () =
  List.map (fun c -> client ?model_globbing c) command_set

(* --- server ---------------------------------------------------------------- *)

let server_for command_set =
  let open Builder in
  let field name = Layout.field_expr layout name ~buf:"msg" in
  let buf_byte e = load "msg" (i32 buf_offset +: e) in
  prog "fsp-server"
    ~buffers:[ ("msg", message_size); ("reply", 2) ]
    [
      receive "msg";
      (* approximated checksum/key/sequence/position validation (§6.1) *)
      when_ (field "sum" <>: i8 sum_const) [ mark_reject "bad-sum" ];
      when_ (field "bb_key" <>: i16 key_const) [ mark_reject "bad-key" ];
      when_ (field "bb_seq" <>: i16 seq_const) [ mark_reject "bad-seq" ];
      when_ (field "bb_pos" <>: i32 pos_const) [ mark_reject "bad-pos" ];
      set "len" (field "bb_len");
      when_ (v "len" <: i16 1) [ mark_reject "len-zero" ];
      when_ (v "len" >: i16 max_path) [ mark_reject "len-too-big" ];
      (* every payload byte must be NUL or printable — one branch per byte,
         so valid messages and early-NUL Trojans share the same path *)
      set "k" (i32 0);
      while_
        (v "k" <: i32 buf_size)
        [
          set "c" (buf_byte (v "k"));
          when_
            (not_
               (v "c" =: i8 0
               ||: (v "c" >=: i8 printable_min &&: (v "c" <=: i8 printable_max))
               ))
            [ mark_reject "bad-char" ];
          set "k" (v "k" +: i32 1);
        ];
      (* terminator must sit at the reported length; nothing checks that the
         first NUL is not EARLIER — the mismatched-length bug (§6.3) *)
      when_ (buf_byte (cast 32 (v "len")) <>: i8 0) [ mark_reject "no-term" ];
      switch (field "cmd")
        (List.map
           (fun c ->
             ( c.code,
               [
                 store "reply" (i8 0) (i8 c.code);
                 send (i8 1) "reply";
                 mark_accept c.cmd_name;
               ] ))
           command_set)
        ~default:[ mark_reject "bad-cmd" ];
    ]

let server = server_for commands

(* --- ground truth (§6.2) ----------------------------------------------------- *)

open Achilles_smt

type trojan_class = { class_cmd : int; reported_len : int; true_len : int }

(* The 80 Trojan message types: 8 commands x (reported length 1..max_path)
   x (true length 0..reported-1), 8·L(L+1)/2 at path bound L. *)
let all_trojan_classes =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun reported_len ->
          List.init reported_len (fun true_len ->
              { class_cmd = c.code; reported_len; true_len }))
        (List.init max_path succ))
    commands

let is_printable b =
  let x = Bv.to_int b in
  x >= printable_min && x <= printable_max

let is_nul b = Bv.equal b (Bv.zero 8)

(* Re-implementation of the server's acceptance logic in plain OCaml,
   used as the experiments' oracle. *)
type verdict = Rejected | Valid of trojan_class | Trojan of trojan_class

let classify bytes =
  let fv name = Layout.field_value layout bytes name in
  let cmd = Bv.to_int (fv "cmd") in
  let len = Bv.to_int (fv "bb_len") in
  let ok_headers =
    Bv.to_int (fv "sum") = sum_const
    && Bv.to_int (fv "bb_key") = key_const
    && Bv.to_int (fv "bb_seq") = seq_const
    && Bv.to_int (fv "bb_pos") = pos_const
  in
  let buf = Layout.field_bytes layout bytes "buf" in
  let bytes_ok = Array.for_all (fun b -> is_nul b || is_printable b) buf in
  if
    (not ok_headers) || len < 1 || len > max_path || (not bytes_ok)
    || (not (is_nul buf.(len)))
    || command_of_code cmd = None
  then Rejected
  else begin
    let rec first_nul i = if i >= len then len else if is_nul buf.(i) then i else first_nul (i + 1) in
    let true_len = first_nul 0 in
    let cls = { class_cmd = cmd; reported_len = len; true_len } in
    if true_len < len then Trojan cls else Valid cls
  end

(* With wildcard-aware clients, any accepted message containing '*' in the
   effective path is also a Trojan (§6.3, the wildcard bug). *)
let contains_wildcard bytes =
  let buf = Layout.field_bytes layout bytes "buf" in
  let len = Bv.to_int (Layout.field_value layout bytes "bb_len") in
  let rec go i =
    if i >= min len (Array.length buf) then false
    else if is_nul buf.(i) then false
    else Bv.to_int buf.(i) = wildcard || go (i + 1)
  in
  go 0

let classify_with_globbing bytes =
  match classify bytes with
  | Valid cls when contains_wildcard bytes -> Trojan cls
  | verdict -> verdict

(* Blocking-constraint generator for witness enumeration: block the whole
   (cmd, reported length, true length) class of the witness so the next
   solver call must produce a different class. *)
let block_class witness vars =
  let server_bytes = Array.map Term.var vars in
  let fterm name = Layout.field_term layout server_bytes name in
  let cmd = Layout.field_value layout witness "cmd" in
  let len = Bv.to_int (Layout.field_value layout witness "bb_len") in
  let buf_terms = Layout.field_bytes layout server_bytes "buf" in
  let buf_vals = Layout.field_bytes layout witness "buf" in
  let rec first_nul i =
    if i >= len then len else if is_nul buf_vals.(i) then i else first_nul (i + 1)
  in
  let t = first_nul 0 in
  let zero8 = Term.int ~width:8 0 in
  let nul_pattern =
    (* first NUL of the payload prefix is exactly at position t *)
    let nonzero_prefix =
      List.init t (fun i -> Term.neq buf_terms.(i) zero8)
    in
    if t < len then Term.and_l (Term.eq buf_terms.(t) zero8 :: nonzero_prefix)
    else Term.and_l nonzero_prefix
  in
  Term.not_
    (Term.and_l
       [
         Term.eq (fterm "cmd") (Term.const cmd);
         Term.eq (fterm "bb_len") (Term.int ~width:16 len);
         nul_pattern;
       ])

let class_of_witness witness =
  match classify witness with
  | Trojan cls | Valid cls -> Some cls
  | Rejected -> None

let pp_class fmt cls =
  let name =
    match command_of_code cls.class_cmd with
    | Some c -> c.cmd_name
    | None -> Printf.sprintf "0x%02x" cls.class_cmd
  in
  Format.fprintf fmt "%s: reported len %d, true len %d" name cls.reported_len
    cls.true_len
