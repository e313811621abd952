(* Domain-safe observability: phase timers, counters, latency histograms in
   Domain.DLS (registry + aggregate, the same shape as Solver's per-domain
   stats), plus an optional lock-protected JSONL event trace. *)

type phase =
  | Client_se
  | Server_se
  | Negate
  | Different_from
  | Solver_query
  | Bitblast
  | Checkpoint_io
  | Report
  | Dist
  | Filter_eval
  | Slice

let all_phases =
  [
    Client_se;
    Server_se;
    Negate;
    Different_from;
    Solver_query;
    Bitblast;
    Checkpoint_io;
    Report;
    Dist;
    Filter_eval;
    Slice;
  ]

let phase_name = function
  | Client_se -> "client_se"
  | Server_se -> "server_se"
  | Negate -> "negate"
  | Different_from -> "different_from"
  | Solver_query -> "solver_query"
  | Bitblast -> "bitblast"
  | Checkpoint_io -> "checkpoint_io"
  | Report -> "report"
  | Dist -> "dist"
  | Filter_eval -> "filter_eval"
  | Slice -> "slice"

let phase_of_name s = List.find_opt (fun p -> phase_name p = s) all_phases

let phase_index = function
  | Client_se -> 0
  | Server_se -> 1
  | Negate -> 2
  | Different_from -> 3
  | Solver_query -> 4
  | Bitblast -> 5
  | Checkpoint_io -> 6
  | Report -> 7
  | Dist -> 8
  | Filter_eval -> 9
  | Slice -> 10

let n_phases = List.length all_phases

(* --- per-domain metrics ---------------------------------------------------- *)

let histogram_buckets = 28

(* Bucket k holds durations in [2^k, 2^k+1) microseconds; sub-microsecond
   spans land in bucket 0, anything past ~2 minutes saturates the last. *)
let bucket_of_seconds s =
  let us = int_of_float (s *. 1e6) in
  if us <= 1 then 0
  else begin
    let k = ref 0 and v = ref us in
    while !v > 1 && !k < histogram_buckets - 1 do
      incr k;
      v := !v lsr 1
    done;
    !k
  end

(* Geometric midpoint of bucket [2^k, 2^(k+1)) µs, in seconds. *)
let bucket_midpoint k = (2.0 ** (float_of_int k +. 0.5)) *. 1e-6

let estimate_quantile hist q =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Float.max 1.0 (q *. float_of_int total) in
    let n = Array.length hist in
    let rec go k acc =
      if k >= n then bucket_midpoint (n - 1)
      else
        let acc = acc + hist.(k) in
        if float_of_int acc >= target then bucket_midpoint k else go (k + 1) acc
    in
    go 0 0
  end

type cell = {
  mutable c_spans : int;
  mutable c_seconds : float;
  c_histogram : int array;
}

type domain_slice = {
  cells : cell array; (* indexed by phase_index *)
  counters : (string, int) Hashtbl.t;
}

let registry : domain_slice list ref = ref []
let registry_mutex = Mutex.create ()

let fresh_slice () =
  {
    cells =
      Array.init n_phases (fun _ ->
          { c_spans = 0; c_seconds = 0.; c_histogram = Array.make histogram_buckets 0 });
    counters = Hashtbl.create 32;
  }

let slice_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_mutex;
      let s = fresh_slice () in
      registry := s :: !registry;
      Mutex.unlock registry_mutex;
      s)

let slice () = Domain.DLS.get slice_key

let count ?(n = 1) name =
  let s = slice () in
  let cur = try Hashtbl.find s.counters name with Not_found -> 0 in
  Hashtbl.replace s.counters name (cur + n)

type phase_metrics = { spans : int; seconds : float; histogram : int array }

type snapshot = {
  phases : (phase * phase_metrics) list;
  counters : (string * int) list;
}

let aggregate () =
  Mutex.lock registry_mutex;
  let slices = !registry in
  Mutex.unlock registry_mutex;
  let cells =
    Array.init n_phases (fun _ ->
        { spans = 0; seconds = 0.; histogram = Array.make histogram_buckets 0 })
  in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Array.iteri
        (fun i c ->
          let acc = cells.(i) in
          cells.(i) <-
            {
              spans = acc.spans + c.c_spans;
              seconds = acc.seconds +. c.c_seconds;
              histogram = Array.map2 ( + ) acc.histogram c.c_histogram;
            })
        s.cells;
      Hashtbl.iter
        (fun name n ->
          let cur = try Hashtbl.find counters name with Not_found -> 0 in
          Hashtbl.replace counters name (cur + n))
        s.counters)
    slices;
  {
    phases = List.map (fun p -> (p, cells.(phase_index p))) all_phases;
    counters =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let reset_all () =
  Mutex.lock registry_mutex;
  let slices = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun s ->
      Array.iter
        (fun c ->
          c.c_spans <- 0;
          c.c_seconds <- 0.;
          Array.fill c.c_histogram 0 histogram_buckets 0)
        s.cells;
      Hashtbl.reset s.counters)
    slices

(* --- snapshot codec --------------------------------------------------------- *)

module Snapshot = struct
  let version = 1

  let zero_metrics () =
    { spans = 0; seconds = 0.; histogram = Array.make histogram_buckets 0 }

  let empty () =
    { phases = List.map (fun p -> (p, zero_metrics ())) all_phases; counters = [] }

  (* Counter names ride on a space-separated line: percent-escape anything
     outside printable non-space ASCII (plus '%' itself). *)
  let escape_name s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        let code = Char.code c in
        if c = '%' || code <= 0x20 || code > 0x7e then
          Buffer.add_string buf (Printf.sprintf "%%%02x" code)
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let unescape_name s =
    let n = String.length s in
    let buf = Buffer.create n in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else if s.[i] = '%' then
        if i + 2 >= n then None
        else
          match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code when code >= 0 && code < 256 ->
              Buffer.add_char buf (Char.chr code);
              go (i + 3)
          | _ -> None
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0

  let encode snap =
    let buf = Buffer.create 512 in
    Buffer.add_string buf (Printf.sprintf "achsnap %d\n" version);
    List.iter
      (fun (p, m) ->
        if m.spans <> 0 || m.seconds <> 0. then begin
          (* %.17g: shortest always-round-trippable double rendering. *)
          Buffer.add_string buf
            (Printf.sprintf "phase %s %d %.17g " (phase_name p) m.spans m.seconds);
          let cells = ref [] in
          Array.iteri
            (fun k v -> if v <> 0 then cells := Printf.sprintf "%d:%d" k v :: !cells)
            m.histogram;
          Buffer.add_string buf
            (if !cells = [] then "-" else String.concat "," (List.rev !cells));
          Buffer.add_char buf '\n'
        end)
      snap.phases;
    List.iter
      (fun (name, n) ->
        Buffer.add_string buf (Printf.sprintf "counter %s %d\n" (escape_name name) n))
      snap.counters;
    Buffer.contents buf

  let decode text =
    let exception Fail of string in
    let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt in
    try
      let lines = String.split_on_char '\n' text in
      let header, body =
        match lines with
        | h :: rest -> (String.trim h, rest)
        | [] -> fail "empty snapshot"
      in
      (match String.split_on_char ' ' header with
      | [ "achsnap"; v ] -> (
          match int_of_string_opt v with
          | Some v when v >= 1 && v <= version -> ()
          | Some v -> fail "unsupported snapshot version %d" v
          | None -> fail "bad snapshot version %S" v)
      | _ -> fail "not a snapshot (bad header %S)" header);
      let cells = Array.init n_phases (fun _ -> zero_metrics ()) in
      let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let parse_hist m field =
        if field <> "-" then
          List.iter
            (fun cell ->
              match String.split_on_char ':' cell with
              | [ k; v ] -> (
                  match (int_of_string_opt k, int_of_string_opt v) with
                  | Some k, Some v when k >= 0 && k < histogram_buckets && v >= 0 ->
                      m.histogram.(k) <- m.histogram.(k) + v
                  | _ -> fail "bad histogram cell %S" cell)
              | _ -> fail "bad histogram cell %S" cell)
            (String.split_on_char ',' field)
      in
      List.iter
        (fun line ->
          let line = String.trim line in
          if line <> "" then
            match String.split_on_char ' ' line with
            | "phase" :: name :: spans :: seconds :: rest -> (
                match phase_of_name name with
                | None -> () (* unknown phase from a newer build: skip *)
                | Some p -> (
                    let m = cells.(phase_index p) in
                    (match (int_of_string_opt spans, float_of_string_opt seconds) with
                    | Some sp, Some sec when sp >= 0 ->
                        cells.(phase_index p) <-
                          { m with spans = m.spans + sp; seconds = m.seconds +. sec }
                    | _ -> fail "bad phase line %S" line);
                    match rest with
                    | [ hist ] -> parse_hist cells.(phase_index p) hist
                    | _ -> fail "bad phase line %S" line))
            | "counter" :: name :: [ n ] -> (
                match (unescape_name name, int_of_string_opt n) with
                | Some name, Some n ->
                    let cur = try Hashtbl.find counters name with Not_found -> 0 in
                    Hashtbl.replace counters name (cur + n)
                | _ -> fail "bad counter line %S" line)
            | tag :: _
              when tag <> "phase" && tag <> "counter" && tag <> "achsnap" ->
                () (* unknown record tag from a newer version: skip *)
            | _ -> fail "bad line %S" line)
        body;
      Ok
        {
          phases = List.map (fun p -> (p, cells.(phase_index p))) all_phases;
          counters =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        }
    with Fail msg -> Error msg

  let merge a b =
    let metrics_of snap p =
      match List.assoc_opt p snap.phases with
      | Some m -> m
      | None -> zero_metrics ()
    in
    let hget h k = if k < Array.length h then h.(k) else 0 in
    let phases =
      List.map
        (fun p ->
          let ma = metrics_of a p and mb = metrics_of b p in
          ( p,
            {
              spans = ma.spans + mb.spans;
              seconds = ma.seconds +. mb.seconds;
              histogram =
                Array.init histogram_buckets (fun k ->
                    hget ma.histogram k + hget mb.histogram k);
            } ))
        all_phases
    in
    let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (name, n) ->
        let cur = try Hashtbl.find counters name with Not_found -> 0 in
        Hashtbl.replace counters name (cur + n))
      (a.counters @ b.counters);
    {
      phases;
      counters =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    }
end

(* --- events and the JSONL trace writer ------------------------------------- *)

type value = S of string | I of int | F of float | B of bool

type event = {
  ev_t : float;
  ev_tid : int;
  ev_kind : string;
  ev_name : string;
  ev_args : (string * value) list;
}

type writer = { oc : out_channel; w_t0 : float }

(* Both the writer and the sink are mutated only from the orchestrating
   domain (CLI/bench/test setup), but events arrive from every worker, so
   all access to either goes through [trace_mutex]. [live_flag] keeps the
   disabled fast path to a single atomic load. *)
let trace_mutex = Mutex.create ()
let writer : writer option ref = ref None
let sink : (event -> unit) option ref = ref None
let live_flag = Atomic.make false
let process_t0 = Unix.gettimeofday ()

let live () = Atomic.get live_flag

(* --- process identity (for cross-process trace correlation) ---------------- *)

(* (run_id, process name). Set once by the orchestrating entry point; read
   whenever a trace stream opens. Guarded by [trace_mutex] alongside the
   writer it stamps. *)
let identity_ref = ref ("", "main")

let set_identity ~run_id ~proc =
  Mutex.lock trace_mutex;
  identity_ref := (run_id, proc);
  Mutex.unlock trace_mutex

let identity () =
  Mutex.lock trace_mutex;
  let id = !identity_ref in
  Mutex.unlock trace_mutex;
  id

let run_id_counter = Atomic.make 0

let fresh_run_id () =
  let seed =
    Printf.sprintf "%d.%.6f.%d" (Unix.getpid ()) (Unix.gettimeofday ())
      (Atomic.fetch_and_add run_id_counter 1)
  in
  String.sub (Digest.to_hex (Digest.string seed)) 0 12

let update_live_locked () =
  Atomic.set live_flag (!writer <> None || !sink <> None)

let set_sink f =
  Mutex.lock trace_mutex;
  sink := f;
  update_live_locked ();
  Mutex.unlock trace_mutex

(* Hand-rolled JSON: the subsystem is zero-dependency by design. *)
let buf_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let buf_add_float buf f =
  (* Shortest round-trippable rendering; JSON has no NaN/inf so clamp. *)
  if Float.is_nan f then Buffer.add_string buf "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.abs f >= 1e6 then
    (* Epoch-scale timestamps (wall0 in the trace meta event): keep
       microsecond precision so cross-process alignment stays sharp. *)
    Buffer.add_string buf (Printf.sprintf "%.6f" f)
  else Buffer.add_string buf (Printf.sprintf "%.9g" f)

let buf_add_value buf = function
  | S s -> buf_add_json_string buf s
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f -> buf_add_float buf f
  | B b -> Buffer.add_string buf (if b then "true" else "false")

let json_of_event ev =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "{\"t\":";
  buf_add_float buf ev.ev_t;
  Buffer.add_string buf ",\"tid\":";
  Buffer.add_string buf (string_of_int ev.ev_tid);
  Buffer.add_string buf ",\"kind\":";
  buf_add_json_string buf ev.ev_kind;
  Buffer.add_string buf ",\"name\":";
  buf_add_json_string buf ev.ev_name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      buf_add_json_string buf k;
      Buffer.add_char buf ':';
      buf_add_value buf v)
    ev.ev_args;
  Buffer.add_char buf '}';
  Buffer.contents buf

let emit ?(args = []) ~kind ~name () =
  if Atomic.get live_flag then begin
    Mutex.lock trace_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock trace_mutex)
      (fun () ->
        let t0 = match !writer with Some w -> w.w_t0 | None -> process_t0 in
        let ev =
          {
            ev_t = Unix.gettimeofday () -. t0;
            ev_tid = (Domain.self () :> int);
            ev_kind = kind;
            ev_name = name;
            ev_args = args;
          }
        in
        (match !writer with
        | Some w ->
            output_string w.oc (json_of_event ev);
            output_char w.oc '\n';
            (* Flush per line: a killed process still leaves whole lines. *)
            flush w.oc
        | None -> ());
        match !sink with Some f -> f ev | None -> ())
  end

let span ?site p f =
  let c = (slice ()).cells.(phase_index p) in
  let name = phase_name p in
  if Atomic.get live_flag then begin
    let args = match site with Some s -> [ ("site", S s) ] | None -> [] in
    emit ~args ~kind:"span_begin" ~name ()
  end;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      c.c_spans <- c.c_spans + 1;
      c.c_seconds <- c.c_seconds +. dt;
      let b = bucket_of_seconds dt in
      c.c_histogram.(b) <- c.c_histogram.(b) + 1;
      if Atomic.get live_flag then
        emit ~args:[ ("dur", F dt) ] ~kind:"span_end" ~name ())
    f

(* [record_span p dt] charges an externally-timed duration to phase [p]
   without a second clock read — for hot paths (the serving daemon) that
   already hold [dt]. Emits a lone [span_end] carrying [dur]; the summary's
   orphan-end path attributes it correctly. *)
let record_span p dt =
  let c = (slice ()).cells.(phase_index p) in
  c.c_spans <- c.c_spans + 1;
  c.c_seconds <- c.c_seconds +. dt;
  let b = bucket_of_seconds dt in
  c.c_histogram.(b) <- c.c_histogram.(b) + 1;
  if Atomic.get live_flag then
    emit ~args:[ ("dur", F dt) ] ~kind:"span_end" ~name:(phase_name p) ()

module Trace = struct
  let enable path =
    Mutex.lock trace_mutex;
    (match !writer with
    | Some w -> ( try close_out w.oc with Sys_error _ -> ())
    | None -> ());
    let w = { oc = open_out path; w_t0 = Unix.gettimeofday () } in
    writer := Some w;
    (* Stamp the stream with its identity so merged timelines can correlate
       processes: run_id ties streams of one run together, wall0 aligns
       their clocks. *)
    let run_id, proc = !identity_ref in
    let meta =
      {
        ev_t = 0.;
        ev_tid = (Domain.self () :> int);
        ev_kind = "meta";
        ev_name = "trace_start";
        ev_args =
          [
            ("run_id", S run_id);
            ("proc", S proc);
            ("pid", I (Unix.getpid ()));
            ("wall0", F w.w_t0);
          ];
      }
    in
    output_string w.oc (json_of_event meta);
    output_char w.oc '\n';
    flush w.oc;
    update_live_locked ();
    Mutex.unlock trace_mutex

  let enabled () =
    Mutex.lock trace_mutex;
    let b = !writer <> None in
    Mutex.unlock trace_mutex;
    b

  let flush () =
    Mutex.lock trace_mutex;
    (match !writer with Some w -> ( try flush w.oc with Sys_error _ -> ()) | None -> ());
    Mutex.unlock trace_mutex

  let disable () =
    Mutex.lock trace_mutex;
    (match !writer with
    | Some w -> ( try close_out w.oc with Sys_error _ -> ())
    | None -> ());
    writer := None;
    update_live_locked ();
    Mutex.unlock trace_mutex

  let file_of_env () = Sys.getenv_opt "ACHILLES_TRACE"
end

(* --- reading traces back ---------------------------------------------------- *)

module Json = struct
  type t = Null | Bool of bool | Num of float | Str of string

  exception Bad of string

  (* Minimal recursive-descent parser for the flat objects this module
     writes: {"key": scalar, ...} with string/number/bool/null values. *)
  let parse_line line =
    let n = String.length line in
    let pos = ref 0 in
    let peek () = if !pos < n then Some line.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        let c = line.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then raise (Bad "unterminated escape");
            let e = line.[!pos] in
            advance ();
            match e with
            | '"' -> Buffer.add_char buf '"'; go ()
            | '\\' -> Buffer.add_char buf '\\'; go ()
            | '/' -> Buffer.add_char buf '/'; go ()
            | 'n' -> Buffer.add_char buf '\n'; go ()
            | 'r' -> Buffer.add_char buf '\r'; go ()
            | 't' -> Buffer.add_char buf '\t'; go ()
            | 'b' -> Buffer.add_char buf '\b'; go ()
            | 'f' -> Buffer.add_char buf '\012'; go ()
            | 'u' ->
                if !pos + 4 > n then raise (Bad "short \\u escape");
                let hex = String.sub line !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> raise (Bad "bad \\u escape")
                in
                (* We only emit \u for control chars; decode the BMP point
                   as UTF-8 so round-trips stay lossless. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> raise (Bad "bad escape"))
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_scalar () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some 't' ->
          if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
            pos := !pos + 4;
            Bool true
          end
          else raise (Bad "bad literal")
      | Some 'f' ->
          if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
            pos := !pos + 5;
            Bool false
          end
          else raise (Bad "bad literal")
      | Some 'n' ->
          if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
            pos := !pos + 4;
            Null
          end
          else raise (Bad "bad literal")
      | Some c when c = '-' || (c >= '0' && c <= '9') ->
          let start = !pos in
          while
            !pos < n
            && (match line.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            advance ()
          done;
          let s = String.sub line start (!pos - start) in
          (match float_of_string_opt s with
          | Some f -> Num f
          | None -> raise (Bad (Printf.sprintf "bad number %S" s)))
      | _ -> raise (Bad (Printf.sprintf "unexpected input at %d" !pos))
    in
    try
      expect '{';
      skip_ws ();
      let fields = ref [] in
      (match peek () with
      | Some '}' -> advance ()
      | _ ->
          let rec members () =
            let key = (skip_ws (); parse_string ()) in
            expect ':';
            let v = parse_scalar () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> raise (Bad "expected , or }")
          in
          members ());
      skip_ws ();
      if !pos <> n then raise (Bad "trailing garbage");
      Ok (List.rev !fields)
    with Bad msg -> Error msg

  (* Full (nested) JSON values — used by status.json and trace merging.
     [parse_line] above stays the fast path for flat trace lines. *)
  type v =
    | VNull
    | VBool of bool
    | VNum of float
    | VStr of string
    | VArr of v list
    | VObj of (string * v) list

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then raise (Bad "unterminated escape");
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' -> Buffer.add_char buf '"'; go ()
            | '\\' -> Buffer.add_char buf '\\'; go ()
            | '/' -> Buffer.add_char buf '/'; go ()
            | 'n' -> Buffer.add_char buf '\n'; go ()
            | 'r' -> Buffer.add_char buf '\r'; go ()
            | 't' -> Buffer.add_char buf '\t'; go ()
            | 'b' -> Buffer.add_char buf '\b'; go ()
            | 'f' -> Buffer.add_char buf '\012'; go ()
            | 'u' ->
                if !pos + 4 > n then raise (Bad "short \\u escape");
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> raise (Bad "bad \\u escape")
                in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> raise (Bad "bad escape"))
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> VStr (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            VObj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let key = parse_string () in
              expect ':';
              let v = parse_value () in
              fields := (key, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ()
              | Some '}' -> advance ()
              | _ -> raise (Bad "expected , or }")
            in
            members ();
            VObj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            VArr []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements ()
              | Some ']' -> advance ()
              | _ -> raise (Bad "expected , or ]")
            in
            elements ();
            VArr (List.rev !items)
          end
      | Some 't' ->
          if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
            pos := !pos + 4;
            VBool true
          end
          else raise (Bad "bad literal")
      | Some 'f' ->
          if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
            pos := !pos + 5;
            VBool false
          end
          else raise (Bad "bad literal")
      | Some 'n' ->
          if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
            pos := !pos + 4;
            VNull
          end
          else raise (Bad "bad literal")
      | Some c when c = '-' || (c >= '0' && c <= '9') ->
          let start = !pos in
          while
            !pos < n
            && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            advance ()
          done;
          let str = String.sub s start (!pos - start) in
          (match float_of_string_opt str with
          | Some f -> VNum f
          | None -> raise (Bad (Printf.sprintf "bad number %S" str)))
      | _ -> raise (Bad (Printf.sprintf "unexpected input at %d" !pos))
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then raise (Bad "trailing garbage");
      Ok v
    with Bad msg -> Error msg

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | VNull -> Buffer.add_string buf "null"
      | VBool b -> Buffer.add_string buf (if b then "true" else "false")
      | VNum f -> buf_add_float buf f
      | VStr s -> buf_add_json_string buf s
      | VArr items ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char buf ',';
              go item)
            items;
          Buffer.add_char buf ']'
      | VObj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, item) ->
              if i > 0 then Buffer.add_char buf ',';
              buf_add_json_string buf k;
              Buffer.add_char buf ':';
              go item)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  let mem k = function VObj fields -> List.assoc_opt k fields | _ -> None

  let to_float = function VNum f -> Some f | _ -> None

  let to_str = function VStr s -> Some s | _ -> None
end

module Summary = struct
  type row = {
    row_phase : string;
    self_seconds : float;
    total_seconds : float;
    row_spans : int;
    max_seconds : float;
    row_hist : int array; (* log2-µs histogram of inclusive span durations *)
  }

  type t = {
    wall : float;
    attributed : float;
    rows : row list;
    counters : (string * int) list;
    verdicts : (string * int) list;
    events : int;
    kinds : (string * int) list;
    sites : (string * row) list;
  }

  type open_span = {
    os_name : string;
    os_site : string option;
    os_start : float;
    mutable os_child : float;
  }

  let str fields k =
    match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None

  let num fields k =
    match List.assoc_opt k fields with Some (Json.Num f) -> Some f | _ -> None

  let of_events events =
    let rows : (string, row) Hashtbl.t = Hashtbl.create 16 in
    let row_order : string list ref = ref [] in
    let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let verdicts : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let kinds : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let sites : (string * string, row) Hashtbl.t = Hashtbl.create 8 in
    let site_order = ref [] in
    let stacks : (int, open_span list ref) Hashtbl.t = Hashtbl.create 8 in
    let bump tbl k n =
      let cur = try Hashtbl.find tbl k with Not_found -> 0 in
      Hashtbl.replace tbl k (cur + n)
    in
    let n_events = ref 0 in
    let min_t = ref infinity and max_t = ref neg_infinity in
    let main_tid = ref None in
    (* Wall-clock attributed to phases on the main domain = total duration
       of its root (unnested) spans. Nested spans only shift time between
       phases via self-time; they never add to coverage. *)
    let main_root = ref 0. in
    let stack_of tid =
      match Hashtbl.find_opt stacks tid with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.add stacks tid s;
          s
    in
    let bump_row tbl order key phase ~dur ~self =
      let r =
        match Hashtbl.find_opt tbl key with
        | Some r -> r
        | None ->
            order := key :: !order;
            {
              row_phase = phase;
              self_seconds = 0.;
              total_seconds = 0.;
              row_spans = 0;
              max_seconds = 0.;
              row_hist = Array.make histogram_buckets 0;
            }
      in
      let b = bucket_of_seconds (Float.max 0. dur) in
      r.row_hist.(b) <- r.row_hist.(b) + 1;
      Hashtbl.replace tbl key
        {
          r with
          self_seconds = r.self_seconds +. self;
          total_seconds = r.total_seconds +. dur;
          row_spans = r.row_spans + 1;
          max_seconds = Float.max r.max_seconds dur;
        }
    in
    let add_span ?site tid name ~dur ~self =
      let self = Float.max 0. self in
      bump_row rows row_order name name ~dur ~self;
      Option.iter
        (fun site -> bump_row sites site_order (name, site) name ~dur ~self)
        site;
      let stack = stack_of tid in
      match !stack with
      | parent :: _ -> parent.os_child <- parent.os_child +. dur
      | [] -> if Some tid = !main_tid then main_root := !main_root +. dur
    in
    List.iter
      (fun fields ->
        let t = Option.value ~default:0. (num fields "t") in
        let tid =
          int_of_float (Option.value ~default:0. (num fields "tid"))
        in
        let kind = Option.value ~default:"" (str fields "kind") in
        let name = Option.value ~default:"" (str fields "name") in
        incr n_events;
        if t < !min_t then min_t := t;
        if t > !max_t then max_t := t;
        if !main_tid = None then main_tid := Some tid;
        bump kinds kind 1;
        match kind with
        | "span_begin" ->
            let stack = stack_of tid in
            let os_site = str fields "site" in
            stack :=
              { os_name = name; os_site; os_start = t; os_child = 0. } :: !stack
        | "span_end" -> (
            let stack = stack_of tid in
            match !stack with
            | top :: rest when top.os_name = name ->
                stack := rest;
                let dur =
                  match num fields "dur" with
                  | Some d -> d
                  | None -> t -. top.os_start
                in
                add_span ?site:top.os_site tid name ~dur
                  ~self:(dur -. top.os_child)
            | _ ->
                (* Orphaned end (trace truncated at the front): count the
                   span from its own dur field when present. *)
                let dur = Option.value ~default:0. (num fields "dur") in
                add_span tid name ~dur ~self:dur)
        | "counter" ->
            let n =
              int_of_float (Option.value ~default:1. (num fields "n"))
            in
            bump counters name n
        | "solver" when name = "verdict" ->
            let r = Option.value ~default:"?" (str fields "result") in
            bump verdicts r 1
        | _ -> ())
      events;
    (* Close spans the run never finished (killed mid-run) at the last
       timestamp, innermost first so child time propagates outward. *)
    let last = if !max_t = neg_infinity then 0. else !max_t in
    Hashtbl.iter
      (fun tid stack ->
        List.iter
          (fun os ->
            let stack' = stack_of tid in
            (match !stack' with
            | top :: rest when top == os -> stack' := rest
            | _ -> ());
            let dur = Float.max 0. (last -. os.os_start) in
            add_span ?site:os.os_site tid os.os_name ~dur
              ~self:(dur -. os.os_child))
          !stack)
      stacks;
    let wall =
      if !max_t = neg_infinity || !min_t = infinity then 0.
      else !max_t -. !min_t
    in
    let sorted tbl =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    {
      wall;
      attributed = (if wall > 0. then Float.min 1. (!main_root /. wall) else 1.);
      rows = List.rev_map (Hashtbl.find rows) !row_order;
      counters = sorted counters;
      verdicts = sorted verdicts;
      sites =
        List.rev_map (fun key -> (snd key, Hashtbl.find sites key)) !site_order;
      events = !n_events;
      kinds = sorted kinds;
    }

  let load path =
    match open_in path with
    | exception Sys_error msg -> Error msg
    | ic ->
        let events = ref [] in
        let lineno = ref 0 in
        let err = ref None in
        (try
           while !err = None do
             let line = input_line ic in
             incr lineno;
             if String.trim line <> "" then
               match Json.parse_line line with
               | Ok fields -> events := fields :: !events
               | Error msg ->
                   err := Some (Printf.sprintf "%s:%d: %s" path !lineno msg)
           done
         with End_of_file -> ());
        close_in ic;
        (match !err with
        | Some e -> Error e
        | None -> Ok (of_events (List.rev !events)))
end

module Chrome = struct
  (* Chrome trace-event format: span_begin/span_end map to "B"/"E" duration
     events, everything else to instant events, all timestamps in µs. *)

  let emit_event oc buf ~first ~pid ~toffset fields =
    let t = Option.value ~default:0. (Summary.num fields "t") +. toffset in
    let tid =
      int_of_float (Option.value ~default:0. (Summary.num fields "tid"))
    in
    let kind = Option.value ~default:"" (Summary.str fields "kind") in
    let name = Option.value ~default:"event" (Summary.str fields "name") in
    let ph, nm =
      match kind with
      | "span_begin" -> ("B", name)
      | "span_end" -> ("E", name)
      | _ -> ("i", kind ^ ":" ^ name)
    in
    Buffer.clear buf;
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf "{\"name\":";
    buf_add_json_string buf nm;
    Buffer.add_string buf ",\"cat\":";
    buf_add_json_string buf kind;
    Buffer.add_string buf
      (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d" ph
         (t *. 1e6) pid tid);
    if ph = "i" then Buffer.add_string buf ",\"s\":\"t\"";
    let extra =
      List.filter
        (fun (k, _) -> not (List.mem k [ "t"; "tid"; "kind"; "name" ]))
        fields
    in
    if extra <> [] then begin
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          buf_add_json_string buf k;
          Buffer.add_char buf ':';
          match v with
          | Json.Null -> Buffer.add_string buf "null"
          | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
          | Json.Num f -> buf_add_float buf f
          | Json.Str s -> buf_add_json_string buf s)
        extra;
      Buffer.add_char buf '}'
    end;
    Buffer.add_char buf '}';
    output_string oc (Buffer.contents buf)

  let emit_process_name oc buf ~first ~pid name =
    Buffer.clear buf;
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":"
         pid);
    buf_add_json_string buf name;
    Buffer.add_string buf "}}";
    output_string oc (Buffer.contents buf)

  let export ~src ~dst =
    match open_in src with
    | exception Sys_error msg -> Error msg
    | ic -> (
        match open_out dst with
        | exception Sys_error msg ->
            close_in ic;
            Error msg
        | oc ->
            let buf = Buffer.create 256 in
            let first = ref true in
            let err = ref None in
            let lineno = ref 0 in
            output_string oc "{\"traceEvents\":[\n";
            (try
               while !err = None do
                 let line = input_line ic in
                 incr lineno;
                 if String.trim line <> "" then
                   match Json.parse_line line with
                   | Ok fields ->
                       emit_event oc buf ~first ~pid:0 ~toffset:0. fields
                   | Error msg ->
                       err :=
                         Some (Printf.sprintf "%s:%d: %s" src !lineno msg)
               done
             with End_of_file -> ());
            output_string oc "\n]}\n";
            close_in ic;
            close_out oc;
            (match !err with Some e -> Error e | None -> Ok ()))

  (* One stream's meta identity as read back from its trace_start line. *)
  type stream_meta = {
    sm_run_id : string option;
    sm_proc : string option;
    sm_wall0 : float option;
  }

  let load_stream src =
    match open_in src with
    | exception Sys_error msg -> Error msg
    | ic ->
        let events = ref [] in
        let lineno = ref 0 in
        let err = ref None in
        (try
           while !err = None do
             let line = input_line ic in
             incr lineno;
             if String.trim line <> "" then
               match Json.parse_line line with
               | Ok fields -> events := fields :: !events
               | Error msg ->
                   err := Some (Printf.sprintf "%s:%d: %s" src !lineno msg)
           done
         with End_of_file -> ());
        close_in ic;
        (match !err with
        | Some e -> Error e
        | None ->
            let events = List.rev !events in
            let meta =
              List.find_opt
                (fun fields ->
                  Summary.str fields "kind" = Some "meta"
                  && Summary.str fields "name" = Some "trace_start")
                events
            in
            let get f k = Option.bind meta (fun m -> f m k) in
            Ok
              ( events,
                {
                  sm_run_id =
                    (match get Summary.str "run_id" with
                    | Some "" -> None
                    | other -> other);
                  sm_proc = get Summary.str "proc";
                  sm_wall0 = get Summary.num "wall0";
                } ))

  (* Merge several JSONL trace streams (coordinator + workers) into one
     Chrome timeline: one pid per stream, clocks aligned via each stream's
     wall0, and an error if streams carry distinct run_ids. *)
  let merge ~srcs ~dst =
    let exception Fail of string in
    try
      let streams =
        List.map
          (fun src ->
            match load_stream src with
            | Ok (events, meta) -> (src, events, meta)
            | Error msg -> raise (Fail msg))
          srcs
      in
      if streams = [] then raise (Fail "no trace files to merge");
      let run_ids =
        List.filter_map (fun (_, _, m) -> m.sm_run_id) streams
        |> List.sort_uniq String.compare
      in
      (match run_ids with
      | [] | [ _ ] -> ()
      | ids ->
          raise
            (Fail
               (Printf.sprintf "traces belong to different runs: %s"
                  (String.concat ", " ids))));
      let base =
        List.filter_map (fun (_, _, m) -> m.sm_wall0) streams
        |> List.fold_left Float.min infinity
      in
      (match open_out dst with
      | exception Sys_error msg -> raise (Fail msg)
      | oc ->
          let buf = Buffer.create 256 in
          let first = ref true in
          output_string oc "{\"traceEvents\":[\n";
          List.iteri
            (fun pid (src, events, meta) ->
              let proc =
                match meta.sm_proc with
                | Some p -> p
                | None -> Filename.remove_extension (Filename.basename src)
              in
              emit_process_name oc buf ~first ~pid proc;
              let toffset =
                match meta.sm_wall0 with
                | Some w when base < infinity -> w -. base
                | _ -> 0.
              in
              List.iter (emit_event oc buf ~first ~pid ~toffset) events)
            streams;
          output_string oc "\n]}\n";
          close_out oc);
      Ok (List.length streams, match run_ids with [ id ] -> Some id | _ -> None)
    with Fail msg -> Error msg
end
