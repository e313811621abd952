(* Observability: phase timers, counters and latency histograms in plain
   module state, plus an optional JSONL event trace. The search and the
   daemon each run on one domain, so nothing here is locked. *)

type phase =
  | Client_se
  | Server_se
  | Negate
  | Different_from
  | Solver_query
  | Bitblast
  | Checkpoint_io
  | Report
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
  | Filter_eval -> 8
  | Slice -> 9

let n_phases = List.length all_phases

(* --- metrics ---------------------------------------------------------------- *)

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

let cells =
  Array.init n_phases (fun _ ->
      {
        c_spans = 0;
        c_seconds = 0.;
        c_histogram = Array.make histogram_buckets 0;
      })

let counters : (string, int) Hashtbl.t = Hashtbl.create 32

let count ?(n = 1) name =
  let cur = try Hashtbl.find counters name with Not_found -> 0 in
  Hashtbl.replace counters name (cur + n)

(* Charge one finished span of [dt] seconds to phase [p]. *)
let charge p dt =
  let c = cells.(phase_index p) in
  c.c_spans <- c.c_spans + 1;
  c.c_seconds <- c.c_seconds +. dt;
  let b = bucket_of_seconds dt in
  c.c_histogram.(b) <- c.c_histogram.(b) + 1

type phase_metrics = { spans : int; seconds : float; histogram : int array }

type snapshot = {
  phases : (phase * phase_metrics) list;
  counters : (string * int) list;
}

let aggregate () =
  {
    phases =
      List.map
        (fun p ->
          let c = cells.(phase_index p) in
          ( p,
            {
              spans = c.c_spans;
              seconds = c.c_seconds;
              histogram = Array.copy c.c_histogram;
            } ))
        all_phases;
    counters =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let reset_all () =
  Array.iter
    (fun c ->
      c.c_spans <- 0;
      c.c_seconds <- 0.;
      Array.fill c.c_histogram 0 histogram_buckets 0)
    cells;
  Hashtbl.reset counters

(* --- events and the JSONL trace writer ------------------------------------- *)

type value = S of string | I of int | F of float | B of bool

type event = {
  ev_t : float;
  ev_kind : string;
  ev_name : string;
  ev_args : (string * value) list;
}

type writer = { oc : out_channel; w_t0 : float }

let writer : writer option ref = ref None
let sink : (event -> unit) option ref = ref None

(* Kept equal to [!writer <> None || !sink <> None], so the disabled fast
   path is a single load. *)
let live_flag = ref false
let process_t0 = Unix.gettimeofday ()

let live () = !live_flag

let update_live () = live_flag := !writer <> None || !sink <> None

let set_sink f =
  sink := f;
  update_live ()

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
       microsecond precision. *)
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

let write_line w ev =
  output_string w.oc (json_of_event ev);
  output_char w.oc '\n';
  (* Flush per line: a killed process still leaves whole lines. *)
  flush w.oc

let emit ?(args = []) ~kind ~name () =
  if !live_flag then begin
    let t0 = match !writer with Some w -> w.w_t0 | None -> process_t0 in
    let ev =
      {
        ev_t = Unix.gettimeofday () -. t0;
        ev_kind = kind;
        ev_name = name;
        ev_args = args;
      }
    in
    Option.iter (fun w -> write_line w ev) !writer;
    Option.iter (fun f -> f ev) !sink
  end

let span ?site p f =
  let name = phase_name p in
  if !live_flag then begin
    let args = match site with Some s -> [ ("site", S s) ] | None -> [] in
    emit ~args ~kind:"span_begin" ~name ()
  end;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      charge p dt;
      if !live_flag then emit ~args:[ ("dur", F dt) ] ~kind:"span_end" ~name ())
    f

(* [record_span p dt] charges an externally-timed duration to phase [p]
   without a second clock read — for hot paths (the serving daemon) that
   already hold [dt]. Emits a lone [span_end] carrying [dur]; the summary's
   orphan-end path attributes it correctly. *)
let record_span p dt =
  charge p dt;
  if !live_flag then
    emit ~args:[ ("dur", F dt) ] ~kind:"span_end" ~name:(phase_name p) ()

module Trace = struct
  let disable () =
    Option.iter (fun w -> try close_out w.oc with Sys_error _ -> ()) !writer;
    writer := None;
    update_live ()

  let enable path =
    disable ();
    let w = { oc = open_out path; w_t0 = Unix.gettimeofday () } in
    writer := Some w;
    (* Stamp the stream with the writing process and its wall-clock
       origin. *)
    write_line w
      {
        ev_t = 0.;
        ev_kind = "meta";
        ev_name = "trace_start";
        ev_args = [ ("pid", I (Unix.getpid ())); ("wall0", F w.w_t0) ];
      };
    update_live ()

  let file_of_env () = Sys.getenv_opt "ACHILLES_TRACE"
end

(* --- reading traces back ---------------------------------------------------- *)

module Json = struct
  type t = Null | Bool of bool | Num of float | Str of string

  exception Bad of string

  (* Full (nested) JSON values — trace lines, and JSON documents such as the
     benchmark declaration and exported Chrome traces. *)
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


  (* A trace line: a flat object of scalars. *)
  let parse_line line =
    let scalar = function
      | VNull -> Null
      | VBool b -> Bool b
      | VNum f -> Num f
      | VStr s -> Str s
      | VArr _ | VObj _ -> raise (Bad "nested value in a trace line")
    in
    match parse line with
    | Ok (VObj fields) -> (
        try Ok (List.map (fun (k, v) -> (k, scalar v)) fields)
        with Bad msg -> Error msg)
    | Ok _ -> Error "a trace line must be an object"
    | Error msg -> Error msg

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
    let stack : open_span list ref = ref [] in
    let bump tbl k n =
      let cur = try Hashtbl.find tbl k with Not_found -> 0 in
      Hashtbl.replace tbl k (cur + n)
    in
    let n_events = ref 0 in
    let min_t = ref infinity and max_t = ref neg_infinity in
    (* Wall-clock attributed to phases = total duration of the root spans
       (those begun on an empty stack). Nested spans only shift time
       between phases via self-time; they never add to coverage. *)
    let root = ref 0. in
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
    let add_span ?site name ~dur ~self =
      let self = Float.max 0. self in
      bump_row rows row_order name name ~dur ~self;
      Option.iter
        (fun site -> bump_row sites site_order (name, site) name ~dur ~self)
        site;
      match !stack with
      | parent :: _ -> parent.os_child <- parent.os_child +. dur
      | [] -> root := !root +. dur
    in
    List.iter
      (fun fields ->
        let t = Option.value ~default:0. (num fields "t") in
        let kind = Option.value ~default:"" (str fields "kind") in
        let name = Option.value ~default:"" (str fields "name") in
        incr n_events;
        if t < !min_t then min_t := t;
        if t > !max_t then max_t := t;
        bump kinds kind 1;
        match kind with
        | "span_begin" ->
            let os_site = str fields "site" in
            stack :=
              { os_name = name; os_site; os_start = t; os_child = 0. } :: !stack
        | "span_end" -> (
            match !stack with
            | top :: rest when top.os_name = name ->
                stack := rest;
                let dur =
                  match num fields "dur" with
                  | Some d -> d
                  | None -> t -. top.os_start
                in
                add_span ?site:top.os_site name ~dur
                  ~self:(dur -. top.os_child)
            | _ ->
                (* Orphaned end (trace truncated at the front): count the
                   span from its own dur field when present. *)
                let dur = Option.value ~default:0. (num fields "dur") in
                add_span name ~dur ~self:dur)
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
    let rec close_open () =
      match !stack with
      | [] -> ()
      | os :: rest ->
          stack := rest;
          let dur = Float.max 0. (last -. os.os_start) in
          add_span ?site:os.os_site os.os_name ~dur ~self:(dur -. os.os_child);
          close_open ()
    in
    close_open ();
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
      attributed = (if wall > 0. then Float.min 1. (!root /. wall) else 1.);
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

  let emit_event oc buf ~first fields =
    let t = Option.value ~default:0. (Summary.num fields "t") in
    (* only traces written before the one-domain cut carry a tid *)
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
      (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":0,\"tid\":%d" ph
         (t *. 1e6) tid);
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
                       emit_event oc buf ~first fields
                   | Error msg ->
                       err :=
                         Some (Printf.sprintf "%s:%d: %s" src !lineno msg)
               done
             with End_of_file -> ());
            output_string oc "\n]}\n";
            close_in ic;
            close_out oc;
            (match !err with Some e -> Error e | None -> Ok ()))
end
