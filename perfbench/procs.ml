(* Child processes and /proc readings.

   Every child the benchmark starts is registered here until it has been
   waited for, and every socket or scratch file until it has been removed,
   so that [cleanup] (run at exit, including exits forced by SIGTERM or
   SIGINT) leaves no process and no file behind. *)

let now = Clock.now

(* [pin pid cpu] restricts process [pid] (0: this one) to one CPU. *)
external pin : int -> int -> bool = "perfbench_pin"
let live : int list ref = ref []
let files : string list ref = ref []
let register_file path = files := path :: !files

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      stderr
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (fun p -> p <> pid) !live

let rec wait_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let rec wait_blocking pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_blocking pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 255

(* Stop a child: SIGTERM, then SIGKILL once [grace] seconds have passed;
   returns only after the child has been waited for. *)
let reap ?(grace = 2.0) pid =
  let signal s = try Unix.kill pid s with Unix.Unix_error _ -> () in
  signal Sys.sigterm;
  let deadline = now () +. grace in
  let rec poll () =
    match wait_nohang pid with
    | Some status -> status
    | None when now () > deadline ->
        signal Sys.sigkill;
        wait_blocking pid
    | None ->
        Unix.sleepf 0.005;
        poll ()
  in
  let status = poll () in
  forget pid;
  status

let remove_file path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  files := List.filter (fun f -> f <> path) !files

let cleanup () =
  List.iter (fun pid -> ignore (reap ~grace:1.0 pid)) !live;
  List.iter remove_file !files

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Run [prog args] to completion and return its exit status and standard
   output. A child still running after [timeout] seconds is killed and
   reported as [Error]. *)
let run_capture ~timeout prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:wr prog args in
  Unix.close wr;
  let out = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let deadline = now () +. timeout in
  let rec pump () =
    let left = deadline -. now () in
    if left <= 0. then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> pump ()
      | _ -> (
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | k ->
              Buffer.add_subbytes out chunk 0 k;
              pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let finished = pump () in
  Unix.close rd;
  if finished then begin
    let status = wait_blocking pid in
    forget pid;
    match status with
    | Unix.WEXITED 0 -> Ok (Buffer.contents out)
    | st ->
        Error
          (Printf.sprintf "%s %s: %s" prog (String.concat " " args)
             (describe_status st))
  end
  else begin
    ignore (reap ~grace:0.5 pid);
    Error (Printf.sprintf "%s: no result within %.0fs" prog timeout)
  end

(* --- /proc ------------------------------------------------------------------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Peak resident set size (VmHWM in /proc/<pid>/status) of a process, in
   MiB. *)
let peak_rss_mb ?(pid = "self") () =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))

(* CPU time (user + system) of every thread of [pid], in seconds, from the
   nanosecond run-time counters of the scheduler. *)
let cpu_seconds pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | tasks ->
      Array.fold_left
        (fun acc tid ->
          match (acc, read_file (Printf.sprintf "%s/%s/schedstat" dir tid)) with
          | Some total, Some text -> (
              match Scanf.sscanf_opt text "%Ld" (fun ns -> ns) with
              | Some ns -> Some (total +. (Int64.to_float ns /. 1e9))
              | None -> None)
          | _ -> None)
        (Some 0.) tasks
