(* A fixed-size domain pool with per-worker work-stealing deques.

   Tasks are coarse (a whole route shard of the server search), so a single
   pool-wide mutex around the deques is plenty: contention is a handful of
   lock acquisitions per task, nothing against the seconds of solver work
   inside one. Workers pop their own deque newest-first (LIFO keeps a
   worker on the subtree it just split) and steal oldest-first from their
   siblings (FIFO takes the biggest remaining chunk). *)

module Obs = Achilles_obs.Obs

module Deque = struct
  type 'a t = {
    mutable front : 'a list; (* oldest first *)
    mutable back : 'a list; (* newest first *)
  }

  let create () = { front = []; back = [] }
  let push_back d x = d.back <- x :: d.back

  let pop_back d =
    match d.back with
    | x :: rest ->
        d.back <- rest;
        Some x
    | [] -> (
        match List.rev d.front with
        | [] -> None
        | x :: rest ->
            (* [x] is the newest of [front]; keep the rest as the new back *)
            d.front <- [];
            d.back <- rest;
            Some x)

  let pop_front d =
    match d.front with
    | x :: rest ->
        d.front <- rest;
        Some x
    | [] -> (
        match List.rev d.back with
        | [] -> None
        | x :: rest ->
            d.front <- rest;
            d.back <- [];
            Some x)
end

type task = { run : unit -> unit; index : int }

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t; (* workers sleep here waiting for tasks *)
  batch_done : Condition.t; (* the submitter sleeps here *)
  deques : task Deque.t array;
  mutable outstanding : int;
  mutable in_flight : bool;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let size p = p.size

(* Called with [p.mutex] held. *)
let find_task p w =
  match Deque.pop_back p.deques.(w) with
  | Some t -> Some t
  | None ->
      let rec steal k =
        if k = p.size then None
        else
          match Deque.pop_front p.deques.((w + k) mod p.size) with
          | Some t ->
              Obs.count "pool.tasks_stolen";
              Some t
          | None -> steal (k + 1)
      in
      steal 1

let record_failure p index exn bt =
  match p.failure with
  | Some (i, _, _) when i <= index -> ()
  | _ -> p.failure <- Some (index, exn, bt)

(* Run [task] and account for it. Called with [p.mutex] held, which is
   released while the task runs. *)
let execute p task =
  Mutex.unlock p.mutex;
  Obs.count "pool.tasks_executed";
  let failed =
    try
      task.run ();
      None
    with exn -> Some (exn, Printexc.get_raw_backtrace ())
  in
  Mutex.lock p.mutex;
  (match failed with
  | Some (exn, bt) -> record_failure p task.index exn bt
  | None -> ());
  p.outstanding <- p.outstanding - 1;
  if p.outstanding = 0 then Condition.broadcast p.batch_done

let worker_loop p w =
  Mutex.lock p.mutex;
  let rec loop () =
    if p.stopping then Mutex.unlock p.mutex
    else
      match find_task p w with
      | None ->
          Condition.wait p.work_ready p.mutex;
          loop ()
      | Some task ->
          execute p task;
          loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let p =
    {
      size = domains;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      deques = Array.init domains (fun _ -> Deque.create ());
      outstanding = 0;
      in_flight = false;
      failure = None;
      stopping = false;
      workers = [||];
    }
  in
  (* worker 0 is the submitting domain itself (see [run_tasks]) *)
  p.workers <-
    Array.init (domains - 1) (fun w ->
        Domain.spawn (fun () -> worker_loop p (w + 1)));
  p

let run_tasks p fs =
  let n = Array.length fs in
  if n = 0 then ()
  else begin
    Mutex.lock p.mutex;
    if p.stopping then begin
      Mutex.unlock p.mutex;
      invalid_arg "Pool.run_tasks: pool is shut down"
    end;
    if p.in_flight then begin
      Mutex.unlock p.mutex;
      invalid_arg "Pool.run_tasks: a batch is already in flight"
    end;
    p.in_flight <- true;
    p.failure <- None;
    Array.iteri
      (fun i run -> Deque.push_back p.deques.(i mod p.size) { run; index = i })
      fs;
    p.outstanding <- n;
    Condition.broadcast p.work_ready;
    (* the submitter works the batch as worker 0 until every deque is dry,
       then waits for the tasks still running on sibling domains *)
    while p.outstanding > 0 do
      match find_task p 0 with
      | Some task -> execute p task
      | None -> Condition.wait p.batch_done p.mutex
    done;
    let failure = p.failure in
    p.failure <- None;
    p.in_flight <- false;
    Mutex.unlock p.mutex;
    match failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let parallel_map p f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_tasks p (Array.init n (fun i () -> results.(i) <- Some (f arr.(i))));
    Array.map (function Some r -> r | None -> assert false) results
  end

type 'b outcome = { result : ('b, exn) result; attempts : int }

(* Fault-isolated variant of [parallel_map]: a task that raises is retried
   in place (with a backoff sleep inside the worker — tasks are coarse, so
   occupying the worker for the sleep is cheaper than re-enqueueing) and,
   once the retry cap is spent, recorded as [Error] in its slot instead of
   aborting the batch. The batch itself never raises. *)
let map_with_retries ?(retries = 2)
    ?(backoff = fun attempt -> 0.05 *. (2. ** float_of_int attempt)) p f arr =
  if retries < 0 then invalid_arg "Pool.map_with_retries: negative retries";
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_tasks p
      (Array.init n (fun i () ->
           let rec attempt k =
             match f arr.(i) with
             | v -> results.(i) <- Some { result = Ok v; attempts = k + 1 }
             | exception exn ->
                 if k < retries then begin
                   Obs.count "pool.task_retries";
                   let pause = backoff k in
                   if pause > 0. then Unix.sleepf pause;
                   attempt (k + 1)
                 end
                 else
                   results.(i) <- Some { result = Error exn; attempts = k + 1 }
           in
           attempt 0));
    Array.map (function Some r -> r | None -> assert false) results
  end

let shutdown p =
  Mutex.lock p.mutex;
  if p.stopping then Mutex.unlock p.mutex
  else begin
    p.stopping <- true;
    Condition.broadcast p.work_ready;
    Mutex.unlock p.mutex;
    Array.iter Domain.join p.workers;
    p.workers <- [||]
  end

let with_pool ~domains f =
  let p = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
