type domain_stat = { d_busy : float }

(* A queued task, tagged with its batch's completion counter. Each [map]
   call owns a private counter (guarded by [t.m]), so several drivers can
   have batches in flight on the same pool at once; whoever finishes a
   batch's last task wakes the drivers. *)
type job = { run : unit -> unit; batch : int ref (* guarded by [m] *) }

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t; (* signalled when tasks are queued or on shutdown *)
  idle : Condition.t; (* broadcast whenever some batch fully completes *)
  q : job Queue.t;
  mutable closed : bool;
  busy : int Atomic.t array;
      (* nanoseconds inside tasks: one per worker, then the callers' *)
  mutable doms : unit Domain.t array;
}

(* The runtime runs at most 128 domains: the main one, the daemon's
   retune builder and 126 more. *)
let max_jobs = 126

let now () = Unix.gettimeofday ()

(* Pop the queue's head and run it, crediting its time to [busy];
   called and returning with [t.m] held. *)
let run_next t busy =
  let job = Queue.pop t.q in
  Mutex.unlock t.m;
  let t0 = now () in
  job.run ();
  ignore (Atomic.fetch_and_add busy (int_of_float ((now () -. t0) *. 1e9)));
  Mutex.lock t.m;
  decr job.batch;
  if !(job.batch) = 0 then Condition.broadcast t.idle

(* A worker leaves at shutdown; a task still queued then is run by the
   caller that queued it. *)
let worker t busy () =
  Mutex.lock t.m;
  while not t.closed do
    if Queue.is_empty t.q then Condition.wait t.work t.m else run_next t busy
  done;
  Mutex.unlock t.m

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "invalid job count %S (expected an integer)" s)
  | Some n when n < 1 ->
      Error (Printf.sprintf "invalid job count %d (must be >= 1)" n)
  | Some n when n > max_jobs ->
      Error
        (Printf.sprintf
           "invalid job count %d (at most %d: the runtime runs at most 128 \
            domains, the main one and the retune builder among them)"
           n max_jobs)
  | Some n -> Ok n

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs must be <= %d (the runtime's domain limit)"
         max_jobs);
  (* A batch wakes at most [jobs - 1] workers, so one of these is spare
     unless several drivers map at once. It stays while the benchmark's
     calibration kernel slows with every domain asleep in the process:
     one fewer reads as offline rows 15-40% slower (ROADMAP item 2). *)
  let workers = if jobs = 1 then 0 else jobs in
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      q = Queue.create ();
      closed = false;
      busy = Array.init (workers + 1) (fun _ -> Atomic.make 0);
      doms = [||];
    }
  in
  t.doms <- Array.init workers (fun i -> Domain.spawn (worker t t.busy.(i)));
  t

let jobs t = t.jobs

let reraise_first results =
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.map
    (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
    results

let map t ~f n =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  Tea_telemetry.Probe.with_span "pool.map"
    ~args:[ ("tasks", string_of_int n); ("jobs", string_of_int t.jobs) ]
  @@ fun () ->
  let results = Array.make n None in
  let batch = ref n in
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.map: pool is shut down"
  end;
  for i = 0 to n - 1 do
    let run () =
      results.(i) <-
        Some (try Ok (f i) with e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    Queue.add { run; batch } t.q
  done;
  (* the caller is the last participant: it runs tasks too, so at most
     [n - 1] workers are woken *)
  for _ = 2 to min n t.jobs do
    Condition.signal t.work
  done;
  (* Tasks run elsewhere write their results before their batch
     decrement under [t.m], so [!batch = 0] seen here orders every
     result before our reads. [idle] is shared by all in-flight
     batches; each caller re-checks its own counter. *)
  while !batch > 0 do
    if Queue.is_empty t.q then Condition.wait t.idle t.m
    else run_next t t.busy.(Array.length t.busy - 1)
  done;
  Mutex.unlock t.m;
  reraise_first results

let map_list t f xs =
  let arr = Array.of_list xs in
  Array.to_list (map t ~f:(fun i -> f arr.(i)) (Array.length arr))

(* Idempotent under concurrency: the closed flag and the [doms] grab
   both happen under [t.m], so exactly one caller owns the join. *)
let shutdown t =
  Mutex.lock t.m;
  let doms = t.doms in
  t.closed <- true;
  t.doms <- [||];
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  Array.iter Domain.join doms

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let domain_stats t =
  Array.to_list
    (Array.map (fun b -> { d_busy = float_of_int (Atomic.get b) /. 1e9 }) t.busy)
