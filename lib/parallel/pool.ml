type domain_stat = {
  d_index : int;
  d_tasks : int;
  d_busy : float;
  d_wait : float;
  d_units : int;
}

(* One participant's counters: a worker's, or the caller entry that
   inline batches account into. All four are Atomics because the caller
   entry is shared by every driver that inlines at once; busy and wait
   are integer nanoseconds so they can be summed atomically too. *)
type wstat = {
  w_index : int;
  w_tasks : int Atomic.t;
  w_busy_ns : int Atomic.t;
  w_wait_ns : int Atomic.t;
  w_units : int Atomic.t;
}

(* A queued task, tagged with its batch's completion counter. Each [map]
   call owns a private counter (guarded by [t.m]), so several driver
   threads can have batches in flight on the same pool concurrently —
   a worker finishing a task decrements that task's own batch and wakes
   the drivers only when a whole batch drained. *)
type job = { run : wstat -> unit; batch : int ref (* guarded by [m] *) }

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t; (* signalled when tasks are queued or on shutdown *)
  idle : Condition.t; (* broadcast whenever some batch fully completes *)
  q : job Queue.t;
  mutable closed : bool;
  stats : wstat array; (* the workers, then the caller entry *)
  caller : wstat; (* the last entry of [stats]: inline tasks' slot *)
  mutable doms : unit Domain.t array; (* [||] for an inline pool *)
  residual : int Atomic.t; (* units credited from outside any task *)
}

let now () = Unix.gettimeofday ()

let ns_since t0 = int_of_float ((now () -. t0) *. 1e9)

let add a n = ignore (Atomic.fetch_and_add a n)

let fresh_wstat i =
  {
    w_index = i;
    w_tasks = Atomic.make 0;
    w_busy_ns = Atomic.make 0;
    w_wait_ns = Atomic.make 0;
    w_units = Atomic.make 0;
  }

(* The participant running a task on this domain, set for the task's
   duration: what [add_units] credits. A worker sets it once for its
   life; an inline batch sets the caller entry and restores the previous
   value, so a task that maps on another pool nests correctly. *)
let running : wstat option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Run [f], accounting it to [ws] (the task's exception is caught, as
   [map] reports it after the whole batch). *)
let run_task ws f i =
  let t0 = now () in
  let r = try Ok (f i) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  add ws.w_busy_ns (ns_since t0);
  add ws.w_tasks 1;
  r

(* Worker body: wait for a task (counting the wait), run it, account,
   repeat until shutdown. *)
let rec worker_loop t ws =
  Mutex.lock t.m;
  let t0 = now () in
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.work t.m
  done;
  add ws.w_wait_ns (ns_since t0);
  if Queue.is_empty t.q then Mutex.unlock t.m (* closed: drain and exit *)
  else begin
    let job = Queue.pop t.q in
    Mutex.unlock t.m;
    job.run ws;
    Mutex.lock t.m;
    job.batch := !(job.batch) - 1;
    if !(job.batch) = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.m;
    worker_loop t ws
  end

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "invalid job count %S (expected an integer)" s)
  | Some n when n < 1 ->
      Error (Printf.sprintf "invalid job count %d (must be >= 1)" n)
  | Some n -> Ok n

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let n_workers = if jobs = 1 then 0 else jobs in
  let stats = Array.init (n_workers + 1) fresh_wstat in
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      q = Queue.create ();
      closed = false;
      stats;
      caller = stats.(n_workers);
      doms = [||];
      residual = Atomic.make 0;
    }
  in
  t.doms <-
    Array.init n_workers (fun i ->
        Domain.spawn (fun () ->
            let ws = t.stats.(i) in
            Domain.DLS.set running (Some ws);
            worker_loop t ws));
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

let check_open t =
  (* under [t.m]: serializes against a concurrent [shutdown] flipping
     the flag mid-check *)
  Mutex.lock t.m;
  let closed = t.closed in
  Mutex.unlock t.m;
  if closed then invalid_arg "Pool.map: pool is shut down"

let map t ~f n =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  check_open t;
  Tea_telemetry.Probe.with_span "pool.map"
    ~args:[ ("tasks", string_of_int n); ("jobs", string_of_int t.jobs) ]
  @@ fun () ->
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then begin
    (* inline when the pool has no workers or the batch has one task: a
       lone task would only trade the caller's time for two cross-domain
       wake-ups while the caller sleeps, so it runs here, accounted to
       the caller entry *)
    let prev = Domain.DLS.get running in
    Domain.DLS.set running (Some t.caller);
    let results = Array.init n (fun i -> Some (run_task t.caller f i)) in
    Domain.DLS.set running prev;
    reraise_first results
  end
  else begin
    let results = Array.make n None in
    (* per-batch completion counter: this map waits on its own batch
       only, so concurrent maps from other driver threads neither wake
       us spuriously-complete nor absorb our completions *)
    let batch = ref n in
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add
        { run = (fun ws -> results.(i) <- Some (run_task ws f i)); batch }
        t.q
    done;
    Condition.broadcast t.work;
    (* Wait for this batch. The workers' writes into [results] happen
       before their final [batch] decrement under [t.m], so observing
       [!batch = 0] here orders every result before our reads. [idle] is
       a broadcast shared by all in-flight batches; each driver re-checks
       its own counter. *)
    while !batch > 0 do
      Condition.wait t.idle t.m
    done;
    Mutex.unlock t.m;
    reraise_first results
  end

let map_list t f xs =
  let arr = Array.of_list xs in
  Array.to_list (map t ~f:(fun i -> f arr.(i)) (Array.length arr))

let add_units t n =
  match Domain.DLS.get running with
  | Some ws when ws.w_index < Array.length t.stats && t.stats.(ws.w_index) == ws
    ->
      add ws.w_units n
  | _ -> add t.residual n

(* Idempotent under concurrency: the closed check and the [doms] grab
   both happen under [t.m], so exactly one caller observes the open pool
   and owns the join — a second concurrent caller sees [closed] already
   set (or [doms] already emptied) and returns without double-joining. *)
let shutdown t =
  Mutex.lock t.m;
  if t.closed then Mutex.unlock t.m
  else begin
    t.closed <- true;
    Condition.broadcast t.work;
    let doms = t.doms in
    t.doms <- [||];
    Mutex.unlock t.m;
    Array.iter Domain.join doms
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let domain_stats t =
  Array.to_list
    (Array.map
       (fun ws ->
         {
           d_index = ws.w_index;
           d_tasks = Atomic.get ws.w_tasks;
           d_busy = float_of_int (Atomic.get ws.w_busy_ns) /. 1e9;
           d_wait = float_of_int (Atomic.get ws.w_wait_ns) /. 1e9;
           d_units = Atomic.get ws.w_units;
         })
       t.stats)

let residual_units t = Atomic.get t.residual

(* The per-domain counters as a telemetry snapshot: entry indices are
   zero-padded so the rendered rows sort numerically, and the wall-clock
   nanoseconds become integer microsecond counters (the snapshot algebra
   is integer sums). These stay out of the {!Tea_telemetry.Probe}
   registry on purpose — busy/wait are wall-clock and would break the
   determinism of the probe counters a [--jobs n] run must share with
   [--jobs 1]. *)
let metrics_snapshot t =
  let m = Tea_telemetry.Metrics.create () in
  Tea_telemetry.Metrics.count m "pool.jobs" t.jobs;
  Array.iter
    (fun ws ->
      let pre = Printf.sprintf "pool.domain%02d." ws.w_index in
      Tea_telemetry.Metrics.count m (pre ^ "tasks") (Atomic.get ws.w_tasks);
      Tea_telemetry.Metrics.count m (pre ^ "busy_us")
        (Atomic.get ws.w_busy_ns / 1000);
      Tea_telemetry.Metrics.count m (pre ^ "wait_us")
        (Atomic.get ws.w_wait_ns / 1000);
      Tea_telemetry.Metrics.count m (pre ^ "units") (Atomic.get ws.w_units))
    t.stats;
  Tea_telemetry.Metrics.count m "pool.residual_units" (Atomic.get t.residual);
  Tea_telemetry.Metrics.snapshot m
