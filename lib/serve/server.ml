module Core = Tea_core
module P = Tea_parallel
module Metrics = Tea_telemetry.Metrics

(* One connected client. The driver owns [fd]/[parser_] and queues each
   data frame's payload, undecoded, on [pending]; a drain task decodes
   [pending] through [dec] straight into [multi] during a
   bulk-synchronous map cycle. A cycle with one ready session runs its
   task on the driver itself; with several, pool workers run them while
   the driver is blocked inside [Pool.map] for the whole cycle. Either
   way queue, decoder and replayer are never touched from two threads at
   once, and the pool's mutex orders cycle N's worker against cycle
   N+1's. *)
type session = {
  id : int;  (* 1-based accept order, for the event log *)
  fd : Unix.file_descr;
  parser_ : Frame.parser_;
  dec : Core.Pc_trace.decoder;  (* worker-side: holds a record cut at a payload end *)
  multi : Core.Multi_replayer.t;
  fdr : Core.Multi_replayer.feeder;  (* batches drain-cycle events *)
  pending : string Queue.t;  (* data payloads not yet decoded, in order *)
  mutable pending_bytes : int;  (* their total length: the queue-depth gauge *)
  raw : Buffer.t option;  (* bytes kept for the offline differential *)
  epoch0 : int;  (* image epoch the session was accepted under *)
  mutable evs : int;  (* events decoded so far (swap-schedule positions) *)
  mutable swapped : (int * int) list;  (* (event index, new epoch), newest first *)
  mutable ended : bool;  (* end-of-stream frame received *)
  mutable failed : string option;  (* first fatal error; session is dropped *)
  mutable scrape : bool;  (* a metrics observer, not a replay session *)
  mutable counted : bool;  (* bumped serve.sessions_accepted yet? *)
  mutable opened : bool;  (* session_open event emitted yet? *)
  mutable bytes_in : int;
  mutable blocks : int;
  mutable busy_ns : int;  (* wall time inside drain tasks *)
}

(* Closed-loop retune knobs: how the daemon turns a sustained drift
   crossing into a background rebuild and a hot swap. *)
type retune = {
  up : int;  (* consecutive over-threshold sessions before a rebuild *)
  cooldown : int;  (* sessions ignored by the trigger after a swap *)
}

let default_retune =
  {
    up = Tea_observe.Trigger.default_up;
    cooldown = Tea_observe.Trigger.default_cooldown;
  }

type t = {
  mutable image : Core.Packed.t;  (* current epoch's dispatch image *)
  pool : P.Pool.t;
  offline_check : bool;  (* keep streams and epoch images for the oracle *)
  base : Core.Packed.t option;  (* flat source image for rebuilds *)
  trigger : Tea_observe.Trigger.t option;  (* Some iff the closed loop is on *)
  listen_fd : Unix.file_descr;
  bound : Frame.addr;
  unix_path : string option;
  stop_r : Unix.file_descr;  (* self-pipe: [stop] wakes a blocking select *)
  stop_w : Unix.file_descr;
  reg : Metrics.t;  (* driver-only; workers account into session fields *)
  events : Tea_observe.Events.t option;  (* None = no-op event log *)
  mutable drift : Tea_observe.Drift.t option;  (* None = no drift monitor *)
  mutable drift_over : bool;  (* above threshold at last measurement? *)
  mutable epoch : int;  (* 0 = boot image; bumped by every swap *)
  mutable epoch_images : (int * Core.Packed.t) list;  (* offline_check *)
  mutable builder : Tea_opt.Retune.builder option;  (* rebuild in flight *)
  mutable fleet_gen : int;  (* bumped per completion; trigger tick unit *)
  mutable checked_gen : int;  (* fleet_gen last observed by the trigger *)
  mutable swap_pause_ns : int;  (* cumulative wall time inside swaps *)
  mutable drain_ns : int;  (* busy ns over completed sessions *)
  mutable drain_blocks : int;  (* blocks over completed sessions *)
  mutable sessions : session list;
  mutable next_id : int;  (* monotonic session ids for the event log *)
  mutable accepted : int;
  mutable completed_n : int;
  mutable disconnected_n : int;
  fleet_m : Mutex.t;
  mutable fleet : P.Profile.t;
  fleet_edges : int array;  (* completed sessions' counters, summed *)
  mutable retained : (string * int * (int * int) list) list;
      (* offline_check only — completed streams, newest first: raw bytes,
         accept epoch, and the (event index, new epoch) swap schedule
         oldest-first — the recipe the offline differential needs to
         replay the exact same image at the exact same stream positions *)
  mutable closed : bool;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Per-asid replayer factory for a session's demuxed replay. Every
   session (and the offline re-check) compiles its own dup of the shared
   image, so compiled images — single-domain by construction — are never
   shared across sessions or workers. *)
let factory_of img _asid =
  Core.Replayer.create_compiled (Core.Compiled.of_packed (Core.Packed.dup img))

let max_session_asids = 256

exception Too_many_address_spaces

(* A session's factory builds on the image current when its asid first
   runs a block, and refuses the asid past the cap: every asid costs a
   compiled image and a run buffer, so one session cannot make the daemon
   hold an unbounded number of them. *)
let session_factory t =
  let asids = ref 0 in
  fun asid ->
    if !asids = max_session_asids then raise Too_many_address_spaces;
    incr asids;
    factory_of t.image asid

let create ?(offline_check = false) ?events ?drift ?base ?retune ~jobs ~image
    addr =
  (match (retune, drift, base) with
  | Some _, None, _ ->
      invalid_arg "Server.create: retune requires a drift monitor"
  | Some _, _, None ->
      invalid_arg "Server.create: retune requires the flat base image"
  | _ -> ());
  (* a dead client mid-write must be an EPIPE, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let unix_path =
    match addr with Frame.Unix_sock p -> Some p | Frame.Tcp _ -> None
  in
  (match unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  let dom =
    match addr with
    | Frame.Unix_sock _ -> Unix.PF_UNIX
    | Frame.Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket dom Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Frame.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
     | Frame.Unix_sock _ -> ());
     Unix.bind listen_fd (Frame.sockaddr_of_addr addr);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound =
    match addr with
    | Frame.Tcp (host, _) -> (
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, port) -> Frame.Tcp (host, port)
        | _ -> addr)
    | a -> a
  in
  let stop_r, stop_w = Unix.pipe () in
  {
    image;
    pool = P.Pool.create ~jobs;
    offline_check;
    base;
    trigger =
      (match retune with
      | None -> None
      | Some r ->
          Some (Tea_observe.Trigger.create ~up:r.up ~cooldown:r.cooldown ()));
    listen_fd;
    bound;
    unix_path;
    stop_r;
    stop_w;
    reg = Metrics.create ();
    events;
    drift;
    drift_over = false;
    epoch = 0;
    epoch_images = (if offline_check then [ (0, image) ] else []);
    builder = None;
    fleet_gen = 0;
    checked_gen = 0;
    swap_pause_ns = 0;
    drain_ns = 0;
    drain_blocks = 0;
    sessions = [];
    next_id = 0;
    accepted = 0;
    completed_n = 0;
    disconnected_n = 0;
    fleet_m = Mutex.create ();
    fleet = P.Profile.empty;
    fleet_edges = Array.make (Core.Packed.n_counters image) 0;
    retained = [];
    closed = false;
  }

let addr t = t.bound

(* ---- observability (driver thread) ---- *)

let fleet_profile t =
  Mutex.lock t.fleet_m;
  let p = t.fleet in
  Mutex.unlock t.fleet_m;
  p

let metrics t =
  Metrics.merge (Metrics.snapshot t.reg) (P.Pool.metrics_snapshot t.pool)

let drift_distance t =
  match t.drift with
  | None -> None
  | Some d ->
      let fleet = fleet_profile t in
      Some
        ( Tea_observe.Drift.measure d fleet.P.Profile.counts,
          Tea_observe.Drift.threshold d )

(* Completed sessions' dispatch tiers, read off their summed counters:
   original ids, so the same rows on every epoch's layout. *)
let tiers t = Core.Tierstat.of_counters t.image t.fleet_edges

(* The scrape answer, also readable after [run] returns. Reads only
   driver-owned or mutex/merge-protected state (registry, pool snapshot,
   the fleet counters, the fleet), so rendering between drain cycles
   never pauses ingestion. Deterministic: a function of the snapshots
   alone, so the post-run scrape text equals this rendered after
   shutdown byte-for-byte. *)
let exposition t =
  Tea_observe.Exposition.render ~tiers:(tiers t)
    ?drift:(drift_distance t)
    ?epoch:(Option.map (fun _ -> t.epoch) t.trigger)
    (metrics t)

let emit_ev t kind fields =
  match t.events with
  | None -> ()
  | Some e -> Tea_observe.Events.emit e kind fields

(* Re-measure drift against the fleet and event the threshold crossing
   (upward edge only; dropping back below re-arms it). The crossing
   event depends on completion order, so it lives in the event log only
   — the exposition gauge is a pure function of the final fleet. *)
let drift_check t =
  match t.drift with
  | None -> ()
  | Some d ->
      let dist =
        Tea_observe.Drift.measure d (fleet_profile t).P.Profile.counts
      in
      if Tea_observe.Drift.exceeded d dist then begin
        if not t.drift_over then
          emit_ev t "drift_threshold"
            [
              ("distance", Tea_observe.Events.F dist);
              ("threshold", Tea_observe.Events.F (Tea_observe.Drift.threshold d));
            ];
        t.drift_over <- true
      end
      else t.drift_over <- false

(* ---- ingestion (driver thread) ---- *)

let fail_session s msg = if s.failed = None then s.failed <- Some msg

(* Deferred accounting: a connection only counts as an accepted session
   once its first frame proves it is one. Scrape connections are pure
   observers — they bump no counter and emit no event, so a scrape can
   never perturb the exposition it returns (post-run scrape text ==
   offline exposition is a hard test). *)
let count_session t s =
  if not s.counted then begin
    s.counted <- true;
    Metrics.count t.reg "serve.sessions_accepted" 1
  end

let on_frame t s (f : Frame.frame) =
  if s.scrape then () (* observer: ignore anything after the scrape ask *)
  else if f.Frame.tag = Frame.tag_scrape && s.bytes_in = 0 && not s.ended
  then begin
    s.scrape <- true;
    try Frame.send s.fd Frame.tag_metrics (exposition t)
    with Unix.Unix_error _ | Sys_error _ -> ()
  end
  else begin
    count_session t s;
    Metrics.count t.reg "serve.frames" 1;
    if s.ended then fail_session s "frame after end-of-stream"
    else if f.Frame.tag = Frame.tag_data then begin
      if not s.opened then begin
        s.opened <- true;
        emit_ev t "session_open" [ ("session", Tea_observe.Events.I s.id) ]
      end;
      let n = String.length f.payload in
      s.bytes_in <- s.bytes_in + n;
      Metrics.count t.reg "serve.bytes_in" n;
      (match s.raw with
      | Some b -> Buffer.add_string b f.payload
      | None -> ());
      if n > 0 then begin
        Queue.push f.payload s.pending;
        s.pending_bytes <- s.pending_bytes + n
      end
    end
    else if f.Frame.tag = Frame.tag_end then s.ended <- true
    else fail_session s (Printf.sprintf "unexpected frame tag %C" f.Frame.tag)
  end

let read_session t chunk s =
  match Unix.read s.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      fail_session s "connection reset"
  | 0 -> if not s.ended then fail_session s "eof before end-of-stream"
  | k -> (
      (* no copy of the read: the parser copies [chunk] into its own
         buffer before returning and hands out each payload as a fresh
         string, so nothing aliases [chunk] when the next read reuses it *)
      try Frame.parser_feed s.parser_ ~len:k (Bytes.unsafe_to_string chunk) (on_frame t s)
      with Frame.Corrupt msg -> fail_session s ("bad framing: " ^ msg))

let accept_limit_reached t until_sessions =
  match until_sessions with Some n -> t.accepted >= n | None -> false

let rec accept_all t until_sessions =
  if not (accept_limit_reached t until_sessions) then
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        accept_all t until_sessions
    | fd, _ ->
        t.accepted <- t.accepted + 1;
        t.next_id <- t.next_id + 1;
        let multi = Core.Multi_replayer.create (session_factory t) in
        let s =
          {
            id = t.next_id;
            fd;
            parser_ = Frame.parser_ ();
            dec = Core.Pc_trace.decoder ();
            multi;
            (* run buffers of at most 256 words are minor-heap
               allocations: a session's buffers then die young instead
               of cycling the major GC, which no longer has kept streams
               to amortize against *)
            fdr = Core.Multi_replayer.feeder ~buf:256 multi;
            pending = Queue.create ();
            pending_bytes = 0;
            raw = (if t.offline_check then Some (Buffer.create 4096) else None);
            epoch0 = t.epoch;
            evs = 0;
            swapped = [];
            ended = false;
            failed = None;
            scrape = false;
            counted = false;
            opened = false;
            bytes_in = 0;
            blocks = 0;
            busy_ns = 0;
          }
        in
        t.sessions <- t.sessions @ [ s ];
        accept_all t until_sessions

(* ---- replay (drain tasks, bulk-synchronous) ---- *)

(* One session's task, on a pool worker or, when it is the cycle's only
   ready session, on the driver: decode its queued payloads straight
   into its feeder, then flush, so a completed session's profile is
   always fully materialized. Its blocks are credited to whichever pool
   entry ran it. The feeder batches consecutive same-asid blocks through
   Replayer.feed_run — the same engine loops (and the same dispatch-tier
   attribution) offline replay takes. [evs] numbers stream positions for
   the swap schedule; swaps happen only between cycles, when every queued
   payload has been decoded, so the count is exact there. *)
let drain_session t s =
  let t0 = now_ns () in
  let n = ref 0 in
  (try
     while not (Queue.is_empty s.pending) do
       let evs, blocks =
         Core.Multi_replayer.feeder_decode s.fdr s.dec (Queue.pop s.pending)
       in
       s.evs <- s.evs + evs;
       n := !n + blocks
     done;
     Core.Multi_replayer.feeder_flush s.fdr
   with
   (* the queued payloads precede, in the stream, whatever failure the
      driver may have seen since, so the corrupt record is the error to
      report *)
   | Core.Pc_trace.Corrupt msg -> s.failed <- Some ("corrupt trace: " ^ msg)
   | Too_many_address_spaces ->
       fail_session s
         (Printf.sprintf "too many address spaces (at most %d per session)"
            max_session_asids)
   | e -> fail_session s ("replay error: " ^ Printexc.to_string e));
  Queue.clear s.pending;
  s.pending_bytes <- 0;
  P.Pool.add_units t.pool !n;
  s.blocks <- s.blocks + !n;
  s.busy_ns <- s.busy_ns + (now_ns () - t0)

let drain_cycle t =
  let ready = List.filter (fun s -> s.pending_bytes > 0) t.sessions in
  if ready <> [] then begin
    let arr = Array.of_list ready in
    Array.iter
      (fun s ->
        Metrics.observe_value t.reg "serve.queue_depth" s.pending_bytes)
      arr;
    ignore
      (P.Pool.map t.pool
         ~f:(fun i -> drain_session t arr.(i))
         (Array.length arr))
  end

(* ---- completion / disconnect (driver thread) ---- *)

let drop t s msg =
  (* a connection that died before any frame still counts: it was a
     (failed) session, not a scrape *)
  count_session t s;
  (try Frame.send s.fd Frame.tag_error msg
   with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  t.disconnected_n <- t.disconnected_n + 1;
  Metrics.count t.reg "serve.disconnects" 1;
  emit_ev t "session_abort"
    [ ("session", Tea_observe.Events.I s.id); ("reason", Tea_observe.Events.S msg) ]

let complete t s =
  let prof =
    P.Profile.merge_all
      (List.map snd (Core.Multi_replayer.snapshots s.multi))
  in
  Mutex.lock t.fleet_m;
  t.fleet <- P.Profile.merge t.fleet prof;
  Mutex.unlock t.fleet_m;
  Core.Multi_replayer.add_edge_counts s.multi t.fleet_edges;
  t.completed_n <- t.completed_n + 1;
  t.fleet_gen <- t.fleet_gen + 1;
  t.drain_ns <- t.drain_ns + s.busy_ns;
  t.drain_blocks <- t.drain_blocks + s.blocks;
  (match s.raw with
  | Some b ->
      t.retained <-
        (Buffer.contents b, s.epoch0, List.rev s.swapped) :: t.retained
  | None -> ());
  Metrics.count t.reg "serve.sessions_completed" 1;
  Metrics.count t.reg "serve.blocks" s.blocks;
  Metrics.observe_value t.reg "serve.session_bytes" s.bytes_in;
  Metrics.observe_value t.reg "serve.session_blocks" s.blocks;
  if s.blocks > 0 then
    Metrics.observe_value t.reg "serve.session_ns_per_block"
      (s.busy_ns / s.blocks);
  emit_ev t "session_close"
    [
      ("session", Tea_observe.Events.I s.id);
      ("bytes", Tea_observe.Events.I s.bytes_in);
      ("blocks", Tea_observe.Events.I s.blocks);
    ];
  drift_check t;
  (try Frame.send s.fd Frame.tag_profile (Frame.encode_profile prof)
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close s.fd with Unix.Unix_error _ -> ()

let finalize t =
  let live = ref [] in
  List.iter
    (fun s ->
      if s.scrape then begin
        (* an answered observer: close and vanish — it never counted as
           a session, so give its accept slot back *)
        (try Unix.close s.fd with Unix.Unix_error _ -> ());
        t.accepted <- t.accepted - 1
      end
      else
        match s.failed with
        | Some msg -> drop t s msg
        | None ->
            (* [drain_cycle] has decoded every queued payload *)
            if s.ended then
              match Core.Pc_trace.decoder_finish s.dec with
              | () -> complete t s
              | exception Core.Pc_trace.Corrupt msg ->
                  drop t s ("corrupt trace: " ^ msg)
            else live := s :: !live)
    t.sessions;
  t.sessions <- List.rev !live

(* ---- closed-loop retune (driver thread) ---- *)

(* Install a freshly built image as the next epoch. Runs between drain
   cycles, which is what makes it safe and exact: every queued payload is
   decoded and every feeder flushed, so each session's [evs] counter is
   precisely the stream position the swap lands on — recorded in the
   schedule the offline differential replays (the new image is kept for
   it only under offline_check). Live replayers are rebound in place
   (orig-id counters, stats and cycles carried over, the state
   translated), and the drift monitor is re-referenced to the profile
   the new layout was tuned for, so the gauge measures staleness of the
   {e current} image, not the boot one. *)
let swap_image t (img, prof) =
  let t0 = now_ns () in
  t.epoch <- t.epoch + 1;
  t.image <- img;
  if t.offline_check then t.epoch_images <- (t.epoch, img) :: t.epoch_images;
  let rebound = ref 0 in
  List.iter
    (fun s ->
      if (not s.scrape) && s.failed = None then begin
        (* asids that appear later build on [t.image] already *)
        Core.Multi_replayer.rebind s.multi (factory_of img);
        s.swapped <- (s.evs, t.epoch) :: s.swapped;
        incr rebound
      end)
    t.sessions;
  (match t.drift with
  | Some d ->
      t.drift <-
        Some
          (Tea_observe.Drift.create ~k:(Tea_observe.Drift.k d)
             ~threshold:(Tea_observe.Drift.threshold d)
             (Tea_opt.Repack.visit_counts prof));
      t.drift_over <- false
  | None -> ());
  let pause = now_ns () - t0 in
  t.swap_pause_ns <- t.swap_pause_ns + pause;
  Metrics.count t.reg "serve.swaps" 1;
  emit_ev t "swap"
    [
      ("epoch", Tea_observe.Events.I t.epoch);
      ("sessions", Tea_observe.Events.I !rebound);
      ("pause_ns", Tea_observe.Events.I pause);
    ]

(* One retune tick, between drain cycles: harvest a finished background
   rebuild (and swap), then — one observation per completed session, so
   hysteresis is measured in sessions, not select wakeups — ask the
   trigger whether to launch the next rebuild over a copy of the fleet's
   edge counters so far. *)
let retune_tick t =
  match t.trigger with
  | Some trig ->
      (match t.builder with
      | Some b -> (
          match Tea_opt.Retune.poll b with
          | None -> ()
          | Some (Error e) ->
              t.builder <- None;
              emit_ev t "retune_failed"
                [ ("error", Tea_observe.Events.S (Printexc.to_string e)) ]
          | Some (Ok built) ->
              t.builder <- None;
              swap_image t built)
      | None -> ());
      if Option.is_none t.builder && t.fleet_gen > t.checked_gen then begin
        let ticks = t.fleet_gen - t.checked_gen in
        t.checked_gen <- t.fleet_gen;
        match t.drift with
        | None -> ()
        | Some d ->
            let dist =
              Tea_observe.Drift.measure d (fleet_profile t).P.Profile.counts
            in
            let over = Tea_observe.Drift.exceeded d dist in
            let fire = ref false in
            for _ = 1 to ticks do
              if Tea_observe.Trigger.observe trig over then fire := true
            done;
            if !fire then begin
              let counts = Array.copy t.fleet_edges in
              let base = Option.get t.base in
              emit_ev t "retune_start"
                [
                  ("distance", Tea_observe.Events.F dist);
                  ("streams", Tea_observe.Events.I t.completed_n);
                ];
              Metrics.count t.reg "serve.retunes" 1;
              t.builder <-
                Some
                  (Tea_opt.Retune.launch (fun () ->
                       let profile = Core.Packed.edge_profile base counts in
                       (Tea_opt.Retune.build ~profile base, profile)))
            end
      end
  | None -> ()

(* ---- the driver loop ---- *)

let run ?until_sessions t =
  let chunk = Bytes.create 65536 in
  let stopping = ref false in
  let finished = ref false in
  while not !finished do
    let accepting =
      (not !stopping) && not (accept_limit_reached t until_sessions)
    in
    let fds =
      (t.stop_r :: (if accepting then [ t.listen_fd ] else []))
      @ List.filter_map
          (fun s ->
            (* every drain cycle decodes everything queued, so a
               session's undecoded bytes are bounded by the frames one
               read completes *)
            if s.failed = None && not s.ended then Some s.fd else None)
          t.sessions
    in
    (* with a rebuild in flight, wake periodically so the finished
       image gets swapped in even while no client is talking *)
    let timeout = if Option.is_some t.builder then 0.02 else -1.0 in
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.stop_r ready then begin
      (try ignore (Unix.read t.stop_r chunk 0 64)
       with Unix.Unix_error _ -> ());
      stopping := true
    end;
    if accepting && List.mem t.listen_fd ready then
      accept_all t until_sessions;
    List.iter
      (fun s -> if List.memq s.fd ready then read_session t chunk s)
      t.sessions;
    drain_cycle t;
    finalize t;
    retune_tick t;
    if !stopping then begin
      List.iter
        (fun s -> drop t s "server shutting down")
        t.sessions;
      t.sessions <- [];
      finished := true
    end
    else if accept_limit_reached t until_sessions && t.sessions = [] then
      finished := true
  done;
  (* a rebuild still in flight at shutdown: join its domain and discard
     the image — there is no traffic left to serve it to *)
  match t.builder with
  | Some b ->
      ignore (Tea_opt.Retune.await b);
      t.builder <- None
  | None -> ()

let stop t =
  try ignore (Unix.write t.stop_w (Bytes.make 1 '\001') 0 1)
  with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
      t.sessions;
    t.sessions <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
    (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
    (match t.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ());
    P.Pool.shutdown t.pool
  end

(* ---- results ---- *)

let completed t = t.completed_n

let disconnected t = t.disconnected_n

let epoch t = t.epoch

let swap_pause_ns t = t.swap_pause_ns

let drain_totals t = (t.drain_ns, t.drain_blocks)

let image_of_epoch t e =
  match List.assoc_opt e t.epoch_images with Some img -> img | None -> t.image

(* Sequential re-replay of every retained stream, honouring each
   session's recorded swap schedule: the stream enters on the image of
   its accept epoch and is rebound at exactly the event indices the live
   daemon swapped at. Cycles are the one profile component that depends
   on the image layout, so replaying the same positions on the same
   epochs is precisely what makes fleet == offline a bit-exact gate
   across any number of swaps. *)
let offline_profile t =
  if not t.offline_check then
    invalid_arg "Server.offline_profile: created without ~offline_check:true";
  List.fold_left
    (fun acc (raw, epoch0, swaps) ->
      let img = ref (image_of_epoch t epoch0) in
      let m = Core.Multi_replayer.create (fun a -> factory_of !img a) in
      let fdr = Core.Multi_replayer.feeder m in
      (* [i] numbers blocks and control records alike, as [s.evs] does;
         a swap lands before the event at its index *)
      let pending = ref swaps and i = ref 0 in
      let rec next_event () =
        match !pending with
        | (at, ep) :: rest when at <= !i ->
            img := image_of_epoch t ep;
            Core.Multi_replayer.rebind m (factory_of !img);
            pending := rest;
            next_event ()
        | _ -> incr i
      in
      let dec = Core.Pc_trace.decoder () in
      Core.Pc_trace.decoder_feed_ints dec raw
        ~block:(fun ~asid ~start ~insns ->
          next_event ();
          Core.Multi_replayer.feeder_block fdr ~asid ~start ~insns)
        ~ctl:(fun ~asid ~tag ~arg ->
          next_event ();
          Core.Multi_replayer.feeder_ctl fdr ~asid ~tag ~arg);
      Core.Pc_trace.decoder_finish dec;
      Core.Multi_replayer.feeder_flush fdr;
      P.Profile.merge acc
        (P.Profile.merge_all (List.map snd (Core.Multi_replayer.snapshots m))))
    P.Profile.empty (List.rev t.retained)

(* What [serve --save-fleet-profile] persists as TEAEP1 so the next
   daemon start can seed tuning from real traffic. The counters are
   layout-independent, so any epoch's image reads them. *)
let fleet_edge_profile t = Core.Packed.edge_profile t.image t.fleet_edges
