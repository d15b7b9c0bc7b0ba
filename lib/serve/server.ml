module Core = Tea_core
module P = Tea_parallel
module Metrics = Tea_telemetry.Metrics

(* Why a session was dropped: a closed set, one [serve.aborts.<reason>]
   counter each. *)
type abort = Corrupt | Bad_framing | Asid_cap | Disconnect | Shutdown

let abort_name = function
  | Corrupt -> "corrupt"
  | Bad_framing -> "bad_framing"
  | Asid_cap -> "asid_cap"
  | Disconnect -> "disconnect"
  | Shutdown -> "shutdown"

(* One connected client, owned by the loop that accepted it: that loop
   reads [fd], parses frames and decodes each data payload through [dec]
   straight into [multi], so no field is ever touched from another
   domain. *)
type session = {
  id : int;  (* 1-based accept order, for the event log *)
  fd : Unix.file_descr;
  parser_ : Frame.parser_;
  dec : Core.Pc_trace.decoder;  (* holds a record cut at a payload end *)
  multi : Core.Multi_replayer.t;
  fdr : Core.Multi_replayer.feeder;  (* batches a read's events *)
  mutable fed : int;  (* payload bytes decoded since the last flush *)
  raw : Buffer.t option;  (* bytes kept for the offline differential *)
  epoch0 : int;  (* image epoch the session was accepted under *)
  mutable swapped : (int * int) list;  (* (payload bytes in, new epoch), newest first *)
  mutable ended : bool;  (* end-of-stream frame received *)
  mutable failed : (abort * string) option;  (* first fatal error; dropped *)
  mutable scrape : bool;  (* a metrics observer, not a replay session *)
  mutable counted : bool;  (* bumped serve.sessions_accepted yet? *)
  mutable opened : bool;  (* session_open event emitted yet? *)
  mutable bytes_in : int;
  mutable blocks : int;
  mutable busy_ns : int;  (* wall time decoding and replaying *)
}

(* One event loop. Its registry is written by the loop and read by
   scrapes from any loop, both under [reg_m]; everything else but [live],
   [inbox] and the wake pipe belongs to the loop alone. *)
type loop = {
  index : int;
  reg : Metrics.t;
  reg_m : Mutex.t;
  mutable blocks : int;  (* completed sessions' blocks, under [reg_m] *)
  live : int Atomic.t;
      (* sessions held or handed over, read by every loop's accept *)
  inbox : (int * Unix.file_descr) list Atomic.t;
      (* (id, fd) of connections other loops accepted for this one *)
  wake_r : Unix.file_descr;  (* a hand-off, or a completion for loop 0 *)
  wake_w : Unix.file_descr;  (* non-blocking: a full pipe already wakes *)
  mutable sessions : session list;
  mutable image : Core.Compiled.t;  (* the epoch this loop replays on *)
  mutable epoch : int;
  chunk : Bytes.t;  (* socket read buffer *)
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

type published = { p_epoch : int; p_image : Core.Compiled.t }

type t = {
  loops : loop array;  (* loop 0 runs on [run]'s caller and coordinates *)
  published : published Atomic.t;  (* the newest image; loops adopt it *)
  offline_check : bool;  (* keep streams and epoch images for the oracle *)
  base : Core.Packed.t option;  (* flat source image for rebuilds *)
  trigger : Tea_observe.Trigger.t option;  (* Some iff the closed loop is on *)
  listen_fd : Unix.file_descr;  (* non-blocking, shared by every loop *)
  bound : Frame.addr;
  unix_path : string option;
  stop_r : Unix.file_descr;  (* a byte left here wakes every loop to end *)
  stop_w : Unix.file_descr;
  stop_req : bool Atomic.t;  (* [stop] called: drop live sessions *)
  wake_pending : bool Atomic.t;  (* a completion's wake byte is in flight *)
  events : Tea_observe.Events.t option;  (* None = no-op event log *)
  drift : Tea_observe.Drift.t option Atomic.t;  (* None = no drift monitor *)
  (* the coordinator's own state, loop 0 only *)
  mutable drift_over : bool;  (* above threshold at last measurement? *)
  mutable drift_dist : float;  (* that measurement *)
  mutable measured_gen : int;  (* fleet_gen of that measurement *)
  mutable checked_gen : int;  (* fleet_gen last observed by the trigger *)
  mutable builder :
    (Core.Compiled.t * Tea_opt.Repack.profile) Tea_opt.Retune.builder option;
      (* rebuild in flight *)
  swap_pause_ns : int Atomic.t;  (* publishing plus every loop's rebinds *)
  next_id : int Atomic.t;  (* monotonic session ids for the event log *)
  accepted : int Atomic.t;  (* connections taken, scrapes given back *)
  settled : int Atomic.t;  (* sessions completed or dropped *)
  disconnected_n : int Atomic.t;
  (* the fleet: every field below is read and written under [fleet_m] *)
  fleet_m : Mutex.t;
  mutable fleet : P.Profile.t;
  fleet_edges : int array;  (* completed sessions' counters, summed *)
  mutable fleet_gen : int;  (* bumped per completion; trigger tick unit *)
  mutable completed_n : int;
  mutable drain_ns : int;  (* busy ns over completed sessions *)
  mutable drain_blocks : int;  (* blocks over completed sessions *)
  mutable epoch_images : (int * Core.Compiled.t) list;  (* offline_check *)
  mutable retained : (string * int * (int * int) list) list;
      (* offline_check only — completed streams, newest first: raw bytes,
         accept epoch, and the (byte offset, new epoch) swap schedule
         oldest-first — the recipe the offline differential needs to
         replay the exact same image at the exact same stream positions *)
  mutable closed : bool;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let max_session_asids = 256

exception Too_many_address_spaces

(* A session's factory builds a replayer over its loop's compiled image
   when an asid first runs a block — never over a newer published one,
   whose epoch the session's swap schedule would not record — and
   refuses the asid past the cap: every asid costs its counters and a
   run buffer, so one session cannot make the daemon hold an unbounded
   number of them. *)
let session_factory l =
  let asids = ref 0 in
  fun _asid ->
    if !asids = max_session_asids then raise Too_many_address_spaces;
    incr asids;
    Core.Replayer.create_compiled l.image

let create ?(offline_check = false) ?events ?drift ?base ?retune ~jobs ~image
    addr =
  if jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  (* the loops' domains and the retune builder within the runtime's 128 *)
  if jobs > P.Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Server.create: jobs must be <= %d (the runtime's domain limit)"
         P.Pool.max_jobs);
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
  (* the one compiled image of epoch 0, shared by every loop and asid *)
  let compiled = Core.Compiled.of_packed image in
  {
    loops =
      Array.init jobs (fun index ->
          let wake_r, wake_w = Unix.pipe () in
          Unix.set_nonblock wake_w;
          {
            index;
            reg = Metrics.create ();
            reg_m = Mutex.create ();
            blocks = 0;
            live = Atomic.make 0;
            inbox = Atomic.make [];
            wake_r;
            wake_w;
            sessions = [];
            image = compiled;
            epoch = 0;
            chunk = Bytes.create 65536;
          });
    published = Atomic.make { p_epoch = 0; p_image = compiled };
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
    stop_req = Atomic.make false;
    wake_pending = Atomic.make false;
    events;
    drift = Atomic.make drift;
    drift_over = false;
    drift_dist = 0.0;
    measured_gen = 0;
    checked_gen = 0;
    builder = None;
    swap_pause_ns = Atomic.make 0;
    next_id = Atomic.make 0;
    accepted = Atomic.make 0;
    settled = Atomic.make 0;
    disconnected_n = Atomic.make 0;
    fleet_m = Mutex.create ();
    fleet = P.Profile.empty;
    fleet_edges = Array.make (Core.Packed.n_counters image) 0;
    fleet_gen = 0;
    completed_n = 0;
    drain_ns = 0;
    drain_blocks = 0;
    epoch_images = (if offline_check then [ (0, compiled) ] else []);
    retained = [];
    closed = false;
  }

let addr t = t.bound

let with_fleet t f = Mutex.protect t.fleet_m f

let with_reg l f = Mutex.protect l.reg_m (fun () -> f l.reg)

(* ---- observability (any loop, any thread) ---- *)

let fleet_profile t = with_fleet t (fun () -> t.fleet)

(* Each loop's registry snapshot and block count, read under its lock:
   a scrape waits for at most one metric update, never for a drain. *)
let loop_stats t =
  Array.map
    (fun l -> with_reg l (fun reg -> (Metrics.snapshot reg, l.blocks)))
    t.loops

let metrics t =
  Metrics.merge_all (Array.to_list (Array.map fst (loop_stats t)))

let loop_blocks t = Array.map snd (loop_stats t)

let drift_distance t =
  match Atomic.get t.drift with
  | None -> None
  | Some d ->
      let fleet = fleet_profile t in
      Some
        ( Tea_observe.Drift.measure d fleet.P.Profile.counts,
          Tea_observe.Drift.threshold d )

let epoch t = (Atomic.get t.published).p_epoch

(* Completed sessions' dispatch tiers, read off their summed counters:
   original ids, so the same rows on every epoch's layout. *)
let tiers t =
  let img = Core.Compiled.base (Atomic.get t.published).p_image in
  with_fleet t (fun () -> Core.Tierstat.of_counters img t.fleet_edges)

(* The scrape answer, also readable after [run] returns. Reads only
   lock-protected or atomic state, so rendering never waits for a drain.
   Deterministic: a function of the snapshots alone, so the post-run
   scrape text equals this rendered after shutdown byte-for-byte. *)
let exposition t =
  let stats = loop_stats t in
  Tea_observe.Exposition.render ~tiers:(tiers t)
    ?drift:(drift_distance t)
    ?epoch:(Option.map (fun _ -> epoch t) t.trigger)
    ~loops:(Array.map snd stats)
    (Metrics.merge_all (Array.to_list (Array.map fst stats)))

let emit_ev t kind fields =
  match t.events with
  | None -> ()
  | Some e -> Tea_observe.Events.emit e kind fields

(* ---- ingestion (the session's loop) ---- *)

let fail_session s reason msg =
  if s.failed = None then s.failed <- Some (reason, msg)

(* Deferred accounting: a connection only counts as an accepted session
   once its first frame proves it is one. Scrape connections are pure
   observers — they bump no counter and emit no event, so a scrape can
   never perturb the exposition it returns (post-run scrape text ==
   offline exposition is a hard test). *)
let count_session l s =
  if not s.counted then begin
    s.counted <- true;
    with_reg l (fun reg -> Metrics.count reg "serve.sessions_accepted" 1)
  end

(* One step of a session's replay, timed, with what the trace makes the
   replayer raise turned into the session's failure. The feeder batches
   consecutive same-asid blocks through Replayer.feed_run — the same
   engine loops offline replay takes. *)
let replaying s f =
  let t0 = now_ns () in
  (try f () with
  | Core.Pc_trace.Corrupt msg -> fail_session s Corrupt ("corrupt trace: " ^ msg)
  | Too_many_address_spaces ->
      fail_session s Asid_cap
        (Printf.sprintf "too many address spaces (at most %d per session)"
           max_session_asids)
  (* a trace that drives the replayer into an error is a corrupt one *)
  | e -> fail_session s Corrupt ("replay error: " ^ Printexc.to_string e));
  s.busy_ns <- s.busy_ns + (now_ns () - t0)

let on_frame t l s (f : Frame.frame) =
  if s.scrape then () (* observer: ignore anything after the scrape ask *)
  else if f.Frame.tag = Frame.tag_scrape && s.bytes_in = 0 && not s.ended
  then begin
    s.scrape <- true;
    try Frame.send s.fd Frame.tag_metrics (exposition t)
    with Unix.Unix_error _ | Sys_error _ -> ()
  end
  else begin
    count_session l s;
    let n = String.length f.Frame.payload in
    let data = f.Frame.tag = Frame.tag_data && not s.ended in
    with_reg l (fun reg ->
        Metrics.count reg "serve.frames" 1;
        if data then Metrics.count reg "serve.bytes_in" n);
    if s.ended then fail_session s Bad_framing "frame after end-of-stream"
    else if data then begin
      if not s.opened then begin
        s.opened <- true;
        emit_ev t "session_open"
          [ ("session", Tea_observe.Events.I s.id);
            ("loop", Tea_observe.Events.I l.index) ]
      end;
      s.bytes_in <- s.bytes_in + n;
      (match s.raw with
      | Some b -> Buffer.add_string b f.payload
      | None -> ());
      if n > 0 && s.failed = None then begin
        s.fed <- s.fed + n;
        replaying s (fun () ->
            s.blocks <-
              s.blocks
              + Core.Multi_replayer.feeder_decode s.fdr s.dec f.Frame.payload)
      end
    end
    else if f.Frame.tag = Frame.tag_end then s.ended <- true
    else
      fail_session s Bad_framing
        (Printf.sprintf "unexpected frame tag %C" f.Frame.tag)
  end

(* Read once and decode what the read completed, then flush the feeder,
   so the session's replayers sit at a well-defined stream position
   whenever the loop is between reads: [bytes_in] is then exact for the
   swap schedule, and a completed session's profile is fully materialized.
   Payloads decode in stream order, so a corrupt record is reported
   ahead of a framing error later in the same read. *)
let read_session t l s =
  (match Unix.read s.fd l.chunk 0 (Bytes.length l.chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      fail_session s Disconnect "connection reset"
  | 0 -> if not s.ended then fail_session s Disconnect "eof before end-of-stream"
  | k -> (
      (* no copy of the read: the parser copies [chunk] into its own
         buffer before returning and hands out each payload as a fresh
         string, so nothing aliases [chunk] when the next read reuses it *)
      try
        Frame.parser_feed s.parser_ ~len:k (Bytes.unsafe_to_string l.chunk)
          (on_frame t l s)
      with Frame.Corrupt msg -> fail_session s Bad_framing ("bad framing: " ^ msg)));
  if s.fed > 0 then begin
    if s.failed = None then
      replaying s (fun () -> Core.Multi_replayer.feeder_flush s.fdr);
    with_reg l (fun reg -> Metrics.observe_value reg "serve.queue_depth" s.fed);
    s.fed <- 0
  end

(* ---- accept (any loop) ---- *)

(* Take one accept slot below the limit, or report the limit reached. *)
let rec reserve t limit =
  let a = Atomic.get t.accepted in
  a < limit && (Atomic.compare_and_set t.accepted a (a + 1) || reserve t limit)

let limit_reached t until_sessions =
  match until_sessions with
  | Some n -> Atomic.get t.accepted >= n
  | None -> false

let wake l =
  try ignore (Unix.write l.wake_w (Bytes.make 1 '\001') 0 1)
  with Unix.Unix_error _ -> ()

(* A connection this loop accepted, or took from its inbox; [live]
   already counts it. *)
let open_session t l (id, fd) =
  let multi = Core.Multi_replayer.create (session_factory l) in
  let s =
    {
      id;
      fd;
      parser_ = Frame.parser_ ();
      dec = Core.Pc_trace.decoder ();
      multi;
      (* run buffers of at most 256 words are minor-heap allocations: a
         session's buffers then die young instead of cycling the major
         GC, which no longer has kept streams to amortize against *)
      fdr = Core.Multi_replayer.feeder ~buf:256 multi;
      fed = 0;
      raw = (if t.offline_check then Some (Buffer.create 4096) else None);
      epoch0 = l.epoch;
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
  l.sessions <- l.sessions @ [ s ]

(* Accept balancing: the loop whose accept wins keeps the connection
   unless another loop holds fewer sessions; then it hands the connection
   to the least-loaded loop through that loop's inbox and wakes it,
   counting it in that loop's [live] at once, so the next accept sees the
   new balance. *)
let least_loaded t l =
  Array.fold_left
    (fun best o -> if Atomic.get o.live < Atomic.get best.live then o else best)
    l t.loops

let rec hand_over target conn =
  let q = Atomic.get target.inbox in
  if not (Atomic.compare_and_set target.inbox q (conn :: q)) then
    hand_over target conn

let accept_one t l until_sessions =
  if reserve t (Option.value until_sessions ~default:max_int) then
    match Unix.accept t.listen_fd with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        (* another loop took it *)
        Atomic.decr t.accepted
    | fd, _ ->
        let conn = (Atomic.fetch_and_add t.next_id 1 + 1, fd) in
        let target = least_loaded t l in
        Atomic.incr target.live;
        if target == l then open_session t l conn
        else begin
          hand_over target conn;
          wake target
        end

(* The connections other loops handed to this one, in accept order. *)
let take_inbox t l =
  match Atomic.get l.inbox with
  | [] -> ()
  | _ -> List.iter (open_session t l) (List.rev (Atomic.exchange l.inbox []))

(* ---- completion / disconnect (the session's loop) ---- *)

let wake_coordinator t l =
  if l.index <> 0 && Option.is_some (Atomic.get t.drift)
     && not (Atomic.exchange t.wake_pending true)
  then wake t.loops.(0)

let settle t until_sessions =
  let n = Atomic.fetch_and_add t.settled 1 + 1 in
  (* the last session of a bounded run: wake every loop to return *)
  if until_sessions = Some n then
    try ignore (Unix.write t.stop_w (Bytes.make 1 '\000') 0 1)
    with Unix.Unix_error _ -> ()

let drop t l until_sessions s (reason, msg) =
  (* a connection that died before any frame still counts: it was a
     (failed) session, not a scrape *)
  count_session l s;
  (try Frame.send s.fd Frame.tag_error msg
   with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  Atomic.incr t.disconnected_n;
  with_reg l (fun reg ->
      Metrics.count reg "serve.disconnects" 1;
      Metrics.count reg ("serve.aborts." ^ abort_name reason) 1);
  emit_ev t "session_abort"
    [ ("session", Tea_observe.Events.I s.id);
      ("loop", Tea_observe.Events.I l.index);
      ("reason", Tea_observe.Events.S msg) ];
  settle t until_sessions

let complete t l until_sessions s =
  let prof =
    P.Profile.merge_all
      (List.map snd (Core.Multi_replayer.snapshots s.multi))
  in
  with_fleet t (fun () ->
      t.fleet <- P.Profile.merge t.fleet prof;
      Core.Multi_replayer.add_edge_counts s.multi t.fleet_edges;
      t.completed_n <- t.completed_n + 1;
      t.fleet_gen <- t.fleet_gen + 1;
      t.drain_ns <- t.drain_ns + s.busy_ns;
      t.drain_blocks <- t.drain_blocks + s.blocks;
      match s.raw with
      | Some b ->
          t.retained <-
            (Buffer.contents b, s.epoch0, List.rev s.swapped) :: t.retained
      | None -> ());
  with_reg l (fun reg ->
      l.blocks <- l.blocks + s.blocks;
      Metrics.count reg "serve.sessions_completed" 1;
      Metrics.count reg "serve.blocks" s.blocks;
      Metrics.observe_value reg "serve.session_bytes" s.bytes_in;
      Metrics.observe_value reg "serve.session_blocks" s.blocks;
      if s.blocks > 0 then
        Metrics.observe_value reg "serve.session_ns_per_block"
          (s.busy_ns / s.blocks));
  emit_ev t "session_close"
    [
      ("session", Tea_observe.Events.I s.id);
      ("loop", Tea_observe.Events.I l.index);
      ("bytes", Tea_observe.Events.I s.bytes_in);
      ("blocks", Tea_observe.Events.I s.blocks);
    ];
  (* drift is measured by the coordinator, after the reply *)
  (try Frame.send s.fd Frame.tag_profile (Frame.encode_profile prof)
   with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  wake_coordinator t l;
  settle t until_sessions

let finalize t l until_sessions =
  let live = ref [] in
  List.iter
    (fun s ->
      if s.scrape then begin
        (* an answered observer: close and vanish — it never counted as
           a session, so give its accept slot back *)
        (try Unix.close s.fd with Unix.Unix_error _ -> ());
        Atomic.decr t.accepted
      end
      else
        match s.failed with
        | Some f -> drop t l until_sessions s f
        | None ->
            (* every read was decoded and flushed *)
            if s.ended then
              match Core.Pc_trace.decoder_finish s.dec with
              | () -> complete t l until_sessions s
              | exception Core.Pc_trace.Corrupt msg ->
                  drop t l until_sessions s (Corrupt, "corrupt trace: " ^ msg)
            else live := s :: !live)
    l.sessions;
  let kept = List.rev !live in
  ignore (Atomic.fetch_and_add l.live (List.length kept - List.length l.sessions));
  l.sessions <- kept

(* ---- hot swap: publish (coordinator), adopt (every loop) ---- *)

(* Rebind this loop's sessions onto the newest published image. Runs at
   the top of an iteration, before anything is drained: every feeder was
   flushed after its session's last read, so each session's [bytes_in]
   is precisely the stream position the swap lands on — recorded in the
   schedule the offline differential replays. Live replayers are rebound
   in place onto the epoch's one compiled image (orig-id counters and
   cycles kept, the state translated). A loop that slept through several
   swaps goes straight to the newest epoch. *)
let adopt t l =
  let p = Atomic.get t.published in
  if p.p_epoch <> l.epoch then begin
    let t0 = now_ns () in
    l.epoch <- p.p_epoch;
    l.image <- p.p_image;
    List.iter
      (fun s ->
        Core.Multi_replayer.rebind s.multi (Core.Replayer.Compiled p.p_image);
        s.swapped <- (s.bytes_in, p.p_epoch) :: s.swapped)
      l.sessions;
    ignore (Atomic.fetch_and_add t.swap_pause_ns (now_ns () - t0))
  end

(* Publish a freshly built and compiled image as the next epoch (the new
   image is kept for the oracle only under offline_check), and re-reference the
   drift monitor to the profile the new layout was tuned for, so the
   gauge measures staleness of the {e current} image, not the boot one. *)
let publish t (img, prof) =
  let t0 = now_ns () in
  let e = epoch t + 1 in
  if t.offline_check then
    with_fleet t (fun () -> t.epoch_images <- (e, img) :: t.epoch_images);
  (match Atomic.get t.drift with
  | Some d ->
      Atomic.set t.drift
        (Some
           (Tea_observe.Drift.create ~k:(Tea_observe.Drift.k d)
              ~threshold:(Tea_observe.Drift.threshold d)
              (Tea_opt.Repack.visit_counts prof)));
      t.drift_over <- false;
      (* measure the fleet against the new reference at once *)
      t.measured_gen <- -1
  | None -> ());
  Atomic.set t.published { p_epoch = e; p_image = img };
  let pause = now_ns () - t0 in
  ignore (Atomic.fetch_and_add t.swap_pause_ns pause);
  with_reg t.loops.(0) (fun reg -> Metrics.count reg "serve.swaps" 1);
  emit_ev t "swap"
    [
      ("epoch", Tea_observe.Events.I e);
      ( "sessions",
        Tea_observe.Events.I
          (Array.fold_left (fun a l -> a + Atomic.get l.live) 0 t.loops) );
      ("pause_ns", Tea_observe.Events.I pause);
    ]

(* The coordinator's tick (loop 0): harvest a finished background
   rebuild and publish it; then, once per batch of completions, measure
   drift against the fleet — the one measurement per completion, off
   every reply path — event its upward threshold crossing (dropping back
   below re-arms it), and feed the trigger one observation per completed
   session, so hysteresis is measured in sessions, not wake-ups. *)
let coordinate t =
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
          publish t built)
  | None -> ());
  match Atomic.get t.drift with
  | None -> ()
  | Some d -> (
      let gen, fleet = with_fleet t (fun () -> (t.fleet_gen, t.fleet)) in
      if gen > t.measured_gen then begin
        t.measured_gen <- gen;
        let dist = Tea_observe.Drift.measure d fleet.P.Profile.counts in
        let over = Tea_observe.Drift.exceeded d dist in
        if over && not t.drift_over then
          emit_ev t "drift_threshold"
            [
              ("distance", Tea_observe.Events.F dist);
              ("threshold", Tea_observe.Events.F (Tea_observe.Drift.threshold d));
            ];
        t.drift_over <- over;
        t.drift_dist <- dist
      end;
      match t.trigger with
      | Some trig when Option.is_none t.builder && t.measured_gen > t.checked_gen
        ->
          let ticks = t.measured_gen - t.checked_gen in
          t.checked_gen <- t.measured_gen;
          let fire = ref false in
          for _ = 1 to ticks do
            if Tea_observe.Trigger.observe trig t.drift_over then fire := true
          done;
          if !fire then begin
            let counts, streams =
              with_fleet t (fun () -> (Array.copy t.fleet_edges, t.completed_n))
            in
            let base = Option.get t.base in
            emit_ev t "retune_start"
              [
                ("distance", Tea_observe.Events.F t.drift_dist);
                ("streams", Tea_observe.Events.I streams);
              ];
            with_reg t.loops.(0) (fun reg -> Metrics.count reg "serve.retunes" 1);
            (* the epoch's one compile runs here, off every loop *)
            t.builder <-
              Some
                (Tea_opt.Retune.launch (fun () ->
                     let profile = Core.Packed.edge_profile base counts in
                     ( Core.Compiled.of_packed
                         (Tea_opt.Retune.build ~profile base),
                       profile )))
          end
      | _ -> ())

(* ---- the event loops ---- *)

(* Drop every session of this loop, and every connection handed to it,
   with reason [shutdown]. *)
let shut_down t l until_sessions =
  take_inbox t l;
  List.iter
    (fun s -> drop t l until_sessions s (Shutdown, "server shutting down"))
    l.sessions;
  ignore (Atomic.fetch_and_add l.live (-List.length l.sessions));
  l.sessions <- []

(* One loop: select over the stop pipe, its wake pipe, the listener and
   its own sessions; accept at most one connection per wake; take the
   connections handed to it; read, decode, replay, complete and reply
   for every ready session of its own. *)
let run_loop t l until_sessions =
  let coord = l.index = 0 in
  let stopping = ref false and finished = ref false in
  while not !finished do
    adopt t l;
    let listening =
      (not !stopping) && not (limit_reached t until_sessions)
    in
    let fds =
      (t.stop_r :: l.wake_r :: (if listening then [ t.listen_fd ] else []))
      @ List.filter_map
          (fun s -> if s.failed = None && not s.ended then Some s.fd else None)
          l.sessions
    in
    (* with a rebuild in flight, the coordinator wakes periodically so
       the finished image gets published even while no client talks *)
    let timeout = if coord && Option.is_some t.builder then 0.02 else -1.0 in
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.stop_r ready && Atomic.get t.stop_req then stopping := true;
    if List.mem l.wake_r ready then begin
      if coord then Atomic.set t.wake_pending false;
      try ignore (Unix.read l.wake_r l.chunk 0 (Bytes.length l.chunk))
      with Unix.Unix_error _ -> ()
    end;
    take_inbox t l;
    if listening && List.mem t.listen_fd ready then accept_one t l until_sessions;
    List.iter (fun s -> if List.memq s.fd ready then read_session t l s) l.sessions;
    finalize t l until_sessions;
    if coord then coordinate t;
    if !stopping then begin
      shut_down t l until_sessions;
      finished := true
    end
    else
      match until_sessions with
      | Some n when Atomic.get t.settled >= n -> finished := true
      | _ -> ()
  done

let stop t =
  Atomic.set t.stop_req true;
  try ignore (Unix.write t.stop_w (Bytes.make 1 '\001') 0 1)
  with Unix.Unix_error _ -> ()

let run ?until_sessions t =
  (* a loop that dies takes the others down with it instead of leaving
     them serving behind a [run] that can no longer return *)
  let guarded l () =
    try run_loop t l until_sessions
    with e ->
      stop t;
      raise e
  in
  let others =
    Array.map (fun l -> Domain.spawn (guarded l))
      (Array.sub t.loops 1 (Array.length t.loops - 1))
  in
  let first = try Ok (guarded t.loops.(0) ()) with e -> Error e in
  Array.iter Domain.join others;
  Result.iter_error raise first;
  (* a connection handed to a loop that had already ended *)
  Array.iter (fun l -> shut_down t l until_sessions) t.loops;
  (* the completions of the last iteration, measured *)
  coordinate t;
  (* a rebuild still in flight at shutdown: join its domain and discard
     the image — there is no traffic left to serve it to *)
  match t.builder with
  | Some b ->
      ignore (Tea_opt.Retune.await b);
      t.builder <- None
  | None -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
    Array.iter
      (fun l ->
        List.iter (fun s -> close_fd s.fd) l.sessions;
        l.sessions <- [];
        List.iter (fun (_, fd) -> close_fd fd) (Atomic.exchange l.inbox []);
        List.iter close_fd [ l.wake_r; l.wake_w ])
      t.loops;
    List.iter close_fd [ t.listen_fd; t.stop_r; t.stop_w ];
    match t.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ()
  end

(* ---- results ---- *)

let completed t = with_fleet t (fun () -> t.completed_n)

let disconnected t = Atomic.get t.disconnected_n

let swap_pause_ns t = Atomic.get t.swap_pause_ns

let drain_totals t = with_fleet t (fun () -> (t.drain_ns, t.drain_blocks))

let image_of_epoch t e =
  match List.assoc_opt e t.epoch_images with
  | Some img -> img
  | None -> (Atomic.get t.published).p_image

(* Sequential re-replay of every retained stream, honouring each
   session's recorded swap schedule: the stream enters on the image of
   its accept epoch and is rebound at exactly the byte offsets its loop
   swapped at. Cycles are the one profile component that depends on the
   image layout, so replaying the same positions on the same epochs is
   precisely what makes fleet == offline a bit-exact gate across any
   number of swaps. *)
let offline_profile t =
  if not t.offline_check then
    invalid_arg "Server.offline_profile: created without ~offline_check:true";
  let retained = with_fleet t (fun () -> t.retained) in
  List.fold_left
    (fun acc (raw, epoch0, swaps) ->
      let img = ref (image_of_epoch t epoch0) in
      let m =
        Core.Multi_replayer.create (fun _ -> Core.Replayer.create_compiled !img)
      in
      let fdr = Core.Multi_replayer.feeder m and dec = Core.Pc_trace.decoder () in
      let feed off at =
        ignore (Core.Multi_replayer.feeder_decode fdr dec ~off ~len:(at - off) raw)
      in
      (* a swap lands after the payload bytes its loop had decoded *)
      let off =
        List.fold_left
          (fun off (at, ep) ->
            feed off at;
            img := image_of_epoch t ep;
            Core.Multi_replayer.rebind m (Core.Replayer.Compiled !img);
            at)
          0 swaps
      in
      feed off (String.length raw);
      Core.Pc_trace.decoder_finish dec;
      Core.Multi_replayer.feeder_flush fdr;
      P.Profile.merge acc
        (P.Profile.merge_all (List.map snd (Core.Multi_replayer.snapshots m))))
    P.Profile.empty (List.rev retained)

(* What [serve --save-fleet-profile] persists as TEAEP1 so the next
   daemon start can seed tuning from real traffic. The counters are
   layout-independent, so any epoch's image reads them. *)
let fleet_edge_profile t =
  let img = Core.Compiled.base (Atomic.get t.published).p_image in
  with_fleet t (fun () -> Core.Packed.edge_profile img t.fleet_edges)
