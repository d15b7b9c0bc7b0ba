(** [tea_serve]: the replay-as-a-service daemon.

    One long-lived process serves many concurrent PC-trace sessions
    against a {e single shared read-only} image — the ROADMAP's
    "millions of users" story. Each image epoch is compiled once
    ({!Tea_core.Compiled.t}, an immutable value) and that one compiled
    image serves every session, asid and event loop: a session is cheap
    (one {!Tea_core.Multi_replayer} whose per-asid replayers own only
    their counters), and per-session profiles are associative, so they
    fold into one live {e fleet profile} exactly.

    Architecture: [jobs] identical {b event loops}, one per domain, in
    the panda-il-trace shape of one worker per core with no producer
    ever blocked behind a consumer. Loop 0 runs on {!run}'s caller and
    loops 1 to [jobs - 1] on spawned domains.

    - every loop [select]s over the shared non-blocking listener, a stop
      pipe, its own wake pipe and {e its own} sessions, and does everything for a session
      it accepted: reading the socket, parsing {!Frame}s, decoding the
      payloads of each read through the session's incremental
      {!Tea_core.Pc_trace.decoder} straight into its replayer
      ({!Tea_core.Multi_replayer.feeder_decode}), completion and the
      reply. A session never crosses domains, and a short session never
      waits for another session's replay. [serve.queue_depth] records
      the payload bytes each read hands to the decoder;
    - accept balancing: a loop accepts at most one connection per wake.
      The loop whose [accept] wins keeps the connection unless another
      loop holds fewer live sessions; then it hands the connection to
      the least-loaded loop through that loop's lock-free inbox and
      per-loop wake pipe, counting it in that loop's live sessions at
      once. No connection waits on a timer. Two sessions open at once
      land on two different loops;
    - shared state is small: the fleet profile, its edge counters and
      the drain totals sit under one mutex, taken once per completion;
      each loop keeps its own metrics registry under its own lock, and
      a scrape, answered by whichever loop accepted it, merges them
      without waiting for any loop's replay;
    - a completed session (end-of-stream frame received and every byte
      decoded) folds its profile into the fleet and gets the profile
      echoed back; a {b mid-stream disconnect} (EOF, reset, bad framing,
      corrupt trace, asid cap, shutdown) discards the partial session —
      other sessions and the fleet profile are untouched — and bumps
      exactly one [serve.aborts.<reason>] counter, so the family sums
      to [serve.disconnects];
    - a session may name at most {!max_session_asids} address spaces:
      the block that would create one more fails that session alone,
      with a ["too many address spaces ..."] error reply. Each asid
      holds its counters and a run buffer of up to 256 blocks, so the
      cap bounds what one session can make the daemon hold.

    The daemon gate: the fleet profile of [n] concurrent sessions equals
    the merged profiles of replaying each session's stream offline,
    sequentially ({!Tea_parallel.Profile.equal} — property-tested at
    jobs 1/2/4, on flat and repacked+fused images).

    {b Closed-loop continuous PGO.} Loop 0 also {e coordinates}. After
    completions (its own, or another loop's, which wakes it) it measures
    drift once against the fleet and feeds the gauge to a
    {!Tea_observe.Trigger}; when that fires, a background domain
    rebuilds the repack→fuse ladder from the {e flat base image} and
    the fleet edge profile so far ({!fleet_edge_profile},
    {!Tea_opt.Retune}) and compiles it — no served stream is kept, and
    no loop compiles. Loop 0 publishes the finished compiled image with
    its {e epoch} (0 = boot) in one atomic, events it ([swap]) and
    exposes it as a [tea_image_epoch] gauge. Every loop
    compares the published epoch with its own at the top of each
    iteration, before it drains anything, and rebinds its live sessions
    in place ({!Tea_core.Multi_replayer.rebind}), recording the swap
    position per session; an asid a session opens later builds on its
    loop's image, never on a newer one the session has not recorded.
    Because every feeder is flushed after each read, {!offline_profile}
    can replay each stream against the exact same image at the exact
    same positions: fleet == offline stays bit-exact across any number
    of swaps. *)

type t

type retune = {
  up : int;
      (** consecutive over-threshold sessions before a rebuild fires *)
  cooldown : int;
      (** completed sessions the trigger ignores after a swap *)
}

val default_retune : retune
(** {!Tea_observe.Trigger.default_up} / [default_cooldown]. Every rebuild
    repacks and fuses. *)

val create :
  ?offline_check:bool ->
  ?events:Tea_observe.Events.t ->
  ?drift:Tea_observe.Drift.t ->
  ?base:Tea_core.Packed.t ->
  ?retune:retune ->
  jobs:int ->
  image:Tea_core.Packed.t ->
  Frame.addr ->
  t
(** Bind and listen; {!run} starts the [jobs] event loops. [offline_check] (default
    false) keeps every completed session's raw bytes and every epoch's
    image (memory that grows with traffic) so {!offline_profile} can
    re-derive the fleet profile sequentially.
    [image] is compiled here, once ({!Tea_core.Compiled.of_packed});
    every per-asid replayer of every session replays over the current
    epoch's one compiled image.
    [events] attaches a structured JSONL event log (session lifecycle,
    drift crossings, retune/swap); [drift] attaches a
    profile-drift comparator re-measured against the fleet profile
    after completions, by loop 0. Both default to off — the disabled
    path adds no work to a session's replay or reply.

    [base] is the flat (unfused, unrepacked) source image rebuilds start
    from; [retune] enables the closed loop and requires both [drift] and
    [base].

    A [Unix_sock] path is unlinked first; [Tcp] port 0 binds an
    ephemeral port (read it back with {!addr}).
    @raise Invalid_argument when [jobs < 1], or [retune] is given
    without [drift]/[base].
    @raise Unix.Unix_error when the address cannot be bound. *)

val max_session_asids : int
(** 256: the address spaces one session may run blocks in. *)

val addr : t -> Frame.addr
(** The bound address (with the real port for ephemeral TCP). *)

val run : ?until_sessions:int -> t -> unit
(** Run the event loops: loop 0 on the calling thread, the others on
    [jobs - 1] domains joined before returning. Returns after {!stop},
    or — with [until_sessions = n] — once [n] sessions have been
    accepted and every accepted session terminated (completed or
    disconnected); the listener stops accepting after the [n]th. Call
    once. *)

val stop : t -> unit
(** Ask a running {!run} to return: every loop drops its live sessions
    and the connections handed to it but not yet taken (reason
    [shutdown]) and ends; a connection handed to a loop that had already
    ended is dropped the same way before {!run} returns
    (thread/domain-safe, returns immediately; idempotent). *)

val close : t -> unit
(** Release the sockets, the stop pipe and every loop's wake pipe, and
    close any connection still in an inbox. Idempotent; call after
    {!run} returned. *)

(** {2 Results and observability} *)

val fleet_profile : t -> Tea_parallel.Profile.t
(** The live fleet profile: the merge of every completed session's
    profile (thread-safe). *)

val completed : t -> int

val disconnected : t -> int
(** Sessions dropped mid-stream (EOF without end-of-stream frame, bad
    framing, corrupt trace bytes, asid cap, shutdown). Their partial
    profiles are {e not} in the fleet. *)

val offline_profile : t -> Tea_parallel.Profile.t
(** Sequential reference replay: every kept completed-session stream
    replayed offline, one fresh replayer per session, honouring the
    session's recorded swap schedule (same image epoch at the same
    stream positions), merged. With the daemon gate this is
    {!Tea_parallel.Profile.equal} to {!fleet_profile} — across any
    number of hot swaps.
    @raise Invalid_argument unless the server was created with
    [~offline_check:true]. *)

val epoch : t -> int
(** Current image epoch: 0 until the first hot swap. *)

val swap_pause_ns : t -> int
(** Cumulative wall time spent inside swaps (publishing each epoch, plus
    every loop's rebinding of its live sessions) — the "stop" part of
    stop-the-fleet, measured. *)

val drain_totals : t -> int * int
(** [(busy_ns, blocks)] summed over completed sessions — the decode
    and replay work the loops did, excluding socket I/O and framing.
    Steady-state
    ns/block between two samples is the retune bench's throughput
    measure. *)

val fleet_edge_profile : t -> Tea_opt.Repack.profile
(** The completed sessions' replay counters, summed, as an orig-id edge
    profile: {!Tea_opt.Repack.collect} of the same traffic over the flat
    image, whatever epochs replayed it — the [serve --save-fleet-profile]
    payload. *)

val metrics : t -> Tea_telemetry.Metrics.snapshot
(** Every loop's registry, merged: counters ([serve.sessions_completed],
    [serve.bytes_in], [serve.blocks], [serve.frames],
    [serve.disconnects], [serve.aborts.<reason>] for [corrupt],
    [bad_framing], [asid_cap], [disconnect] and [shutdown], ...) and
    per-session histograms ([serve.session_bytes],
    [serve.session_blocks], [serve.session_ns_per_block] (decode plus
    replay), [serve.queue_depth] (payload bytes each read hands to the
    decoder)). Safe to read at any time. *)

val loop_blocks : t -> int array
(** The blocks of the sessions each loop completed, by loop index; they
    sum to [serve.blocks]. *)

val drift_distance : t -> (float * float) option
(** The last drift measurement against the attached comparator as
    [(distance, threshold)]; [None] when the server was created without
    [~drift] or no session has completed yet. *)

val tiers : t -> Tea_core.Tierstat.snapshot
(** The completed sessions' dispatch tiers, derived from the same summed
    counters as {!fleet_edge_profile} ({!Tea_core.Tierstat.of_counters}):
    rows by original state id, whatever layouts served them. *)

val exposition : t -> string
(** The Prometheus-style text exposition ({!Tea_observe.Exposition}) of
    {!metrics}, the dispatch tiers ({!tiers}), the per-loop blocks
    ({!loop_blocks}) and the drift gauge. This
    is exactly the payload a {!Frame.tag_scrape} connection receives;
    because
    scrapes are pure observers (never counted as sessions, no metric
    bumps), a scrape issued after the last session completed returns
    this string byte-for-byte. *)
