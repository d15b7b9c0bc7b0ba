(** [tea_serve]: the replay-as-a-service daemon.

    One long-lived process serves many concurrent PC-trace sessions
    against a {e single shared read-only} {!Tea_core.Packed.t} image —
    the ROADMAP's "millions of users" story: a session is cheap (one
    {!Tea_core.Multi_replayer} over a {!Tea_core.Packed.dup} of the
    image), and per-session profiles are associative, so they fold into
    one live {e fleet profile} exactly.

    Architecture (the panda-il-trace shape: the producer pushes raw
    bytes, the workers decode):

    - a single {b driver} thread owns all I/O: it [select]s over the
      listener, a stop pipe and every live session socket, accepts new
      sessions, parses {!Frame}s and queues each data frame's payload,
      undecoded, on a {b per-session byte queue} — about one byte per
      block crosses to the workers, not a decoded event record;
    - each cycle, every session with queued bytes becomes one task on a
      {!Tea_parallel.Pool}: the task runs the session's incremental
      {!Tea_core.Pc_trace.decoder} over its payloads straight into its
      replayer ({!Tea_core.Multi_replayer.feeder_decode}), so sessions
      decode and replay {e in parallel across} the pool while each
      session's own bytes stay strictly ordered (one task per session
      per cycle, ordered by the pool mutex); a cycle with one ready
      session runs its task on the driver, which would otherwise only
      wait for it;
    - every drain cycle decodes everything queued before the next
      [select], so a session's undecoded bytes are bounded by the frames
      one socket read completes (the [serve.queue_depth] histogram
      records them per task);
    - a completed session (end-of-stream frame received and every byte
      decoded) folds its profile into the fleet and gets the profile
      echoed back; a {b mid-stream disconnect} (EOF, reset, bad framing,
      corrupt trace — the last found by the worker, with the same
      ["corrupt trace: ..."] message) discards the partial session —
      other sessions and the fleet profile are untouched;
    - a session may name at most {!max_session_asids} address spaces:
      the block that would create one more fails that session alone,
      with a ["too many address spaces ..."] error reply. Each asid
      holds a compiled image and a run buffer of up to 256 blocks, so
      the cap bounds what one session can make the daemon hold.

    The daemon gate: the fleet profile of [n] concurrent sessions equals
    the merged profiles of replaying each session's stream offline,
    sequentially ({!Tea_parallel.Profile.equal} — property-tested at
    jobs 1/2/4, on flat and repacked+fused images).

    {b Closed-loop continuous PGO.} With [~retune] the daemon re-tunes
    itself: after each completed session the drift gauge is fed to a
    {!Tea_observe.Trigger}; when it fires, a background domain rebuilds
    the repack→fuse ladder from the {e flat base image} and the fleet
    edge profile so far ({!fleet_edge_profile}, {!Tea_opt.Retune}) — no
    served stream is kept — and the finished image is
    hot-swapped in between two drain cycles — every live session's
    replayers are rebound in place ({!Tea_core.Multi_replayer.rebind}),
    the swap position is recorded per session, and the image {e epoch}
    (0 = boot) is bumped, evented ([swap]) and exposed as a
    [tea_image_epoch] gauge. Because every queued byte is decoded and
    every feeder flushed at a drain-cycle boundary, {!offline_profile}
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
(** Bind, listen and spawn the worker pool. [offline_check] (default
    false) keeps every completed session's raw bytes and every epoch's
    image (memory that grows with traffic) so {!offline_profile} can
    re-derive the fleet profile sequentially.
    Each session's per-asid replayers run on the compiled engine: a
    private {!Tea_core.Compiled.of_packed} of a {!Tea_core.Packed.dup}
    of the current image per asid.
    [events] attaches a structured JSONL event log (session lifecycle,
    drift crossings, retune/swap); [drift] attaches a
    profile-drift comparator re-measured against the fleet profile
    after every completed session. Both default to off — the disabled
    path adds no work to the drain cycle.

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
(** The driver loop, on the calling thread. Returns after {!stop}, or —
    with [until_sessions = n] — once [n] sessions have been accepted and
    every accepted session terminated (completed or disconnected); the
    listener stops accepting after the [n]th. Call once. *)

val stop : t -> unit
(** Ask a running {!run} to return (thread/domain-safe, returns
    immediately; idempotent). *)

val close : t -> unit
(** Release sockets and shut the pool down. Idempotent; call after
    {!run} returned. *)

(** {2 Results and observability} *)

val fleet_profile : t -> Tea_parallel.Profile.t
(** The live fleet profile: the merge of every completed session's
    profile (thread-safe). *)

val completed : t -> int

val disconnected : t -> int
(** Sessions dropped mid-stream (EOF without end-of-stream frame, bad
    framing, corrupt trace bytes). Their partial profiles are {e not} in
    the fleet. *)

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
(** Cumulative wall time spent inside swaps (epoch bump + rebinding
    every live session) — the "stop" part of stop-the-fleet, measured. *)

val drain_totals : t -> int * int
(** [(busy_ns, blocks)] summed over completed sessions — the decode
    and replay work the pool did, excluding socket I/O and framing.
    Steady-state
    ns/block between two samples is the retune bench's throughput
    measure. *)

val fleet_edge_profile : t -> Tea_opt.Repack.profile
(** The completed sessions' replay counters, summed, as an orig-id edge
    profile: {!Tea_opt.Repack.collect} of the same traffic over the flat
    image, whatever epochs replayed it — the [serve --save-fleet-profile]
    payload. *)

val metrics : t -> Tea_telemetry.Metrics.snapshot
(** Registry counters ([serve.sessions_completed], [serve.bytes_in],
    [serve.blocks], [serve.frames], [serve.disconnects], ...) and
    per-session histograms ([serve.session_bytes],
    [serve.session_blocks], [serve.session_ns_per_block] (decode plus
    replay), [serve.queue_depth] (undecoded bytes per session at each
    drain cycle)) merged with the pool's per-domain counters.
    Read when {!run} is not mid-cycle (e.g. after it returned). *)

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
    {!metrics}, the dispatch tiers ({!tiers}) and the drift gauge. This
    is exactly the payload a {!Frame.tag_scrape} connection receives;
    because
    scrapes are pure observers (never counted as sessions, no metric
    bumps), a scrape issued after the last session completed returns
    this string byte-for-byte. *)
