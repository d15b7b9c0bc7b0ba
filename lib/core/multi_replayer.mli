(** Demultiplexing an interleaved multi-process stream onto per-asid TEAs.

    Real DBT traffic is not one clean PC stream: blocks from several
    address spaces interleave under the scheduler, self-modifying code
    invalidates an asid's translations, and asynchronous signals cut a
    trace body mid-flight. A [Multi_replayer] routes a {!Pc_trace} v3
    event stream onto one {!Replayer} per asid:

    - {b context switch} is O(1) — a cached current-entry pointer, one
      hash probe on switch, one equality test per block; the
      {!feeder_decode} path takes most switches inside the decode kernel
      itself, through a route table of the asids' run buffers;
    - {b lazy creation} — an asid's automaton materializes on its first
      block, never on a bare switch/invalidate/interrupt, so the asid set
      equals the set of address spaces that executed code;
    - {b invalidation} ([Pc_trace.Invalidate]) models self-modifying
      code: the target asid's automaton state is forced to NTE with no
      accounting (as {!Replayer.set_state} — no spurious exit, coverage
      untouched), so its traces re-enter from their heads afterwards;
    - {b interrupt} ([Pc_trace.Interrupt]) cuts the current asid's trace
      body the same way: drop to NTE, resume matching at the next block.

    The gate this module is built around: demuxed replay of an
    interleaved stream is {e observationally identical} — full
    {!Replayer.snapshot} equality per asid — to replaying each asid's
    {!project}ion in isolation, because blocks of different asids touch
    disjoint replayers and a cut is a pure state overwrite. *)

type t

type relay
(** A bounded single-producer, single-consumer ring of filled run
    buffers, for offline file replay on two domains: the domain running
    {!replay_file} (or {!replay_string}) decodes, a second running
    {!relay_drain} replays.

    A [t] created with a relay keeps the feeder's one flush point (see
    {!feeder}) but hands each buffer it would replay to the ring, in
    stream order, instead of replaying it: the flush swaps the buffer's
    arrays for a free slot's, so a hand-over copies and allocates
    nothing. A cut (an [Invalidate] or [Interrupt]) goes into the ring
    too, as a flag on its asid's slot, so its [set_state nte] runs on the
    consumer after that asid's buffered run. One consumer replays the
    slots in order, so every asid's runs and cuts keep their order. The
    ring holds 8 slots of 4096 blocks (0.5 MiB); a drained relay's ring
    is kept for the next relay.

    Neither side waits for a side that is not running. The consumer
    claims the ring with one CAS when it starts. Until then, a producer
    that finds the ring full replays its oldest slot itself, and past the
    stream's end it replays what is left, so the producer's task alone
    finishes the replay when the consumer's cannot start (another
    caller's batch holding the pool's other worker, say). A waiting side
    spins for about one slot's work in [Domain.cpu_relax] rounds, then
    sleeps until half the ring is ready for it.

    A relay is for one offline stream: the daemon's sessions
    ({!feeder_decode} with {!feeder_flush} per read, {!rebind}) replay in
    place on a [t] without one. Read the replayers ({!snapshots},
    {!replayer}, ...) only after both the replay and {!relay_drain}
    returned. *)

val relay : (int -> unit) -> relay
(** [relay credit]: a relay whose replays call [credit n] with each
    run's length [n], on the domain that replayed it. *)

val relay_blocks : int
(** The ring's capacity in blocks: its slots times a run buffer's
    capacity. A block record takes at least one byte, so a stream of
    fewer bytes holds fewer blocks than the ring. *)

val relay_drain : relay -> unit
(** The consumer: claim the ring and replay its slots in order until the
    producer's {!replay_file} ends. Returns early when the producer
    raised; if a replay here raises, the producer drops the rest of the
    stream and the exception is re-raised here. *)

val create : ?relay:relay -> (int -> Replayer.t) -> t
(** [create make]: [make asid] builds the replayer for an asid on its
    first block (e.g. [fun _ -> Replayer.create_compiled c], every asid
    over one shared compiled image [c]). With [~relay], runs replay on the
    relay's consumer instead of in place; [make] still runs on the
    decoding domain. *)

val rebind : t -> Replayer.engine -> unit
(** [rebind t engine] hot-swaps every live per-asid replayer onto
    [engine] — {!Replayer.rebind} in place, so counts, states, stats and
    cycles carry across and any {!feeder} stays valid. Buffered feeder
    runs replay first, on the image they were fed under. Asids that
    first appear later are still built by {!create}'s factory, so a
    factory that must follow swaps reads the current image when it is
    called.
    @raise Invalid_argument if any engine involved is [Reference], the
    images disagree on slot count, or [t] has a relay. *)

val feed : t -> asid:int -> Pc_trace.event -> unit
(** Route one event. [~asid] is the address space the event lands on
    (wire directly to {!Pc_trace.fold_events}); a block whose [~asid]
    differs from the previous block's performs an implicit switch. Do not
    mix with a {!feeder} that holds buffered blocks, nor use on a [t]
    with a relay. *)

type feeder
(** An incremental batching front-end over one {!t}: every asid gets its
    own run buffer, which replays through {!Replayer.feed_run}. Blocks
    join their asid's buffer, so batches stay long however finely the
    stream interleaves. A buffer replays in four cases:
    - it is full;
    - {!feeder_flush};
    - before an [Invalidate] aimed at its asid;
    - before an [Interrupt] on its asid.
    The cut itself ([set_state nte]) comes after that flush; a [Switch]
    flushes nothing. Equivalent to folding {!feed} (the feed_run ==
    feed_addr property plus the invisibility of batch seams), counters
    and so dispatch tiers included.

    A buffer starts small and doubles up to the capacity, so buffered
    memory is at most live asids × capacity × 16 bytes. Nothing is
    allocated per block or per switch. The buffers live in [t]'s
    entries: use one feeder per [t], from one producer at a time.

    Each buffer is a {!Pc_trace.lane}, and [t] keeps the kernel's route
    table equal to the stack of buffers that took a block since the last
    flush: an asid's lane is routed exactly while its buffer is on that
    stack (pushed by its first block, popped by the next flush), so the
    decode kernel takes a switch to it without stopping and a flush still
    reaches every lane the kernel wrote. Asids from 4096 on are never
    routed, and a lone buffer on the stack leaves the table unallocated
    (a one-asid stream allocates none); the table grows on demand. *)

val feeder : ?buf:int -> t -> feeder
(** [buf] is the per-asid run-buffer capacity in blocks (default 4096).
    @raise Invalid_argument if [buf < 1]. *)

val feeder_feed : feeder -> asid:int -> Pc_trace.event -> unit
(** Buffer a block, or apply a control record by the flush rules above. *)

val feeder_block : feeder -> asid:int -> start:int -> insns:int -> unit
(** [feeder_feed f ~asid (Block { start; insns })] without constructing
    the event. *)

val feeder_flush : feeder -> unit
(** Replay every buffered run now. Call at batch boundaries (end of a
    read, end of stream); flushing is always safe. Costs one step
    per asid that took a block since the last flush, however many asids
    [t] holds. *)

val feeder_decode :
  feeder -> Pc_trace.decoder -> ?off:int -> ?len:int -> string -> int
(** The one decode-into-replay path, run by every daemon session and
    every file replay. [feeder_decode f dec s] buffers [s.[off..off+len)]
    in [dec] and drives its kernel over [f]'s run buffers with [t]'s
    route: each block decodes straight into its asid's buffer, a switch
    to a routed asid never leaves the kernel, and the step between
    kernel calls makes room, opens an asid's buffer or applies a control
    record by the flush rules above. Returns the blocks completed, across
    every buffer; a record cut at the end of [s] stays in [dec]. Does
    not flush [f].
    @raise Pc_trace.Corrupt as {!Pc_trace.decoder_feed}, after feeding
    every record before the bad one. *)

val replay_file : t -> Pc_trace.decoder -> string -> int
(** [replay_file t dec path]: {!feeder_decode} of the file through
    [dec] in chunks, then {!Pc_trace.decoder_finish} and {!feeder_flush};
    returns the blocks decoded. With a {!Pc_trace.decoder} it equals
    folding {!feed} over {!Pc_trace.fold_events}; a
    {!Pc_trace.single_decoder} rejects control records as {!Pc_trace.fold}
    does. With a relay, the runs are handed over rather than replayed,
    and the end of the stream, or its exception, releases the relay's
    consumer. @raise Pc_trace.Corrupt with the whole-file messages. *)

val replay_string : t -> Pc_trace.decoder -> string -> int
(** {!replay_file} of a trace already read into a string (for a relay,
    the producer then allocates no file-sized buffer). *)

val replay_events : (int -> Replayer.t) -> string -> t
(** [create] + [replay_file]. *)

val asids : t -> int list
(** Asids that executed at least one block, sorted. *)

val replayer : t -> int -> Replayer.t option

val invalidations : t -> int -> int
(** Invalidations that landed on an existing asid ([0] for unknown). *)

val interrupts : t -> int -> int

val snapshots : t -> (int * Replayer.snapshot) list
(** Per-asid profile snapshots, sorted by asid — the demuxed side of the
    demuxed-vs-isolated gate. *)

val add_edge_counts : t -> int array -> unit
(** {!Replayer.add_edge_counts} of every asid's replayer into [acc]. *)

val replay_isolated : (int -> Replayer.t) -> string -> (int * Replayer.snapshot) list
(** Replay each asid's projection of the file (its blocks and interrupts
    in stream order plus every invalidation targeting it) through a fresh
    replayer, in isolation; per-asid snapshots for asids that executed blocks, sorted.
    The reference side of the gate: must equal {!snapshots} of a demuxed
    {!replay_events} over the same file and factory (with the factory
    handing out a fresh replayer per call). *)
