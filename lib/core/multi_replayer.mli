(** Demultiplexing an interleaved multi-process stream onto per-asid TEAs.

    Real DBT traffic is not one clean PC stream: blocks from several
    address spaces interleave under the scheduler, self-modifying code
    invalidates an asid's translations, and asynchronous signals cut a
    trace body mid-flight. A [Multi_replayer] routes a {!Pc_trace} v3
    event stream onto one {!Replayer} per asid:

    - {b context switch} is O(1) — a cached current-entry pointer, one
      hash probe on switch, one equality test per block;
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

val create : (int -> Replayer.t) -> t
(** [create make]: [make asid] builds the replayer for an asid on its
    first block (e.g. [fun a -> Replayer.create_compiled
    (Compiled.of_packed (Packed.dup (image_for a)))] — pass each asid a
    {e dup} when images are shared: stats and cycles live on the
    image). *)

val rebind : t -> (int -> Replayer.t) -> unit
(** [rebind t make] hot-swaps every live per-asid replayer onto the
    image the new factory builds — {!Replayer.rebind} in place, so
    counts, states, stats and cycles carry across and any {!feeder}
    stays valid — and installs [make] for asids that first appear later.
    Call only at a batch boundary (after {!feeder_flush}); like
    {!create}, the factory must hand each asid a private dup.
    @raise Invalid_argument if any engine involved is [Reference] or the
    images disagree on slot count. *)

val feed : t -> asid:int -> Pc_trace.event -> unit
(** Route one event. [~asid] is the address space the event lands on
    (wire directly to {!Pc_trace.fold_events}); a block whose [~asid]
    differs from the current one performs an implicit switch. *)

type feeder
(** An incremental batching front-end over one {!t}: buffers consecutive
    same-asid block runs and flushes them through {!Replayer.feed_run}.
    Event-at-a-time producers (the serve daemon, streaming decoders) use
    a feeder so they take the same batched compiled dispatch as offline
    file replay. Equivalent to folding {!feed} (the feed_run ==
    feed_addr property), counters and so {!Tierstat} dispatch tiers
    included. Not thread-safe: one feeder per producer. *)

val feeder : ?buf:int -> t -> feeder
(** [buf] is the run-buffer capacity in blocks (default 4096).
    @raise Invalid_argument if [buf < 1]. *)

val feeder_feed : feeder -> asid:int -> Pc_trace.event -> unit
(** Buffer one event. Non-block events and asid changes flush the
    pending run first, preserving stream order. *)

val feeder_block : feeder -> asid:int -> start:int -> insns:int -> unit
(** [feeder_feed f ~asid (Block { start; insns })] without constructing
    the event — the allocation-free path for producers that hold the
    fields unboxed (the daemon's drain cycle). *)

val feeder_flush : feeder -> unit
(** Replay any buffered run now. Call at batch boundaries (end of a
    drain cycle, end of stream) — a feeder holds no state besides the
    pending run, so flushing is always safe. *)

val feeder_decode :
  feeder -> Pc_trace.decoder -> ?off:int -> ?len:int -> string -> int * int
(** [feeder_decode f dec s] feeds [s.[off..off+len)] to the streaming
    decoder [dec] ({!Pc_trace.decoder_feed_ints}) and every event it
    completes straight into [f]: blocks through {!feeder_block}, with no
    event value built, control records through {!feeder_feed}. Returns
    [(events, blocks)] completed by this chunk; a record cut at the end of
    the chunk stays in [dec] for the next call. Does not flush [f].
    @raise Pc_trace.Corrupt as {!Pc_trace.decoder_feed} — events before
    the bad record have been fed. *)

val replay_file : t -> string -> unit
(** Replay a trace file of any {!Pc_trace.format}: {!Pc_trace.read_all},
    then {!feeder_decode} chunk by chunk, then {!Pc_trace.decoder_finish}
    and {!feeder_flush}. Equivalent to folding {!feed} over
    {!Pc_trace.fold_events}.
    @raise Pc_trace.Corrupt on bad framing, with the whole-file
    messages. *)

val replay_events : (int -> Replayer.t) -> string -> t
(** [create] + [replay_file]. *)

val asids : t -> int list
(** Asids that executed at least one block, sorted. *)

val replayer : t -> int -> Replayer.t option

val cur_asid : t -> int

val switches : t -> int
(** Switch records routed (including self-switches). *)

val invalidations : t -> int -> int
(** Invalidations that landed on an existing asid ([0] for unknown). *)

val interrupts : t -> int -> int

val snapshots : t -> (int * Replayer.snapshot) list
(** Per-asid profile snapshots, sorted by asid — the demuxed side of the
    demuxed-vs-isolated gate. *)

val add_edge_counts : t -> int array -> unit
(** {!Replayer.add_edge_counts} of every asid's replayer into [acc]. *)

val project : string -> (int * Pc_trace.event list) list
(** Per-asid projection of a trace file, sorted by asid: each asid keeps
    its blocks and interrupts in stream order plus every invalidation
    targeting it; switches are dropped. Asids that only ever appear as a
    switch target (no block, interrupt or invalidation) do not appear. *)

val replay_isolated : (int -> Replayer.t) -> string -> (int * Replayer.snapshot) list
(** Replay each asid's {!project}ion through a fresh replayer, in
    isolation; per-asid snapshots for asids that executed blocks, sorted.
    The reference side of the gate: must equal {!snapshots} of a demuxed
    {!replay_events} over the same file and factory (with the factory
    handing out independent replayers, e.g. fresh [Packed.dup]s). *)
