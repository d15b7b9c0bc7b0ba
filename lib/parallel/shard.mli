(** Sharded offline replay: one PC trace, [n] domains, the sequential
    profile — exactly.

    A TEA replay is a DFA walk, so chunking a PC trace naively breaks at
    the seams: a worker starting mid-trace does not know the automaton
    state its chunk begins in. The packed image makes the fix cheap. The
    DFA's step is [in_trace_edge(state, pc)], else [head(pc)], else NTE —
    so at any index whose PC appears in {b no} state's in-trace label set,
    the next state is [head(pc)]-or-NTE {e regardless of the current
    state}. Call such indices {b sync points}. Real traces are full of
    them (every cold block is one).

    Each worker scans its chunk for the first sync point [k], seeds a
    private {!Tea_core.Replayer} (over a {!Tea_core.Packed.dup} sibling of
    the shared image) with that entry-independent state, and replays the
    exact suffix [k+1 .. hi). The driver then stitches sequentially:
    chunk 0 is replayed whole from NTE; for every later chunk it replays
    only the short uncertain prefix [lo .. k] from the true carried-in
    state (asserting it lands on the state the worker assumed) and adopts
    the worker's exit state. Every index is thus replayed exactly once,
    from exactly the state the sequential run would have been in — so the
    {!Profile.merge} of all the pieces is bit-identical to the sequential
    profile, including stats and simulated cycles (property-tested for
    1/2/4 domains). A chunk with no sync point degrades gracefully: the
    driver replays it entirely.

    {b Fused images and chunk boundaries.} The scheme carries over
    unchanged to an image with a fusion overlay: superstate matching in
    {!Tea_core.Replayer.feed_run} is bounded by the batch it was handed,
    so a signature run never reads across a chunk seam — it ends at the
    boundary and resumes (from the carried state, which bulk accounting
    maintains exactly) in the next chunk's replay. Because fusion is
    observationally the identity, sync-point detection, entry-state
    stitching and the merged profile are all untouched (property-tested
    for 1/2/4 domains in [test_fuse.ml]).

    {b Replayer factory.} Workers and the stitching driver build their
    replayers through the [make] factory (default: a compiled-engine
    replayer, {!Tea_core.Replayer.create_compiled} over
    {!Tea_core.Compiled.of_packed} of a {!Tea_core.Packed.dup}
    sibling). Sync-point detection stays on the shared packed image,
    and since compiled dispatch is bounded by each batch, the merged
    profile is bit-identical at any job count (property-tested in
    [test_compile.ml]). *)

val replay_span :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  ?entry:Tea_core.Automaton.state ->
  ?insns:int array ->
  int array ->
  off:int ->
  len:int ->
  Profile.t * Tea_core.Automaton.state
(** [replay_span pool packed ~entry starts ~off ~len] — shard
    [starts.(off..off+len-1)] across the pool, entering the span in
    state [entry] (default NTE), and return the merged profile together
    with the true exit state of the walk. The generalization that makes
    {e segmented} sharded replay possible: replay a prefix span, swap
    images ({!Tea_core.Replayer.rebind} semantics — translate the exit
    state through [orig_of] and pass it as the next span's [entry]),
    replay the rest, and the merged profiles equal the sequential
    swapped run bit-for-bit — chunk seams and span seams commute with
    the same sync-point argument. [entry] only affects chunk 0 (and the
    stitching driver's start); every other chunk enters at its own sync
    point exactly as before.
    @raise Invalid_argument when [off..off+len) exceeds either array. *)

val replay_arrays :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  ?insns:int array ->
  int array ->
  len:int ->
  Profile.t
(** [replay_arrays pool packed ~insns starts ~len] — shard
    [starts.(0..len-1)] (entry state NTE) across the pool and merge.
    [insns] is the parallel per-block instruction-count array (coverage
    counts 0 per block when absent). Workers credit replayed blocks to
    {!Pool.add_units}. [make] builds each worker's private replayer from
    the shared image — it must dup (never share mutable counters), and
    its engine must be observationally identical to the packed one.
    @raise Invalid_argument when [len] exceeds either array. *)

val load_pc_trace : string -> int array * int array * int
(** Decode a {!Tea_core.Pc_trace} file into [(starts, insns, len)]
    (arrays may be over-allocated; only [0..len-1] is valid). Decoding is
    inherently sequential — the format is delta-coded — so the parallel
    path decodes once up front instead of streaming.
    @raise Tea_core.Pc_trace.Corrupt on bad framing. *)

val replay_pc_trace :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  string ->
  Profile.t * int
(** [load_pc_trace] then [replay_arrays]; returns the merged profile and
    the block count. Bit-identical to
    {!Tea_core.Pc_trace.replay_packed} over the same image. *)

(** {2 Multi-asid event streams}

    {!replay_arrays} assumes one uncut single-asid stream — its sync-point
    stitching carries a single automaton state across chunk seams, so a
    seam landing on an asid switch would stitch against the wrong
    automaton. The multi-asid path therefore demuxes {e first}: the v3
    event stream is split into per-asid runs, cut at every
    invalidation/interrupt (each run re-enters at NTE, matching the
    demuxed {!Tea_core.Multi_replayer} cut, which does no accounting),
    and each run is sharded independently. Seams never straddle an asid
    or a cut by construction; per-run profiles merge additively into
    exactly the per-asid sequential snapshot, at any job count. *)

type run = { starts : int array; insns : int array; len : int }
(** One contiguous single-asid block run; only [0..len-1] is valid
    (arrays may be over-allocated). *)

val load_events : string -> (int * run list) list
(** Decode any {!Tea_core.Pc_trace} format into per-asid runs, sorted by
    asid, runs in stream order. Asids with no blocks are absent (matching
    the lazy-entry rule of {!Tea_core.Multi_replayer}); a cut aimed at an
    asid with no blocks so far is a no-op.
    @raise Tea_core.Pc_trace.Corrupt on bad framing. *)

val replay_events :
  Pool.t ->
  (int -> Tea_core.Packed.t) ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  string ->
  (int * Profile.t) list
(** [replay_events pool packed_for path] — demux, then shard each asid's
    runs over [packed_for asid] (workers dup the image internally via
    [make]; a shared image per asid is fine) and merge per asid. The
    result equals
    {!Tea_core.Multi_replayer.snapshots} of a sequential demuxed replay
    over the same images, at any [--jobs] — the interleaved-replay hard
    gate. *)
