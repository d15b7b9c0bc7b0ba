(** Offline replay of PC-trace files and arrays.

    A TEA replay is one sequential DFA walk per PC stream, and the trace
    format is delta- and dictionary-coded, so decoding one stream is
    serial too: a stream is never split. Its two stages are pipelined
    instead. Every file streams through one
    {!Tea_core.Multi_replayer} feeder, which keeps a run buffer per asid
    (one for a single-asid file), so asids replay side by side in long
    batches with no whole-stream arrays. On a pool of one job the caller
    decodes and replays in turn. On a pool of two or more jobs a file
    replay is one {!Pool.map} of two tasks: one decodes and hands the
    filled run buffers through a {!Tea_core.Multi_replayer.relay} to the
    other, which replays them in stream order (so, like {!Pool.map}, a
    file replay must not run in a task of the same pool). A small file
    replays on the caller at any job count: one of fewer bytes than
    {!Tea_core.Multi_replayer.relay_blocks} holds fewer blocks than the
    relay's ring, so waking two workers for it would cost more than the
    overlap saves. The pool's job count and the file's byte count alone
    choose, and the profile is the same either way, because the same one
    walk produces it, and so is a [Corrupt] message. The replayed blocks
    are credited to {!Pool.add_units} on the domain that replayed them
    (for an inline replay, outside any task: the pool's residual
    units).

    {b Replayer factory.} Every replayer is built through the [make]
    factory (default: a compiled-engine replayer,
    {!Tea_core.Replayer.create_compiled} over
    {!Tea_core.Compiled.of_packed} of the image). Its engine must be
    observationally identical to the packed one. Batch seams are
    invisible to the profile: superstate and compiled-region matching in
    {!Tea_core.Replayer.feed_run} ends at each batch's end and resumes
    from the carried state in the next batch (property-tested over fused
    images in [test_fuse.ml]). *)

val replay_arrays :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  ?insns:int array ->
  int array ->
  len:int ->
  Profile.t
(** [replay_arrays pool packed ~insns starts ~len] — replay
    [starts.(0..len-1)] from NTE in one {!Tea_core.Replayer.feed_run} on
    the caller. [insns] is the parallel per-block instruction-count array
    (coverage counts 0 per block when absent). The replayed blocks are
    credited to {!Pool.add_units}.
    @raise Invalid_argument when [len] exceeds either array. *)

val load_pc_trace : string -> int array * int array * int
(** Decode a {!Tea_core.Pc_trace} file into [(starts, insns, len)]
    ({!Tea_core.Pc_trace.load}). Both arrays are sized once from the
    file's byte count — every block record takes at least one byte, so
    blocks <= bytes — and are over-allocated by the bytes a record takes
    beyond one; only [0..len-1] is valid.
    @raise Tea_core.Pc_trace.Corrupt on bad framing. *)

val replay_pc_trace :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  string ->
  Profile.t * int
(** Stream a single-stream {!Tea_core.Pc_trace} file through one
    [make packed] replayer (built on the caller): the one-asid case of
    the feeder, with a {!Tea_core.Pc_trace.single_decoder}, so memory is
    per run buffer, not per trace. Decode and replay are pipelined on a
    pool of two or more jobs (see above). Returns the profile and the
    block count, and credits the blocks to {!Pool.add_units}. The
    profile equals one [feed_run] over {!load_pc_trace}'s arrays.
    @raise Tea_core.Pc_trace.Corrupt on bad framing, with
    {!load_pc_trace}'s message for the same bytes. *)

(** {2 Multi-asid event streams}

    A v3 event stream carries per-asid runs, cut at every
    invalidation/interrupt: after a cut the asid's replayer re-enters at
    NTE by {!Tea_core.Replayer.set_state} (no accounting, as in the
    demuxed {!Tea_core.Multi_replayer} cut). *)

type run = Tea_core.Pc_trace.run = {
  starts : int array;
  insns : int array;
  len : int;
}
(** One contiguous single-asid block run. *)

val load_events : string -> (int * run list) list
(** Read a {!Tea_core.Pc_trace} file of any format into per-asid runs,
    sorted by asid, runs in stream order: a fold over
    {!Tea_core.Pc_trace.fold_events}, for reports and oracles, not for
    replay. Asids with no blocks are absent (matching the lazy-entry rule
    of {!Tea_core.Multi_replayer}); a cut aimed at an asid with no blocks
    since its last cut is a no-op.
    @raise Tea_core.Pc_trace.Corrupt on bad framing. *)

val replay_events :
  Pool.t ->
  (int -> Tea_core.Packed.t) ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  string ->
  (int * Profile.t) list
(** [replay_events pool packed_for path] — one streaming
    {!Tea_core.Multi_replayer} pass, each asid on a
    [make (packed_for asid)] replayer (a shared image per asid is fine;
    [make] runs on the decoding domain), then
    {!Tea_core.Multi_replayer.snapshots}. Decode and replay are
    pipelined on a pool of two or more jobs (see above), a cut's
    [set_state] replaying after its asid's buffered run. The replayed
    blocks are credited to {!Pool.add_units}. The result, sorted by asid, equals replaying
    each asid's projection in isolation — the interleaved-replay hard
    gate.
    @raise Tea_core.Pc_trace.Corrupt on bad framing, with
    {!load_events}'s message for the same bytes. *)
