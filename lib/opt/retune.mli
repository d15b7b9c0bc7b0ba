(** Closed-loop continuous PGO: background rebuild of the tuning ladder
    from live traffic.

    {!Repack} and {!Fuse} are offline passes — an operator collects a
    profile, rebuilds, restarts. This module packages the same ladder
    for a daemon that must not stop: decode the raw trace bytes it
    retained back into per-asid block segments ({!segments_of_raws}),
    fold them into an edge profile over any image layout
    ({!collect_segments}), rebuild collect → repack → collect → fuse
    from the {e flat} source image ({!build}), and do it all in a
    background domain ({!launch}/{!poll}) while replay continues on the
    current image. The swap itself is the caller's
    ({!Tea_core.Replayer.rebind} between batches — a drain-cycle
    boundary in the serve daemon, the trace's midpoint in offline
    [replay --retune]).

    Rebuilding from the flat image every generation — rather than
    re-permuting the current one — keeps each epoch exactly one
    permutation from orig-id space, so the TEAEP1 snapshot {!build}
    returns is always in original automaton ids and epochs never
    compound permutations. *)

type segment = Tea_core.Pc_trace.run
(** One gap-free run of blocks for one asid (only [0..len-1] is valid;
    the arrays may be over-allocated). *)

val segments_of_raws : string list -> segment list
(** {!Tea_core.Pc_trace.demux} each complete raw trace stream (any
    format, one string per retained session) into per-asid segments, cut
    at invalidations and interrupts — the same segmentation the
    replayer's cut semantics induce, so collecting over the segments
    sees exactly the automaton walks replay performed.
    @raise Tea_core.Pc_trace.Corrupt on bad framing. *)

val collect_segments :
  Tea_core.Packed.t -> segment list -> Repack.profile
(** {!Repack.collect} each segment from NTE over the image and
    {!Repack.merge} the results; the profile is in the image's own id
    space (orig space when the image is flat). *)

val build :
  ?fuse:bool ->
  ?hot_prefix:int ->
  src:Tea_core.Packed.t ->
  profile_of:(Tea_core.Packed.t -> Repack.profile) ->
  unit ->
  Tea_core.Packed.t * Repack.profile
(** [build ~src ~profile_of ()] runs one generation of the ladder:
    [profile_of src] (the TEAEP1-saveable snapshot, in [src]'s id
    space), {!Repack.repack}, then — unless [fuse] is [false] —
    {!Fuse.fuse} guided by [profile_of] re-walked over the repacked
    layout. Returns the tuned image and the snapshot profile.
    [profile_of] is typically [fun img -> collect_segments img segs].
    @raise Invalid_argument when [src] is fused (rebuild from the flat
    source, not the previous generation). *)

type outcome = (Tea_core.Packed.t * Repack.profile, exn) result

type builder
(** A rebuild running in its own domain. OCaml values are shared-heap,
    so the built image crosses back to the launching domain for free;
    its mutable counters are untouched until the swap. *)

val launch : (unit -> Tea_core.Packed.t * Repack.profile) -> builder
(** Spawn the rebuild. Exceptions are captured into the outcome. *)

val poll : builder -> outcome option
(** Nonblocking completion check; joins the finished domain on first
    success (idempotent afterwards). *)

val await : builder -> outcome
(** Block until the rebuild finishes (used at daemon shutdown so no
    domain leaks). *)
