(** Closed-loop continuous PGO: background rebuild of the tuning ladder
    from live traffic.

    {!Repack} and {!Fuse} are offline passes — an operator collects a
    profile, rebuilds, restarts. This module packages the same ladder
    for a daemon that must not stop: rebuild repack → fuse from the
    {e flat} source image ({!build}) with the edge profile the replay
    itself counted ({!Tea_core.Replayer.edge_profile}, summed over the
    fleet), and do it in a background domain ({!launch}/{!poll}) while
    replay continues on the current image. The swap itself is the
    caller's ({!Tea_core.Replayer.rebind} between batches — a drain-cycle
    boundary in the serve daemon, the trace's midpoint in offline
    [replay --retune]).

    Rebuilding from the flat image every generation — rather than
    re-permuting the current one — keeps each epoch exactly one
    permutation from orig-id space, so the profile a rebuild was tuned
    for is always the original-id TEAEP1 profile it was given, and
    epochs never compound permutations. *)

val build :
  ?fuse:bool ->
  ?hot_prefix:int ->
  profile:Repack.profile ->
  Tea_core.Packed.t ->
  Tea_core.Packed.t
(** [build ~profile src] runs one generation of the ladder on an
    original-id [profile] (a replay's edge profile, or {!Repack.collect}
    over the flat image): {!Repack.repack} on it, then — unless [fuse] is
    [false] — {!Fuse.fuse} guided by the same counts {!Repack.permute}d
    into the repacked layout, which is what re-collecting the stream over
    that layout would return. The one tuning ladder behind [--pgo],
    [replay --retune] and the daemon's rebuilds.
    @raise Invalid_argument when [src] is fused (rebuild from the flat
    source, not the previous generation) or [profile]'s shape does not
    match [src]. *)

type 'a builder
(** A rebuild running in its own domain. OCaml values are shared-heap,
    and images are immutable, so the built image (the daemon builds and
    compiles it here, off its event loops) crosses back to the launching
    domain for free. *)

val launch : (unit -> 'a) -> 'a builder
(** Spawn the rebuild. Exceptions are captured into the result. *)

val poll : 'a builder -> ('a, exn) result option
(** Nonblocking completion check; joins the finished domain on first
    success (idempotent afterwards). *)

val await : 'a builder -> ('a, exn) result
(** Block until the rebuild finishes (used at daemon shutdown so no
    domain leaks). *)
